package main

import (
	"strings"
	"testing"

	"racedet/internal/bench"
)

func report(cells ...bench.JSONResult) *bench.JSONReport {
	return &bench.JSONReport{Results: cells}
}

func cell(b, c string, ns int64) bench.JSONResult {
	return bench.JSONResult{Benchmark: b, Config: c, NsPerOp: ns}
}

var gateConfigs = map[string]bool{"Full": true, "FullBatched64": true}

func TestGatePassesWithinThreshold(t *testing.T) {
	base := report(
		cell("mtrt", "Full", 1000),
		cell("mtrt", "FullBatched64", 1100),
		cell("mtrt", "Empty", 100),
	)
	cur := report(
		cell("mtrt", "Full", 1240),          // +24%, inside 25%
		cell("mtrt", "FullBatched64", 1000), // improvement
		cell("mtrt", "Empty", 900),          // 9x, but not gated
	)
	rows, violations, warnings := compare(base, cur, gateConfigs, 0.25)
	if len(violations) != 0 {
		t.Fatalf("unexpected violations: %v", violations)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	if got := countGated(rows); got != 2 {
		t.Errorf("countGated = %d, want 2", got)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	base := report(cell("tsp", "Full", 1000), cell("tsp", "FullBatched64", 1000))
	cur := report(cell("tsp", "Full", 1300), cell("tsp", "FullBatched64", 990))
	_, violations, _ := compare(base, cur, gateConfigs, 0.25)
	if len(violations) != 1 {
		t.Fatalf("violations = %v, want exactly one (tsp/Full)", violations)
	}
	if !strings.Contains(violations[0], "tsp/Full") || !strings.Contains(violations[0], "1.30x") {
		t.Errorf("violation message %q missing cell or ratio", violations[0])
	}
}

func TestGateFailsOnMissingGatedCell(t *testing.T) {
	base := report(cell("sor", "Full", 1000), cell("sor", "FullBatched64", 1000))
	cur := report(cell("sor", "Full", 1000)) // batched cell absent
	_, violations, _ := compare(base, cur, gateConfigs, 0.25)
	if len(violations) != 1 || !strings.Contains(violations[0], "missing") {
		t.Fatalf("violations = %v, want one missing-cell violation", violations)
	}
}

func TestGateWarnsOnExtraCurrentCells(t *testing.T) {
	base := report(cell("hedc", "Full", 1000), cell("hedc", "FullBatched64", 1000))
	cur := report(
		cell("hedc", "Full", 1000),
		cell("hedc", "FullBatched64", 1000),
		cell("hedc", "FullBatched128", 9999),
	)
	rows, violations, warnings := compare(base, cur, gateConfigs, 0.25)
	if len(violations) != 0 {
		t.Fatalf("unexpected violations: %v", violations)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %d, want 2 (current-only cells are not compared)", len(rows))
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "hedc/FullBatched128") {
		t.Errorf("warnings = %v, want one naming the current-only cell", warnings)
	}
}

func TestGateWarnsOnUnmeasuredBaselineCell(t *testing.T) {
	// A baseline edited or truncated by hand can carry cells without a
	// measurement; those must be skipped with a warning, never produce
	// an infinite ratio or a panic.
	base := report(
		cell("moldyn", "Full", 0), // missing ns/op key in the JSON
		cell("moldyn", "FullBatched64", 1000),
	)
	cur := report(
		cell("moldyn", "Full", 1200),
		cell("moldyn", "FullBatched64", 1000),
	)
	rows, violations, warnings := compare(base, cur, gateConfigs, 0.25)
	if len(violations) != 0 {
		t.Fatalf("unexpected violations: %v", violations)
	}
	if len(rows) != 1 {
		t.Errorf("rows = %d, want 1 (unmeasured baseline cell skipped)", len(rows))
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "moldyn/Full") && strings.Contains(w, "no measurement") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings = %v, want one about moldyn/Full's missing measurement", warnings)
	}
}

func TestGateWarnsOnUncoveredGatedConfig(t *testing.T) {
	// The baseline has zero usable cells for a gated config (here the
	// batched one): the gate cannot protect it and must say so.
	base := report(cell("crypt", "Full", 1000), cell("crypt", "FullBatched64", 0))
	cur := report(cell("crypt", "Full", 1000))
	_, violations, warnings := compare(base, cur, gateConfigs, 0.25)
	if len(violations) != 0 {
		t.Fatalf("unexpected violations: %v", violations)
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, `"FullBatched64"`) && strings.Contains(w, "cannot protect") {
			found = true
		}
	}
	if !found {
		t.Errorf("warnings = %v, want one about the uncovered gated config", warnings)
	}
}

func TestReadJSONRejectsEmpty(t *testing.T) {
	if _, err := bench.ReadJSON(strings.NewReader(`{"results": []}`)); err == nil {
		t.Error("ReadJSON accepted a report with no results")
	}
	if _, err := bench.ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Error("ReadJSON accepted malformed input")
	}
}
