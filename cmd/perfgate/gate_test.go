package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec gates one workload on two metrics: one where lower is
// better, one where higher is.
func testSpec() *spec {
	return &spec{
		Workloads: []workload{{"live"}},
		EndToEnd: []metricSpec{
			{Name: "op_ms", Better: "lower", Bound: 0.25},
			{Name: "ops_per_s", Better: "higher", Bound: 0.25},
		},
	}
}

// runs builds one result per (op_ms, ops_per_s) pair, 100 ops each,
// with failed ops in the first.
func runs(failed int64, vals ...[2]float64) map[string][]runLine {
	var out []runLine
	for i, v := range vals {
		rl := runLine{Attempted: 100, Metrics: map[string]value{}}
		if i == 0 {
			rl.Failed = failed
		}
		rl.Metrics["op_ms"] = value{v[0]}
		rl.Metrics["ops_per_s"] = value{v[1]}
		out = append(out, rl)
	}
	return map[string][]runLine{"live": out}
}

func TestGatePassesWithinThreshold(t *testing.T) {
	parent := runs(0, [2]float64{10, 100}, [2]float64{11, 90}, [2]float64{9, 110})
	// Medians 12.4 (+24%) and 76 (-24%): inside the 25% bound; the one
	// wild run does not move the median.
	change := runs(0, [2]float64{12.4, 76}, [2]float64{40, 10}, [2]float64{12, 80})
	rows, violations, warnings := compare(testSpec(), parent, change)
	if len(violations) != 0 || len(warnings) != 0 {
		t.Fatalf("violations %v, warnings %v; want none", violations, warnings)
	}
	if len(rows) != 3 {
		t.Errorf("rows = %d, want 3 (two metrics and the failed-op share)", len(rows))
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	parent := runs(0, [2]float64{10, 100}, [2]float64{10, 100}, [2]float64{10, 100})
	change := runs(0, [2]float64{13, 100}, [2]float64{13, 70}, [2]float64{13, 70})
	_, violations, _ := compare(testSpec(), parent, change)
	if len(violations) != 2 {
		t.Fatalf("violations = %v, want live/op_ms and live/ops_per_s", violations)
	}
	if !strings.Contains(violations[0], "live/op_ms") || !strings.Contains(violations[0], "1.30x") {
		t.Errorf("violation %q does not name the workload, metric and ratio", violations[0])
	}
	if !strings.Contains(violations[1], "live/ops_per_s") || !strings.Contains(violations[1], "0.70x") {
		t.Errorf("violation %q does not name the workload, metric and ratio", violations[1])
	}
}

// TestGateReadsBetterFromBenchmarkJSON reads the repository's own
// BENCHMARK.json: both end-to-end metrics are lower-is-better, so a
// slower change fails and a faster one passes.
func TestGateReadsBetterFromBenchmarkJSON(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != 5 {
		t.Errorf("%d workloads, want 5", len(sp.Workloads))
	}
	line := func(v float64) runLine {
		rl := runLine{Attempted: 1, Metrics: map[string]value{}}
		for _, m := range sp.EndToEnd {
			if m.Better != "lower" {
				t.Fatalf("%s: better = %q, want lower", m.Name, m.Better)
			}
			rl.Metrics[m.Name] = value{v}
		}
		return rl
	}
	side := func(v float64) map[string][]runLine {
		out := map[string][]runLine{}
		for _, w := range sp.Workloads {
			out[w.Name] = []runLine{line(v)}
		}
		return out
	}
	if _, violations, _ := compare(sp, side(10), side(5)); len(violations) != 0 {
		t.Errorf("a faster change fails: %v", violations)
	}
	_, violations, _ := compare(sp, side(10), side(20))
	if want := len(sp.Workloads) * len(sp.EndToEnd); len(violations) != want {
		t.Errorf("a 2x slower change gives %d violations, want %d: %v", len(violations), want, violations)
	}
}

func TestGateFailsOnHigherFailedShare(t *testing.T) {
	parent := runs(0, [2]float64{10, 100}, [2]float64{10, 100})
	change := runs(1, [2]float64{10, 100}, [2]float64{10, 100})
	_, violations, _ := compare(testSpec(), parent, change)
	if len(violations) != 1 || !strings.Contains(violations[0], "live/failed_share") {
		t.Fatalf("violations = %v, want one naming live/failed_share", violations)
	}
	// The same share on both sides passes.
	if _, violations, _ := compare(testSpec(), change, change); len(violations) != 0 {
		t.Errorf("equal failed shares fail: %v", violations)
	}
}

func TestGateWarnsOnUnmeasuredBaselineCell(t *testing.T) {
	// A metric the parent's runs report as 0 (cmd/benchmark writes 0
	// for a value it could not compute) has no ratio; it is skipped
	// with a warning, never an infinite ratio.
	parent := runs(0, [2]float64{0, 100})
	change := runs(0, [2]float64{12, 100})
	rows, violations, warnings := compare(testSpec(), parent, change)
	if len(violations) != 0 {
		t.Fatalf("unexpected violations: %v", violations)
	}
	if len(rows) != 2 {
		t.Errorf("rows = %d, want 2 (unmeasured metric skipped)", len(rows))
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "live/op_ms") {
		t.Errorf("warnings = %v, want one naming live/op_ms", warnings)
	}
}

// writeSide writes one .jsonl file per name into a new directory.
func writeSide(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name+".jsonl"), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const goodLine = `{"correct":true,"attempted":100,"failed":0,"metrics":{"op_ms":{"value":10,"unit":"ms"},"ops_per_s":{"value":100,"unit":"1/s"}}}`

func TestGateFailsOnMissingGatedCell(t *testing.T) {
	dir := writeSide(t, map[string]string{"daemon": goodLine + "\n"})
	_, err := readSide(dir, testSpec())
	if err == nil || !strings.Contains(err.Error(), "live.jsonl") {
		t.Fatalf("err = %v, want one naming the missing live.jsonl", err)
	}
}

func TestGateWarnsOnExtraCurrentCells(t *testing.T) {
	dir := writeSide(t, map[string]string{"live": goodLine + "\n", "livee": goodLine + "\n"})
	if _, err := readSide(dir, testSpec()); err != nil {
		t.Fatal(err)
	}
	if extra := extraWorkloads(dir, testSpec()); len(extra) != 1 || extra[0] != "livee" {
		t.Errorf("extraWorkloads = %v, want [livee]", extra)
	}
}

func TestGateRejectsMalformedLine(t *testing.T) {
	for name, body := range map[string]string{
		"not json":       goodLine + "\nbenchmark: set-up failed\n",
		"empty line":     goodLine + "\n\n",
		"missing metric": `{"attempted":1,"failed":0,"metrics":{"op_ms":{"value":1}}}` + "\n",
		"trailing data":  goodLine + goodLine + "\n",
	} {
		if _, err := readRuns(strings.NewReader(body), testSpec().EndToEnd); err == nil || !strings.Contains(err.Error(), "malformed") {
			t.Errorf("%s: err = %v, want a malformed-line error", name, err)
		}
	}
}

func TestReadJSONRejectsEmpty(t *testing.T) {
	if _, err := readRuns(strings.NewReader(""), testSpec().EndToEnd); err == nil {
		t.Error("readRuns accepted a file with no runs")
	}
	if _, err := readRuns(strings.NewReader(goodLine+"\n"), testSpec().EndToEnd); err != nil {
		t.Errorf("readRuns rejected a good line: %v", err)
	}
}

// TestRunExitCodes drives the command against the repository's
// BENCHMARK.json: 0 on a pass, 1 on a regression, 3 on a usage error
// or a missing file.
func TestRunExitCodes(t *testing.T) {
	sp, err := readSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	side := func(ms float64) string {
		files := map[string]string{}
		for _, w := range sp.Workloads {
			files[w.Name] = fmt.Sprintf(`{"correct":true,"attempted":10,"failed":0,"metrics":{"setup_s":{"value":1,"unit":"s"},"best_op_ms_geomean":{"value":%g,"unit":"ms"}}}`+"\n", ms)
		}
		return writeSide(t, files)
	}
	parent, same, slower := side(10), side(11), side(20)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, tc := range []struct {
		name string
		args []string
		want int
		msg  string
	}{
		{"pass", []string{parent, same}, 0, "perfgate: ok"},
		{"regression", []string{parent, slower}, 1, "daemon/best_op_ms_geomean"},
		{"no args", nil, 3, "usage"},
		{"old flag", []string{"-baseline", parent}, 3, "usage"},
		{"missing dir", []string{parent, filepath.Join(t.TempDir(), "none")}, 3, "live.jsonl"},
	} {
		var out bytes.Buffer
		if got := run(tc.args, &out, &out); got != tc.want || !strings.Contains(out.String(), tc.msg) {
			t.Errorf("%s: exit %d, want %d with %q:\n%s", tc.name, got, tc.want, tc.msg, out.String())
		}
	}
}
