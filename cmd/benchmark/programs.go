package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"slices"

	"racedet/internal/core"
	"racedet/internal/rt/detector"
	"racedet/internal/service"
)

// The five paper programs are frozen here rather than read from
// internal/bench, so a later change to the library's copies cannot
// silently change what the benchmark measures.
//
//go:embed testdata/*.mj testdata/expected.json
var testdata embed.FS

// programNames lists the paper's benchmark programs in Table 1 order.
var programNames = []string{"mtrt", "tsp", "sor2", "elevator", "hedc"}

// verdict is one program's expected detection outcome. RacyObjects is
// nil where the Table 3 object count depends on the schedule (hedc).
type verdict struct {
	RacyFields  []string `json:"racy_fields"`
	RacyObjects *int     `json:"racy_objects"`
}

type program struct {
	name   string
	file   string
	source string
	want   verdict
}

func loadPrograms() ([]program, error) {
	raw, err := testdata.ReadFile("testdata/expected.json")
	if err != nil {
		return nil, err
	}
	var want map[string]verdict
	if err := json.Unmarshal(raw, &want); err != nil {
		return nil, fmt.Errorf("testdata/expected.json: %w", err)
	}
	progs := make([]program, 0, len(programNames))
	for _, name := range programNames {
		src, err := testdata.ReadFile("testdata/" + name + ".mj")
		if err != nil {
			return nil, err
		}
		v, ok := want[name]
		if !ok {
			return nil, fmt.Errorf("testdata/expected.json: no verdict for %s", name)
		}
		slices.Sort(v.RacyFields)
		progs = append(progs, program{name: name, file: name + ".mj", source: string(src), want: v})
	}
	return progs, nil
}

// check compares a detection outcome with the expected verdict.
func (v verdict) check(fields []string, objects int) error {
	if !slices.Equal(fields, v.RacyFields) {
		return fmt.Errorf("racy fields %v, want %v", fields, v.RacyFields)
	}
	if v.RacyObjects != nil && objects != *v.RacyObjects {
		return fmt.Errorf("%d racy objects, want %d", objects, *v.RacyObjects)
	}
	return nil
}

// checkRun verifies one detector run: it completed, it reports the
// expected verdict, and its filter counters balance.
func (p program) checkRun(rr *core.RunResult) error {
	if rr.Err != nil {
		return fmt.Errorf("%s: runtime: %w", p.name, rr.Err)
	}
	fields := make([]string, 0, len(rr.Reports))
	for _, r := range rr.Reports {
		fields = append(fields, r.Access.FieldName)
	}
	if err := p.want.check(distinctSorted(fields), len(rr.RacyObjects)); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	if err := checkAccounting(rr.DetectorStats); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	return nil
}

// checkAccounting enforces the filter layers' identity: every access
// the detector received was shipped to the trie, hit the cache, was
// skipped by the ownership filter, or was suppressed by sampling.
func checkAccounting(s detector.Stats) error {
	if s.Accesses != s.Shipped+s.CacheHits+s.OwnerSkips+s.Sample.Suppressed {
		return fmt.Errorf("accounting: accesses %d != shipped %d + cache hits %d + owner skips %d + suppressed %d",
			s.Accesses, s.Shipped, s.CacheHits, s.OwnerSkips, s.Sample.Suppressed)
	}
	return nil
}

// checkJob is checkRun for a daemon job's wire result.
func (p program) checkJob(res *service.JobResult) error {
	switch {
	case res.CompileError != "":
		return fmt.Errorf("%s: compile: %s", p.name, res.CompileError)
	case res.RuntimeError != "":
		return fmt.Errorf("%s: runtime: %s", p.name, res.RuntimeError)
	case res.Degraded:
		return fmt.Errorf("%s: degraded: %s", p.name, res.DegradedReason)
	}
	fields := make([]string, 0, len(res.Races))
	for _, r := range res.Races {
		fields = append(fields, r.Field)
	}
	if err := p.want.check(distinctSorted(fields), res.RacyObjects); err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	s := res.Stats
	if s.TraceEvents != s.EventsShipped+s.CacheHits+s.OwnerSkips+s.EventsSuppressed {
		return fmt.Errorf("%s: accounting: events %d != shipped %d + cache hits %d + owner skips %d + suppressed %d",
			p.name, s.TraceEvents, s.EventsShipped, s.CacheHits, s.OwnerSkips, s.EventsSuppressed)
	}
	return nil
}

func distinctSorted(xs []string) []string {
	slices.Sort(xs)
	return slices.Compact(xs)
}
