package core

import (
	"os"
	"reflect"
	"sort"
	"testing"
)

// TestHedcOwnershipScheduleMiss pins two hedc schedules on which the
// §7 ownership model, not sampling, hides the Task.thread_ race: the
// conflicting accesses do not interleave after the first owner, so
// Full and sampled runs report only Pool.size, while NoOwnership (every
// location born shared) also reports Task.thread_. About 2 in 30000
// hedc schedules behave this way.
func TestHedcOwnershipScheduleMiss(t *testing.T) {
	src, err := os.ReadFile("../bench/testdata/hedc.mj")
	if err != nil {
		t.Fatal(err)
	}
	sampled := func(c Config) Config {
		c.SampleK = 2
		c.SampleBudget = 0.25
		return c
	}
	racyFields := func(cfg Config) []string {
		t.Helper()
		res, err := RunSource("hedc.mj", string(src), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("runtime: %v", res.Err)
		}
		set := map[string]bool{}
		for _, r := range res.Reports {
			set[r.Access.FieldName] = true
		}
		var out []string
		for f := range set {
			out = append(out, f)
		}
		sort.Strings(out)
		return out
	}
	for _, seed := range []int64{1815621686, 1435019608} {
		for name, cfg := range map[string]Config{
			"Full":    Full().WithSeed(seed),
			"sampled": sampled(Full().WithSeed(seed)),
		} {
			if got, want := racyFields(cfg), []string{"Pool.size"}; !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d %s: racy fields %v, want %v", seed, name, got, want)
			}
		}
		got := racyFields(Full().WithSeed(seed).NoOwnership())
		if i := sort.SearchStrings(got, "Task.thread_"); i == len(got) || got[i] != "Task.thread_" {
			t.Errorf("seed %d NoOwnership: racy fields %v, want Task.thread_ among them", seed, got)
		}
	}
}
