package corpus

import (
	"testing"

	"racedet/internal/bench"
	"racedet/internal/core"
)

// renderReports is the byte-level view of a run's detection outcome:
// the ordered race reports plus the racy-object set. Every
// differential in this package compares these strings.
func renderReports(res *core.RunResult) string {
	s := ""
	for _, r := range res.Reports {
		s += r.String() + "\n"
	}
	s += "racy:"
	for _, o := range res.RacyObjects {
		s += " " + o.String()
	}
	return s
}

// batchSizes brackets the per-thread event batching: tiny batches that
// flush on almost every access, and a typical size.
var batchSizes = []int{4, 16}

// TestCorpusBatchedMatchesUnbatched is the differential test for the
// batched front end: on every corpus program, under ten harness seeds,
// batching the interpreter's access events must give exactly the
// unbatched run's ordered race reports and racy-object set.
func TestCorpusBatchedMatchesUnbatched(t *testing.T) {
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 10; seed++ {
				checkBatched(t, e.name+".mj", e.src, seed, true)
			}
		})
	}
}

// TestBenchmarksBatchedMatchesUnbatched extends the differential check
// to the five paper benchmarks (Table 1), which are much larger than
// the corpus idioms.
func TestBenchmarksBatchedMatchesUnbatched(t *testing.T) {
	seeds := []int64{0, 1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			src := b.Source()
			for _, seed := range seeds {
				checkBatched(t, b.Name+".mj", src, seed, false)
			}
		})
	}
}

// checkBatched runs one program unbatched and at every batch size and
// fails on any divergence; verbose prints both report sets.
func checkBatched(t *testing.T, file, src string, seed int64, verbose bool) {
	t.Helper()
	plain, err := core.RunSource(file, src, core.Full().WithSeed(seed))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if plain.Err != nil {
		t.Fatalf("seed %d: runtime: %v", seed, plain.Err)
	}
	want := renderReports(plain)
	for _, n := range batchSizes {
		cfg := core.Full().WithSeed(seed)
		cfg.BatchSize = n
		res, err := core.RunSource(file, src, cfg)
		if err != nil {
			t.Fatalf("seed %d batch=%d: %v", seed, n, err)
		}
		if res.Err != nil {
			t.Fatalf("seed %d batch=%d: runtime: %v", seed, n, res.Err)
		}
		got := renderReports(res)
		switch {
		case got == want:
		case verbose:
			t.Errorf("seed %d batch=%d diverges from unbatched:\n--- unbatched ---\n%s\n--- batched ---\n%s",
				seed, n, want, got)
		default:
			t.Errorf("seed %d batch=%d diverges from unbatched (%d vs %d reports)",
				seed, n, len(res.Reports), len(plain.Reports))
		}
	}
}
