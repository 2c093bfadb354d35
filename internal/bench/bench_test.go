package bench

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"racedet/internal/core"
	"racedet/internal/rt/event"
	"racedet/internal/rt/trace"
)

func TestAllBenchmarksRunClean(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			res, err := b.Run(core.Full())
			if err != nil {
				t.Fatal(err)
			}
			if res.Interp.ThreadsUsed != b.Threads {
				t.Errorf("dynamic threads = %d, want %d (Table 1)", res.Interp.ThreadsUsed, b.Threads)
			}
			if strings.TrimSpace(res.Output) == "" {
				t.Error("benchmark produced no output")
			}
		})
	}
}

// TestTable3Shape asserts the qualitative content of Table 3: the Full
// counts match the paper exactly for mtrt/tsp/sor2/elevator and
// closely for hedc, FieldsMerged inflates tsp and hedc, and
// NoOwnership inflates everything.
func TestTable3Shape(t *testing.T) {
	// Paper values (Full / FieldsMerged / NoOwnership):
	//   mtrt 2/2/12, tsp 5/20/241, sor2 4/4/1009, elevator 0/0/16,
	//   hedc 5/10/29.
	wantFull := map[string]int{"mtrt": 2, "tsp": 5, "sor2": 4, "elevator": 0, "hedc": 5}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			row, err := Table3Bench(b)
			if err != nil {
				t.Fatal(err)
			}
			if row.Full != wantFull[b.Name] {
				t.Errorf("Full = %d, want %d (paper)", row.Full, wantFull[b.Name])
			}
			if row.FieldsMerged < row.Full {
				t.Errorf("FieldsMerged (%d) must be >= Full (%d)", row.FieldsMerged, row.Full)
			}
			switch b.Name {
			case "tsp", "hedc":
				if row.FieldsMerged <= row.Full {
					t.Errorf("%s: FieldsMerged (%d) must strictly exceed Full (%d)", b.Name, row.FieldsMerged, row.Full)
				}
			case "mtrt", "sor2", "elevator":
				if row.FieldsMerged != row.Full {
					t.Errorf("%s: FieldsMerged (%d) should equal Full (%d) as in the paper", b.Name, row.FieldsMerged, row.Full)
				}
			}
			if row.NoOwnership <= row.Full {
				t.Errorf("NoOwnership (%d) must exceed Full (%d)", row.NoOwnership, row.Full)
			}
		})
	}
}

// TestKnownRaces asserts the specific bugs the paper discusses are the
// ones reported.
func TestKnownRaces(t *testing.T) {
	cases := map[string][]string{
		"mtrt":     {"RayTrace.threadCount", "ValidityCheckOutputStream.startOfLine"},
		"tsp":      {"TspSolver.MinTourLen"},
		"sor2":     {"[]"},
		"elevator": {},
		"hedc":     {"Pool.size", "Task.thread_"},
	}
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			got, err := racyFieldNames(b, core.Full())
			if err != nil {
				t.Fatal(err)
			}
			want := cases[b.Name]
			for _, w := range want {
				found := false
				for _, g := range got {
					if g == w {
						found = true
					}
				}
				if !found {
					t.Errorf("missing expected race on %s; got %v", w, got)
				}
			}
			if b.Name == "elevator" && len(got) != 0 {
				t.Errorf("elevator must be race-free, got %v", got)
			}
		})
	}
}

// TestDetectorComparisonShape asserts §8.3/§9's ordering: Eraser and
// object-granularity report supersets of our races; dropping the
// pseudolocks adds spurious reports; the HB baseline reports at most
// what we do.
func TestDetectorComparisonShape(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			count := func(cfg core.Config) int {
				res, err := b.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return len(res.RacyObjects)
			}
			full := count(core.Full())
			noPseudo := core.Full()
			noPseudo.PseudoLocks = false
			np := count(noPseudo)
			eraser := count(core.Full().WithDetector(core.DetEraser))
			objRace := count(core.Full().WithDetector(core.DetObjectRace))
			hb := count(core.Full().WithDetector(core.DetVClock))

			if np < full {
				t.Errorf("NoPseudo (%d) must be >= Full (%d)", np, full)
			}
			if eraser < full {
				t.Errorf("Eraser (%d) must be >= Full (%d)", eraser, full)
			}
			if objRace < full {
				t.Errorf("ObjectRace (%d) must be >= Full (%d)", objRace, full)
			}
			if hb > full {
				t.Errorf("HB (%d) must be <= Full (%d): it misses feasible races, never adds", hb, full)
			}
			switch b.Name {
			case "mtrt", "elevator":
				// The join idiom / lock discipline makes the gap visible.
				if np == full && b.Name == "mtrt" {
					t.Errorf("mtrt: pseudolocks should matter (full=%d nopseudo=%d)", full, np)
				}
			case "sor2", "tsp":
				if eraser <= full {
					t.Errorf("%s: Eraser (%d) should strictly exceed Full (%d)", b.Name, eraser, full)
				}
			}
		})
	}
}

// TestTable2WorkShape asserts the deterministic work counters behind
// Table 2: which ablation hurts which benchmark.
func TestTable2WorkShape(t *testing.T) {
	type work struct {
		traceEvents uint64
		trieEvents  uint64
		slowPath    uint64 // events not absorbed by the cache
	}
	measure := func(t *testing.T, b Benchmark, cfg core.Config) work {
		t.Helper()
		res, err := b.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return work{
			res.Interp.TraceEvents,
			res.DetectorStats.Trie.Events,
			res.DetectorStats.Accesses - res.DetectorStats.CacheHits,
		}
	}

	t.Run("sor2", func(t *testing.T) {
		t.Parallel()
		b, _ := ByName("sor2")
		full := measure(t, b, core.Full())
		noDom := measure(t, b, core.Full().NoDominators())
		noPeel := measure(t, b, core.Full().NoPeeling())
		noCache := measure(t, b, core.Full().NoCache())
		// The static weaker-than elimination + peeling remove the
		// dominant share of sor2's trace events (paper: 316%/226%
		// overhead without them vs 13% full).
		if noDom.traceEvents < 10*full.traceEvents {
			t.Errorf("NoDominators trace events %d vs Full %d: elimination should be ~order-of-magnitude",
				noDom.traceEvents, full.traceEvents)
		}
		if noPeel.traceEvents < 5*full.traceEvents {
			t.Errorf("NoPeeling trace events %d vs Full %d", noPeel.traceEvents, full.traceEvents)
		}
		// The cache matters much less for sor2.
		if noCache.trieEvents < full.trieEvents {
			t.Errorf("NoCache must not reduce trie events")
		}
	})

	t.Run("tsp", func(t *testing.T) {
		t.Parallel()
		b, _ := ByName("tsp")
		full := measure(t, b, core.Full())
		noDom := measure(t, b, core.Full().NoDominators())
		noStatic := measure(t, b, core.Full().NoStatic())
		noCache := measure(t, b, core.Full().NoCache())
		// The cache is tsp's big win (paper: 3722% without it vs
		// 57%/175% for the other ablations): every event skips the
		// ten-instruction hit path and pays the full detector entry.
		// NoCache must dominate the other ablations' slow-path work,
		// and trie-level work must grow substantially. (The margins
		// are below the paper's because the interprocedural weaker-
		// than elimination in Full also trims the ablations' traces.)
		if 2*noCache.slowPath < 3*full.slowPath {
			t.Errorf("NoCache slow-path events %d vs Full %d: cache should absorb most accesses",
				noCache.slowPath, full.slowPath)
		}
		worstOther := noDom.slowPath
		if noStatic.slowPath > worstOther {
			worstOther = noStatic.slowPath
		}
		if 2*noCache.slowPath < 3*worstOther {
			t.Errorf("NoCache slow path %d must dwarf the other ablations (worst other %d)",
				noCache.slowPath, worstOther)
		}
		if noCache.trieEvents < 2*full.trieEvents {
			t.Errorf("NoCache trie events %d vs Full %d", noCache.trieEvents, full.trieEvents)
		}
	})

	t.Run("mtrt", func(t *testing.T) {
		t.Parallel()
		b, _ := ByName("mtrt")
		full := measure(t, b, core.Full())
		noStatic := measure(t, b, core.Full().NoStatic())
		// Static pruning removes the thread-local scratch traffic
		// (paper: mtrt NoStatic ran out of memory). Interprocedural
		// elimination recovers part of the gap for NoStatic, so the
		// margin is tighter than the paper's.
		if 3*noStatic.traceEvents < 4*full.traceEvents {
			t.Errorf("NoStatic trace events %d vs Full %d: static analysis should prune substantially",
				noStatic.traceEvents, full.traceEvents)
		}
	})
}

func TestBenchmarkDeterminism(t *testing.T) {
	b, _ := ByName("tsp")
	r1, err := b.Run(core.Full())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := b.Run(core.Full())
	if err != nil {
		t.Fatal(err)
	}
	if r1.Interp.Steps != r2.Interp.Steps || r1.Output != r2.Output {
		t.Error("same config must reproduce exactly")
	}
	o1 := objStrings(r1.RacyObjects)
	o2 := objStrings(r2.RacyObjects)
	sort.Strings(o1)
	sort.Strings(o2)
	if strings.Join(o1, ",") != strings.Join(o2, ",") {
		t.Error("racy objects differ across identical runs")
	}
}

func objStrings(objs []event.ObjID) []string {
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = o.String()
	}
	return out
}

func TestByName(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark must error")
	}
	b, err := ByName("mtrt")
	if err != nil || b.Name != "mtrt" {
		t.Errorf("ByName(mtrt) = %v, %v", b, err)
	}
	if b.LineCount() < 50 {
		t.Errorf("mtrt LoC = %d, suspiciously small", b.LineCount())
	}
}

// racyFieldNames returns the distinct field names reported racy under
// cfg, sorted.
func racyFieldNames(b Benchmark, cfg core.Config) ([]string, error) {
	res, err := b.Run(cfg)
	if err != nil {
		return nil, err
	}
	set := map[string]struct{}{}
	for _, r := range res.Reports {
		set[r.Access.FieldName] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out, nil
}

// TestReplayCellsMatchLive records every paper benchmark once as a
// binary trace under Full and replays it with serial and with parallel
// segment decode: each replay must find exactly the racy objects the
// live run found.
func TestReplayCellsMatchLive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark")
	}
	for _, b := range All() {
		var buf bytes.Buffer
		cfg := core.Full()
		cfg.TraceTo = &buf
		live, err := b.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := trace.NewReader(buf.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, workers := range []int{1, 0} {
			rr, err := core.ReplayTrace(rd, core.Full(), workers)
			if err != nil {
				t.Fatalf("%s/workers=%d: %v", b.Name, workers, err)
			}
			if rr.Err != nil {
				t.Fatalf("%s/workers=%d: %v", b.Name, workers, rr.Err)
			}
			if got, want := len(rr.RacyObjects), len(live.RacyObjects); got != want {
				t.Errorf("%s/workers=%d: %d racy objects, live run found %d", b.Name, workers, got, want)
			}
			if rr.Interp.TraceEvents == 0 {
				t.Errorf("%s/workers=%d: replay counted no events", b.Name, workers)
			}
		}
	}
}
