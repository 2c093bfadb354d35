package bench

import (
	"testing"

	"racedet/internal/core"
)

// TestReplayCellsMatchLive pins the replay axis's correctness claim:
// for every paper benchmark, replaying the recorded trace through each
// replay configuration finds exactly the racy objects the live run
// found — the measured cells are not allowed to drift from the
// detector they benchmark.
func TestReplayCellsMatchLive(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every benchmark")
	}
	cells, err := replayCells()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]int)
	for _, b := range All() {
		res, err := core.RunSource(b.Name+".mj", b.Source(), core.Full())
		if err != nil {
			t.Fatalf("live %s: %v", b.Name, err)
		}
		want[b.Name] = len(res.RacyObjects)
	}
	if len(cells) != 2*len(All()) {
		t.Fatalf("replayCells built %d cells, want %d", len(cells), 2*len(All()))
	}
	for _, cl := range cells {
		if cl.traceBytes == 0 {
			t.Errorf("%s/%s: empty trace", cl.bench, cl.cfgName)
		}
		rr, err := core.ReplayTrace(cl.rd, cl.cfg, cl.workers)
		if err != nil {
			t.Fatalf("%s/%s: %v", cl.bench, cl.cfgName, err)
		}
		if rr.Err != nil {
			t.Fatalf("%s/%s: %v", cl.bench, cl.cfgName, rr.Err)
		}
		if got := len(rr.RacyObjects); got != want[cl.bench] {
			t.Errorf("%s/%s: %d racy objects, live run found %d",
				cl.bench, cl.cfgName, got, want[cl.bench])
		}
		if rr.Interp.TraceEvents == 0 {
			t.Errorf("%s/%s: replay counted no events", cl.bench, cl.cfgName)
		}
	}
}

func TestEventsPerSec(t *testing.T) {
	if got := eventsPerSec(1000, 1_000_000); got != 1_000_000 {
		t.Errorf("eventsPerSec(1000, 1e6 ns) = %d, want 1000000", got)
	}
	if got := eventsPerSec(0, 100); got != 0 {
		t.Errorf("zero events: got %d", got)
	}
	if got := eventsPerSec(100, 0); got != 0 {
		t.Errorf("zero ns: got %d", got)
	}
}
