package detector

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"racedet/internal/faultinject"
	"racedet/internal/rt/event"
)

// testInjector is a minimal FaultInjector for scenarios that need
// tighter control than the faultinject spec language offers (e.g.
// corrupting every checkpoint of one shard).
type testInjector struct {
	panicShard int
	panicAt    uint64 // 0 = never
	fired      atomic.Bool
	corruptAll bool
	slowEvery  uint64
	slowDelay  time.Duration
	queueFullN atomic.Int64
}

func (i *testInjector) WorkerEvent(shard int, n uint64) {
	if i.slowEvery > 0 && n%i.slowEvery == 0 {
		time.Sleep(i.slowDelay)
	}
	if i.panicAt != 0 && shard == i.panicShard && n == i.panicAt &&
		i.fired.CompareAndSwap(false, true) {
		panic("testInjector: injected worker panic")
	}
}

func (i *testInjector) QueueFull(shard int) bool { return i.queueFullN.Add(-1) >= 0 }

func (i *testInjector) CorruptCheckpoint(shard int) bool {
	return i.corruptAll && shard == i.panicShard
}

func compareReports(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d\ngot:  %v\nwant: %v", label, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: report %d differs\ngot:  %s\nwant: %s", label, i, got[i], want[i])
		}
	}
}

// TestSupervisedPanicMatchesSerial is the core recovery guarantee: a
// worker panic at a seed-chosen shard and event index is recovered by
// checkpoint restore + journal replay, and the merged reports stay
// byte-identical to the serial detector's.
func TestSupervisedPanicMatchesSerial(t *testing.T) {
	anyFired := false
	for seed := int64(0); seed < 10; seed++ {
		serial := New(Options{})
		feedRandom(serial, seed, 3000)
		want := reportStrings(serial)

		plan := faultinject.PanicPlan(seed, 4, 200)
		sh := NewSharded(Options{JournalCap: 32, RetryBudget: 3, Faults: plan}, 4, 16)
		feedRandom(sh, seed, 3000)
		if err := sh.Err(); err != nil {
			t.Fatalf("seed %d: supervised run failed: %v", seed, err)
		}
		compareReports(t, "supervised", reportStrings(sh), want)

		rec := sh.Stats().Recovery
		if plan.Fired() > 0 {
			anyFired = true
			if rec.Restarts == 0 {
				t.Errorf("seed %d: panic fired but no restart recorded", seed)
			}
		}
		if rec.DegradedShards != 0 {
			t.Errorf("seed %d: shard degraded despite retry budget: %+v", seed, rec)
		}
		if rec.Journaled == 0 {
			t.Errorf("seed %d: nothing journaled in supervised mode", seed)
		}
	}
	if !anyFired {
		t.Fatal("no seed fired its panic; the test exercised nothing")
	}
}

// TestRetryBudgetZeroDegrades: with a zero budget the first panic must
// degrade the shard to the Eraser path — the run completes, Err stays
// nil, and the degradation is counted. Never a lost analysis.
func TestRetryBudgetZeroDegrades(t *testing.T) {
	inj := &testInjector{panicShard: 0, panicAt: 50}
	sh := NewSharded(Options{JournalCap: 32, RetryBudget: 0, Faults: inj}, 4, 16)
	feedRandom(sh, 2, 3000)
	if err := sh.Err(); err != nil {
		t.Fatalf("degraded run must not fail: %v", err)
	}
	rec := sh.Stats().Recovery
	if !inj.fired.Load() {
		t.Fatal("panic never fired; scenario too small")
	}
	if rec.DegradedShards != 1 {
		t.Fatalf("DegradedShards = %d, want 1 (%+v)", rec.DegradedShards, rec)
	}
	if rec.Restarts != 0 {
		t.Errorf("Restarts = %d, want 0 with zero budget", rec.Restarts)
	}
	if rec.DegradedEvents == 0 {
		t.Error("degraded shard processed no events; the Eraser path never ran")
	}
	// The merged result is still a usable analysis.
	if sh.Stats().Accesses == 0 {
		t.Error("stats lost after degradation")
	}
	_ = sh.Reports()
	_ = sh.RacyObjects()
}

// TestCheckpointCorruptionDegrades: a restore that finds its
// checkpoint corrupt must degrade (counted) rather than replay onto
// bad state — even with retry budget left.
func TestCheckpointCorruptionDegrades(t *testing.T) {
	inj := &testInjector{panicShard: 0, panicAt: 200, corruptAll: true}
	sh := NewSharded(Options{JournalCap: 4, RetryBudget: 3, Faults: inj}, 2, 4)
	feedRandom(sh, 5, 3000)
	if err := sh.Err(); err != nil {
		t.Fatalf("run must complete: %v", err)
	}
	rec := sh.Stats().Recovery
	if !inj.fired.Load() {
		t.Fatal("panic never fired")
	}
	if rec.Checkpoints == 0 {
		t.Fatal("no checkpoints taken; JournalCap too large for the stream")
	}
	if rec.CheckpointCorruptions != 1 {
		t.Errorf("CheckpointCorruptions = %d, want 1 (%+v)", rec.CheckpointCorruptions, rec)
	}
	if rec.DegradedShards != 1 {
		t.Errorf("DegradedShards = %d, want 1 (%+v)", rec.DegradedShards, rec)
	}
}

// TestDropPolicyAccounting: under the lossy backpressure policy,
// injected queue fullness drops access batches with exact accounting
// and the run still completes cleanly.
func TestDropPolicyAccounting(t *testing.T) {
	inj := &testInjector{}
	inj.queueFullN.Store(25)
	sh := NewSharded(Options{DropOnBackpressure: true, QueueDepth: 2, Faults: inj}, 2, 8)
	feedRandom(sh, 3, 3000)
	if err := sh.Err(); err != nil {
		t.Fatalf("drop-policy run failed: %v", err)
	}
	rec := sh.Stats().Recovery
	if rec.DroppedBatches == 0 || rec.DroppedEvents == 0 {
		t.Fatalf("injected fullness dropped nothing: %+v", rec)
	}
	if rec.DroppedEvents < rec.DroppedBatches {
		t.Errorf("accounting inconsistent: %d events < %d batches", rec.DroppedEvents, rec.DroppedBatches)
	}
	if rec.BackpressureStalls != 0 {
		t.Errorf("drop policy must not stall, got %d", rec.BackpressureStalls)
	}
}

// TestBlockPolicyStalls: with the default blocking policy, injected
// fullness is counted as stalls and never drops anything — the reports
// stay byte-identical to serial.
func TestBlockPolicyStalls(t *testing.T) {
	serial := New(Options{})
	feedRandom(serial, 4, 3000)
	want := reportStrings(serial)

	inj := &testInjector{}
	inj.queueFullN.Store(25)
	sh := NewSharded(Options{QueueDepth: 2, Faults: inj}, 2, 8)
	feedRandom(sh, 4, 3000)
	if err := sh.Err(); err != nil {
		t.Fatalf("block-policy run failed: %v", err)
	}
	compareReports(t, "block policy", reportStrings(sh), want)
	rec := sh.Stats().Recovery
	if rec.BackpressureStalls == 0 {
		t.Errorf("injected fullness produced no stall accounting: %+v", rec)
	}
	if rec.DroppedBatches != 0 || rec.DroppedEvents != 0 {
		t.Errorf("block policy dropped batches: %+v", rec)
	}
}

// TestSlowWorkerStillExact: a slow shard exercises real queue
// backpressure (bounded depth) without changing any result.
func TestSlowWorkerStillExact(t *testing.T) {
	serial := New(Options{})
	feedRandom(serial, 6, 2000)
	want := reportStrings(serial)

	inj := &testInjector{slowEvery: 100, slowDelay: time.Millisecond}
	sh := NewSharded(Options{JournalCap: 32, RetryBudget: 1, QueueDepth: 2, Faults: inj}, 2, 8)
	feedRandom(sh, 6, 2000)
	if err := sh.Err(); err != nil {
		t.Fatalf("slow-worker run failed: %v", err)
	}
	compareReports(t, "slow worker", reportStrings(sh), want)
}

// TestUnsupervisedPanicsAggregate: without journaling (JournalCap 0),
// worker panics are fatal per shard, and Err must surface every
// failure, not just the first.
func TestUnsupervisedPanicsAggregate(t *testing.T) {
	plan, err := faultinject.Parse("panic:shard=0,event=20;panic:shard=1,event=20")
	if err != nil {
		t.Fatal(err)
	}
	sh := NewSharded(Options{Faults: plan}, 2, 8)
	feedRandom(sh, 1, 3000)
	got := sh.Err()
	if got == nil {
		t.Fatal("two dead shards but Err() == nil")
	}
	for _, frag := range []string{"shard 0", "shard 1"} {
		if !strings.Contains(got.Error(), frag) {
			t.Errorf("Err() = %q, missing %q", got, frag)
		}
	}
}

// TestErrConcurrentPolling: Err (and the other result accessors) must
// be safe to call from multiple goroutines — the first caller
// finalizes, the rest must neither race nor double-finalize.
func TestErrConcurrentPolling(t *testing.T) {
	sh := NewSharded(Options{JournalCap: 64, RetryBudget: 1}, 4, 16)
	feedRandom(sh, 8, 2000)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = sh.Err()
			_ = sh.Stats()
			_ = sh.Reports()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("poller %d: %v", i, err)
		}
	}
}

// TestJournalCheckpointCounters: an undisturbed supervised run still
// journals and checkpoints (that is the cost of the insurance), and
// remains byte-identical to serial.
func TestJournalCheckpointCounters(t *testing.T) {
	serial := New(Options{})
	feedRandom(serial, 9, 3000)
	want := reportStrings(serial)

	sh := NewSharded(Options{JournalCap: 8, RetryBudget: 2}, 2, 8)
	feedRandom(sh, 9, 3000)
	if err := sh.Err(); err != nil {
		t.Fatal(err)
	}
	compareReports(t, "supervised undisturbed", reportStrings(sh), want)
	rec := sh.Stats().Recovery
	if rec.Journaled == 0 || rec.Checkpoints == 0 {
		t.Fatalf("supervision bookkeeping missing: %+v", rec)
	}
	if rec.Restarts != 0 || rec.Replayed != 0 || rec.DegradedShards != 0 {
		t.Fatalf("undisturbed run recorded recovery work: %+v", rec)
	}
}

// TestDegradedStillReportsKnownRace: a deliberately racy fixed
// scenario must still be reported by a shard that degraded before the
// racing accesses — the Eraser path is a detector, not a bit bucket.
func TestDegradedStillReportsKnownRace(t *testing.T) {
	run := func(b *Detector) {
		b.ThreadStarted(0, event.NoThread)
		b.ThreadStarted(1, 0)
		loc := event.Loc{Obj: 100, Slot: 0}
		for i := 0; i < 40; i++ {
			th := event.ThreadID(i % 2)
			b.Access(event.Access{Loc: loc, Thread: th, Kind: event.Write, FieldName: "X.f"})
		}
		b.ThreadFinished(1)
		b.ThreadFinished(0)
	}
	inj := &testInjector{panicShard: 0, panicAt: 1} // panic on the very first access
	sh := NewSharded(Options{JournalCap: 16, RetryBudget: 0, Faults: inj}, 1, 4)
	run(sh)
	if err := sh.Err(); err != nil {
		t.Fatal(err)
	}
	rec := sh.Stats().Recovery
	if rec.DegradedShards != 1 {
		t.Fatalf("shard did not degrade: %+v", rec)
	}
	if len(sh.Reports()) == 0 {
		t.Fatal("unprotected two-thread write-write race lost by the degraded path")
	}
}
