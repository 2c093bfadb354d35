package detector

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"racedet/internal/rt/event"
)

// script drives a detector through a thread lifecycle and access
// scenario without the interpreter.
type script struct {
	d *Detector
}

func newScript(opts Options) *script {
	d := New(opts)
	d.ThreadStarted(0, event.NoThread)
	return &script{d: d}
}

func (s *script) spawn(t event.ThreadID, parent event.ThreadID) { s.d.ThreadStarted(t, parent) }
func (s *script) finish(t event.ThreadID)                       { s.d.ThreadFinished(t) }
func (s *script) join(joiner, joinee event.ThreadID)            { s.d.Joined(joiner, joinee) }
func (s *script) lock(t event.ThreadID, l event.ObjID)          { s.d.MonitorEnter(t, l, 1) }
func (s *script) unlock(t event.ThreadID, l event.ObjID)        { s.d.MonitorExit(t, l, 0) }
func (s *script) access(t event.ThreadID, obj int64, slot int32, k event.Kind) {
	s.d.Access(event.Access{
		Loc:       event.Loc{Obj: event.ObjID(obj), Slot: slot},
		Thread:    t,
		Kind:      k,
		FieldName: "F.f",
	})
}

func TestFullPipelineDetectsRace(t *testing.T) {
	s := newScript(Options{})
	s.spawn(1, 0)
	s.spawn(2, 0)
	// Main initializes (owner), children write without locks.
	s.access(0, 10, 0, event.Write)
	s.access(1, 10, 0, event.Write) // shared transition
	s.access(2, 10, 0, event.Write) // race
	reports := s.d.Reports()
	if len(reports) != 1 {
		t.Fatalf("reports = %v", reports)
	}
	if got := s.d.RacyObjects(); len(got) != 1 || got[0] != 10 {
		t.Fatalf("racy objects = %v", got)
	}
}

func TestOwnershipAbsorbsHandoff(t *testing.T) {
	s := newScript(Options{})
	s.spawn(1, 0)
	// Main initializes, a single child uses it afterwards: no race.
	s.access(0, 10, 0, event.Write)
	s.access(0, 10, 0, event.Write)
	s.access(1, 10, 0, event.Write)
	s.access(1, 10, 0, event.Read)
	if n := len(s.d.Reports()); n != 0 {
		t.Fatalf("handoff must be quiet, got %d reports", n)
	}
	st := s.d.Stats()
	if st.OwnerSkips == 0 {
		t.Error("ownership filter never engaged")
	}
}

func TestNoOwnershipReportsHandoff(t *testing.T) {
	s := newScript(Options{NoOwnership: true})
	s.spawn(1, 0)
	s.access(0, 10, 0, event.Write)
	s.access(1, 10, 0, event.Read)
	if n := len(s.d.Reports()); n != 1 {
		t.Fatalf("NoOwnership should report the init handoff, got %d", n)
	}
}

func TestJoinPseudolocksSuppressPostJoinReads(t *testing.T) {
	// The §8.3 mtrt idiom: children write under a common lock, parent
	// reads after joining both, with no lock.
	run := func(opts Options) int {
		s := newScript(opts)
		s.spawn(1, 0)
		s.spawn(2, 0)
		const lock = 100
		// Both children touch the stats object under the common lock.
		s.lock(1, lock)
		s.access(1, 10, 0, event.Write)
		s.unlock(1, lock)
		s.lock(2, lock)
		s.access(2, 10, 0, event.Write)
		s.unlock(2, lock)
		s.finish(1)
		s.finish(2)
		s.join(0, 1)
		s.join(0, 2)
		// Parent reads with no lock.
		s.access(0, 10, 0, event.Read)
		return len(s.d.Reports())
	}
	if n := run(Options{}); n != 0 {
		t.Errorf("with pseudolocks: %d reports, want 0 (locksets are mutually intersecting)", n)
	}
	if n := run(Options{NoPseudoLocks: true}); n == 0 {
		t.Error("without pseudolocks the parent read must race")
	}
}

func TestFieldsMergedConflatesSlots(t *testing.T) {
	// Slot 0 written by T1 only, slot 1 read by T2 only: quiet per
	// field, racy when merged.
	run := func(opts Options) int {
		s := newScript(opts)
		s.spawn(1, 0)
		s.spawn(2, 0)
		s.access(1, 10, 0, event.Write)
		s.access(2, 10, 1, event.Read)
		s.access(1, 10, 0, event.Write)
		s.access(2, 10, 1, event.Read)
		return len(s.d.Reports())
	}
	if n := run(Options{}); n != 0 {
		t.Errorf("per-field: %d reports, want 0", n)
	}
	if n := run(Options{FieldsMerged: true}); n == 0 {
		t.Error("merged fields must conflate the slots into a race")
	}
}

func TestFieldsMergedKeepsStaticsDistinct(t *testing.T) {
	// Two static slots of the same class object, each used by one
	// thread: must stay quiet even under FieldsMerged.
	s := newScript(Options{FieldsMerged: true})
	s.spawn(1, 0)
	s.spawn(2, 0)
	s.access(1, 10, event.StaticSlot(0), event.Write)
	s.access(2, 10, event.StaticSlot(1), event.Write)
	s.access(1, 10, event.StaticSlot(0), event.Write)
	s.access(2, 10, event.StaticSlot(1), event.Write)
	if n := len(s.d.Reports()); n != 0 {
		t.Fatalf("static fields must stay distinct under FieldsMerged, got %d reports", n)
	}
}

func TestReportDedupPerLocation(t *testing.T) {
	s := newScript(Options{})
	s.spawn(1, 0)
	s.spawn(2, 0)
	for i := 0; i < 5; i++ {
		s.access(1, 10, 0, event.Write)
		s.access(2, 10, 0, event.Write)
	}
	if n := len(s.d.Reports()); n != 1 {
		t.Fatalf("default reporting is once per location, got %d", n)
	}

	// ReportAll reports each distinct racing access (accesses subsumed
	// by the weaker-than filter are still skipped — that is the
	// algorithm, not the reporting policy).
	scenario := func(opts Options) int {
		s := newScript(opts)
		s.spawn(1, 0)
		s.spawn(2, 0)
		s.access(0, 10, 0, event.Write) // main owns the location
		s.lock(1, 100)
		s.access(1, 10, 0, event.Write) // shared transition; stored under {100}
		s.unlock(1, 100)
		s.lock(2, 200)
		s.access(2, 10, 0, event.Write) // races; stored under {200}
		s.unlock(2, 200)
		s.access(1, 10, 0, event.Write) // new lockset {}: races again
		return len(s.d.Reports())
	}
	if n := scenario(Options{ReportAll: true}); n != 2 {
		t.Fatalf("ReportAll: got %d reports, want 2", n)
	}
	if n := scenario(Options{}); n != 1 {
		t.Fatalf("dedup: got %d reports, want 1", n)
	}
}

func TestCacheConsistencyAcrossConfigs(t *testing.T) {
	// §7.2's experimental claim: the same races are reported whether
	// the cache is enabled or not. Exercise a scenario with lock
	// acquire/release cycles and shared transitions.
	run := func(opts Options) []event.ObjID {
		s := newScript(opts)
		s.spawn(1, 0)
		s.spawn(2, 0)
		const lock = 100
		for i := 0; i < 4; i++ {
			s.access(0, 20, 0, event.Write) // main-owned
			s.lock(1, lock)
			s.access(1, 10, 0, event.Write)
			s.access(1, 20, 0, event.Read) // shares 20
			s.unlock(1, lock)
			s.access(2, 10, 0, event.Write) // no lock: races with T1's locked writes
			s.access(2, 20, 0, event.Read)
		}
		return s.d.RacyObjects()
	}
	with := run(Options{})
	without := run(Options{NoCache: true})
	if len(with) != len(without) {
		t.Fatalf("cache changes the reports: with=%v without=%v", with, without)
	}
	for i := range with {
		if with[i] != without[i] {
			t.Fatalf("cache changes the reports: with=%v without=%v", with, without)
		}
	}
	if len(with) == 0 {
		t.Fatal("scenario should produce at least one race")
	}
}

func TestSharedTransitionEvictsCaches(t *testing.T) {
	// The owner caches its accesses; when the location becomes shared
	// the cached entries must not suppress the owner's next access.
	s := newScript(Options{})
	s.spawn(1, 0)
	s.access(0, 10, 0, event.Write) // owner main, cached
	s.access(0, 10, 0, event.Write) // cache hit
	s.access(1, 10, 0, event.Write) // shared; must evict main's entry
	s.access(0, 10, 0, event.Write) // must reach the trie → race with T1
	if n := len(s.d.Reports()); n != 1 {
		t.Fatalf("reports = %d, want 1 (owner's post-share access must not be cache-suppressed)", n)
	}
}

func TestDescribeObjInReports(t *testing.T) {
	d := New(Options{NoOwnership: true})
	d.SetDescribeObj(func(o event.ObjID) string { return "OBJ" + o.String() })
	d.ThreadStarted(0, event.NoThread)
	d.ThreadStarted(1, 0)
	d.Access(event.Access{Loc: event.Loc{Obj: 5, Slot: 0}, Thread: 0, Kind: event.Write})
	d.Access(event.Access{Loc: event.Loc{Obj: 5, Slot: 0}, Thread: 1, Kind: event.Write})
	reports := d.Reports()
	if len(reports) != 1 || reports[0].ObjDesc != "OBJo5" {
		t.Fatalf("reports = %v", reports)
	}
}

func TestStatsPlumbing(t *testing.T) {
	s := newScript(Options{})
	s.spawn(1, 0)
	s.access(0, 10, 0, event.Write)
	s.access(0, 10, 0, event.Write)
	st := s.d.Stats()
	if st.Accesses != 2 {
		t.Errorf("accesses = %d", st.Accesses)
	}
	if st.CacheHits != 1 {
		t.Errorf("cache hits = %d (second identical access should hit)", st.CacheHits)
	}
}

// feedRandom drives a sink through a pseudo-random but deterministic
// event stream with threads, locks, shared objects, and join edges —
// dense enough to exercise caches, ownership transitions, and the trie.
func feedRandom(s event.Sink, seed int64, events int) {
	rng := rand.New(rand.NewSource(seed))
	const nThreads = 4
	const nObjs = 12
	const nLocks = 3
	s.ThreadStarted(0, event.NoThread)
	for t := event.ThreadID(1); t < nThreads; t++ {
		s.ThreadStarted(t, 0)
	}
	held := make([][]event.ObjID, nThreads) // lock stacks per thread
	for i := 0; i < events; i++ {
		t := event.ThreadID(rng.Intn(nThreads))
		switch op := rng.Intn(10); {
		case op < 6: // access
			obj := event.ObjID(100 + rng.Intn(nObjs))
			slot := int32(rng.Intn(3))
			kind := event.Read
			if rng.Intn(2) == 0 {
				kind = event.Write
			}
			s.Access(event.Access{
				Loc:       event.Loc{Obj: obj, Slot: slot},
				Thread:    t,
				Kind:      kind,
				FieldName: "F.f",
			})
		case op < 8: // lock
			if len(held[t]) < 2 {
				l := event.ObjID(500 + rng.Intn(nLocks))
				dup := false
				for _, h := range held[t] {
					if h == l {
						dup = true
					}
				}
				if !dup {
					held[t] = append(held[t], l)
					s.MonitorEnter(t, l, 1)
				}
			}
		default: // unlock (LIFO)
			if n := len(held[t]); n > 0 {
				l := held[t][n-1]
				held[t] = held[t][:n-1]
				s.MonitorExit(t, l, 0)
			}
		}
	}
	for t := event.ThreadID(0); t < nThreads; t++ {
		for n := len(held[t]); n > 0; n-- {
			s.MonitorExit(t, held[t][n-1], 0)
		}
	}
	for t := event.ThreadID(1); t < nThreads; t++ {
		s.ThreadFinished(t)
		s.Joined(0, t)
	}
	s.ThreadFinished(0)
}

func reportStrings(b *Detector) []string {
	var out []string
	for _, r := range b.Reports() {
		out = append(out, r.String())
	}
	return out
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

// runSink hands its Detector each run of consecutive accesses by one
// thread in one AccessBatch call, cutting the run at every other
// callback, as trace replay delivers an access block.
type runSink struct {
	*Detector
	run []event.Access
}

func (r *runSink) flush() {
	if len(r.run) > 0 {
		r.Detector.AccessBatch(r.run)
		r.run = r.run[:0]
	}
}

func (r *runSink) Access(a event.Access) {
	if len(r.run) > 0 && r.run[0].Thread != a.Thread {
		r.flush()
	}
	r.run = append(r.run, a)
}

func (r *runSink) ThreadStarted(c, p event.ThreadID) { r.flush(); r.Detector.ThreadStarted(c, p) }
func (r *runSink) ThreadFinished(t event.ThreadID)   { r.flush(); r.Detector.ThreadFinished(t) }
func (r *runSink) Joined(a, b event.ThreadID)        { r.flush(); r.Detector.Joined(a, b) }
func (r *runSink) MonitorEnter(t event.ThreadID, l event.ObjID, d int) {
	r.flush()
	r.Detector.MonitorEnter(t, l, d)
}
func (r *runSink) MonitorExit(t event.ThreadID, l event.ObjID, d int) {
	r.flush()
	r.Detector.MonitorExit(t, l, d)
}

// TestBatchedProducerMatchesUnbatched: delivering per-thread runs
// through Detector.AccessBatch, as trace replay does, must give the
// same reports and counters as per-access delivery.
func TestBatchedProducerMatchesUnbatched(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		plain := New(Options{})
		feedRandom(plain, seed, 3000)

		batched := &runSink{Detector: New(Options{})}
		feedRandom(batched, seed, 3000)

		label := fmt.Sprintf("seed%d", seed)
		compareReports(t, label, reportStrings(batched.Detector), reportStrings(plain))
		if got, want := batched.Stats(), plain.Stats(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: stats diverge\nbatched: %+v\nplain:   %+v", label, got, want)
		}
	}
}

// readingSink feeds its Detector and reads every result after each
// 97th access.
type readingSink struct {
	*Detector
	t      *testing.T
	n      int
	fewest int // reports at the first read
}

func (r *readingSink) Access(a event.Access) {
	r.Detector.Access(a)
	if r.n++; r.n%97 != 0 {
		return
	}
	reports := len(r.Reports())
	if r.fewest < 0 {
		r.fewest = reports
	}
	_ = r.RacyObjects()
	_ = r.Stats()
	_ = r.TrieNodeCount()
	_ = r.TrieLocationCount()
}

// TestInlineAccessorsDoNotLatch: the result accessors read live state
// and end nothing, so reading every result
// repeatedly partway through the stream and feeding on must give the
// same final results as one uninterrupted run.
func TestInlineAccessorsDoNotLatch(t *testing.T) {
	for name, opts := range map[string]Options{"full": {}, "sampled": {SampleK: 2}} {
		for seed := int64(0); seed < 3; seed++ {
			whole := New(opts)
			feedRandomSited(whole, seed, 3000)
			read := &readingSink{Detector: New(opts), t: t, fewest: -1}
			feedRandomSited(read, seed, 3000)

			label := fmt.Sprintf("%s/seed%d", name, seed)
			compareReports(t, label, reportStrings(read.Detector), reportStrings(whole))
			if len(read.Reports()) <= read.fewest {
				t.Fatalf("%s: no reports after the first read; the stream cannot show latching", label)
			}
			if got, want := read.Stats(), whole.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: stats diverge\nread:  %+v\nwhole: %+v", label, got, want)
			}
			if got, want := read.RacyObjects(), whole.RacyObjects(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: racy objects %v, want %v", label, got, want)
			}
			if read.TrieNodeCount() != whole.TrieNodeCount() {
				t.Fatalf("%s: trie nodes %d, want %d", label, read.TrieNodeCount(), whole.TrieNodeCount())
			}
		}
	}
}
