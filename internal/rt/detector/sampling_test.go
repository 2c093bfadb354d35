package detector

import (
	"math/rand"
	"testing"

	"racedet/internal/lang/token"
	"racedet/internal/rt/event"
)

// feedRandomSited is feedRandom with distinct source positions per
// (object, slot, kind) choice, so the throttling layer sees a realistic
// population of static sites instead of one merged site.
func feedRandomSited(s event.Sink, seed int64, events int) {
	rng := rand.New(rand.NewSource(seed))
	const nThreads = 4
	const nObjs = 12
	const nLocks = 3
	s.ThreadStarted(0, event.NoThread)
	for t := event.ThreadID(1); t < nThreads; t++ {
		s.ThreadStarted(t, 0)
	}
	held := make([][]event.ObjID, nThreads)
	for i := 0; i < events; i++ {
		t := event.ThreadID(rng.Intn(nThreads))
		switch op := rng.Intn(10); {
		case op < 6:
			obj := event.ObjID(100 + rng.Intn(nObjs))
			slot := int32(rng.Intn(3))
			kind := event.Read
			if rng.Intn(2) == 0 {
				kind = event.Write
			}
			// One "instruction" per (obj, slot): a plausible site count.
			line := int32(obj)*10 + slot
			s.Access(event.Access{
				Loc:       event.Loc{Obj: obj, Slot: slot},
				Thread:    t,
				Kind:      kind,
				FieldName: "F.f",
				Pos:       token.Pos{File: "rand.mj", Line: line, Col: 1},
			})
		case op < 8:
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
		default:
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

// TestSamplingAccountingInvariant pins the documented invariant: every
// observed event is either shipped to the trie or absorbed by exactly
// one filter layer (cache, ownership, or the throttling stubs).
func TestSamplingAccountingInvariant(t *testing.T) {
	for _, opts := range []Options{
		{}, // unsampled runs satisfy it too (Suppressed = 0)
		{SampleK: 2},
		{SampleK: 4, SampleBudget: 0.2},
	} {
		for seed := int64(0); seed < 3; seed++ {
			d := New(opts)
			feedRandomSited(d, seed, 4000)
			s := d.Stats()
			if s.Accesses != s.Shipped+s.CacheHits+s.OwnerSkips+s.Sample.Suppressed {
				t.Fatalf("k%d/seed%d: invariant broken: accesses=%d shipped=%d cache=%d owner=%d suppressed=%d",
					opts.SampleK, seed, s.Accesses, s.Shipped, s.CacheHits, s.OwnerSkips, s.Sample.Suppressed)
			}
			// No suppression floor here: the random stream is write-heavy
			// cross-thread traffic, which is racy-shaped against the
			// shipped history and must keep shipping. The suppression win
			// is pinned by TestSamplingSuppressesHotStableTraffic.
		}
	}
}

// TestSamplingSuppressesHotStableTraffic drives the throttling win
// scenario: one thread hammering a shared location under lock churn
// (which defeats the §4 cache) must demote after K observations and
// stop shipping, while the accounting still adds up.
func TestSamplingSuppressesHotStableTraffic(t *testing.T) {
	d := New(Options{SampleK: 4})
	loc := event.Loc{Obj: 100, Slot: 0}
	site := token.Pos{File: "hot.mj", Line: 10, Col: 1}
	d.ThreadStarted(0, event.NoThread)
	d.ThreadStarted(1, 0)
	d.ThreadStarted(2, 0)
	// Make the location shared (contact by thread 2, then back off).
	d.Access(event.Access{Loc: loc, Thread: 2, Kind: event.Write, Pos: token.Pos{File: "hot.mj", Line: 5, Col: 1}, FieldName: "H.f"})
	d.Access(event.Access{Loc: loc, Thread: 1, Kind: event.Write, Pos: site, FieldName: "H.f"})
	// Thread 1 hammers the shared location from one site; the lock
	// cycle evicts any cache entry between iterations.
	for i := 0; i < 100; i++ {
		d.MonitorEnter(1, 500, 1)
		d.Access(event.Access{Loc: loc, Thread: 1, Kind: event.Write, Pos: site, FieldName: "H.f"})
		d.MonitorExit(1, 500, 0)
	}
	s := d.Stats()
	if s.Sample.Demotions == 0 {
		t.Fatalf("hot stable site never demoted: %+v", s.Sample)
	}
	if s.Sample.Suppressed < 80 {
		t.Fatalf("suppressed only %d of ~100 hot accesses: %+v", s.Sample.Suppressed, s.Sample)
	}
	if s.Accesses != s.Shipped+s.CacheHits+s.OwnerSkips+s.Sample.Suppressed {
		t.Fatalf("invariant broken: %+v", s)
	}
}

// TestSamplingNeverMissesStableRaceAfterDemotion is the re-arm
// guarantee in miniature: a site demotes on owner-absorbed traffic,
// then a second thread races on the same location. The ownership
// contact arms the location, so the demoted site's next access ships
// and the race is reported — with the same verdict as the unsampled
// run.
func TestSamplingNeverMissesStableRaceAfterDemotion(t *testing.T) {
	run := func(opts Options) []string {
		d := New(opts)
		locX := event.Loc{Obj: 100, Slot: 0}
		s1 := token.Pos{File: "r.mj", Line: 1, Col: 1} // thread 1's site
		s2 := token.Pos{File: "r.mj", Line: 2, Col: 1} // thread 2's site
		d.ThreadStarted(0, event.NoThread)
		d.ThreadStarted(1, 0)
		d.ThreadStarted(2, 0)
		// Phase 1: thread 1 owns the location and hammers it; under
		// sampling, site s1 demotes (owner-absorbed clean observations).
		for i := 0; i < 10; i++ {
			d.Access(event.Access{Loc: locX, Thread: 1, Kind: event.Write, Pos: s1, FieldName: "R.x"})
		}
		// Phase 2: thread 2 touches it — contact — then thread 1's
		// demoted site writes again: must ship and race.
		d.Access(event.Access{Loc: locX, Thread: 2, Kind: event.Write, Pos: s2, FieldName: "R.x"})
		d.Access(event.Access{Loc: locX, Thread: 1, Kind: event.Write, Pos: s1, FieldName: "R.x"})
		return reportStrings(d)
	}
	want := run(Options{})
	if len(want) == 0 {
		t.Fatal("scenario must race unsampled")
	}
	got := run(Options{SampleK: 2})
	compareReports(t, "stable race under sampling", got, want)
}

// TestSamplingCrossThreadRefusalShips covers the already-shared side
// of the coverage guarantee: both racing sites demote while the
// location is already shared (so no ownership contact will ever fire
// again); the write-aware suppression rules must refuse to hide the
// cross-thread writes, so the recurring pair ships through the stubs
// and still reports.
func TestSamplingCrossThreadRefusalShips(t *testing.T) {
	d := New(Options{SampleK: 2})
	loc := event.Loc{Obj: 100, Slot: 0}
	s1 := token.Pos{File: "x.mj", Line: 1, Col: 1}
	s2 := token.Pos{File: "x.mj", Line: 2, Col: 1}
	lk := event.ObjID(500)
	d.ThreadStarted(0, event.NoThread)
	d.ThreadStarted(1, 0)
	d.ThreadStarted(2, 0)
	// Make the location shared under a common lock (no race yet), and
	// let both sites demote on their stable locked traffic.
	acc := func(t event.ThreadID, pos token.Pos) {
		d.MonitorEnter(t, lk, 1)
		d.Access(event.Access{Loc: loc, Thread: t, Kind: event.Write, Pos: pos, FieldName: "X.f"})
		d.MonitorExit(t, lk, 0)
	}
	for i := 0; i < 6; i++ {
		acc(1, s1)
	}
	for i := 0; i < 6; i++ {
		acc(2, s2)
	}
	// Both sites are now demoted. The race begins: thread 1 writes
	// without the lock from its demoted site — never suppressed
	// (thread 2's shipped writes are foreign history) — and thread 2's
	// locked writes keep shipping the same way. The unlocked/locked
	// pair meets in the trie and must report.
	d.Access(event.Access{Loc: loc, Thread: 1, Kind: event.Write, Pos: s1, FieldName: "X.f"})
	acc(2, s2)
	d.Access(event.Access{Loc: loc, Thread: 1, Kind: event.Write, Pos: s1, FieldName: "X.f"})
	if len(d.Reports()) == 0 {
		t.Fatalf("recurring unlocked/locked race lost under sampling: %+v", d.Stats().Sample)
	}
}

// TestSamplingQuickCheckDisabled: the interpreter's inlined fast path
// must be off under sampling so the filter sees the complete stream
// (live runs must match trace replays event for event).
func TestSamplingQuickCheckDisabled(t *testing.T) {
	d := New(Options{SampleK: 4})
	d.ThreadStarted(0, event.NoThread)
	loc := event.Loc{Obj: 100, Slot: 0}
	d.Access(event.Access{Loc: loc, Thread: 0, Kind: event.Read, FieldName: "Q.f"})
	if d.QuickCheck(0, loc, event.Read) {
		t.Fatal("QuickCheck must be disabled under sampling")
	}
}

// TestSamplingIgnoredUnderNoOwnership: without the ownership filter
// there is no contact signal, so throttling silently disables rather
// than degrade to maybe-miss.
func TestSamplingIgnoredUnderNoOwnership(t *testing.T) {
	d := New(Options{SampleK: 2, NoOwnership: true})
	if d.sites != nil {
		t.Fatal("sampling must be disabled under NoOwnership")
	}
	if _, on := samplingConfig(Options{SampleBudget: 0.5}); !on {
		t.Fatal("budget alone must enable sampling")
	}
}

// TestSamplingKeepsRaceOnConsistentlyLockedLocation pins a sampled
// miss: T1 and T2 write x under lock m (no race between them), then T3
// writes x holding no lock at a demoted site. The trie reports T3's
// write, so the sampled detector must ship it. A location counts as
// settled only once the trie has reported on it; two shipped writes
// from distinct threads prove nothing while both held a common lock.
// Under ReportAll a report settles nothing: T4's later unlocked write
// at a demoted site is one more report.
func TestSamplingKeepsRaceOnConsistentlyLockedLocation(t *testing.T) {
	x := event.Loc{Obj: 100, Slot: 0}
	pos := func(line int32) token.Pos { return token.Pos{File: "x.mj", Line: line, Col: 1} }
	for _, opts := range []Options{{}, {SampleK: 2}, {SampleK: 2, SampleBudget: 0.25}} {
		for _, all := range []bool{false, true} {
			opts.ReportAll = all
			d := New(opts)
			write := func(th event.ThreadID, loc event.Loc) {
				d.Access(event.Access{Loc: loc, Thread: th, Kind: event.Write, Pos: pos(int32(th)), FieldName: "X.f"})
			}
			d.ThreadStarted(0, event.NoThread)
			for th := event.ThreadID(1); th <= 4; th++ {
				d.ThreadStarted(th, 0)
			}
			// Demote the sites of T2, T3 and T4 on thread-local objects.
			for i := 0; i < 2; i++ {
				for th := event.ThreadID(2); th <= 4; th++ {
					write(th, event.Loc{Obj: event.ObjID(100*int(th) + 1 + i)})
				}
			}
			locked := func(th event.ThreadID) {
				d.MonitorEnter(th, 500, 1)
				write(th, x)
				d.MonitorExit(th, 500, 0)
			}
			locked(1) // x owned by T1
			locked(2) // x becomes shared; T2's write ships
			locked(1) // T1's write ships: two shipped writers, one lock
			write(3, x)
			write(4, x)
			want := 1
			if all {
				want = 2
			}
			if got := len(d.Reports()); got != want {
				t.Errorf("k=%d budget=%v all=%v: %d reports, want %d (T3's and T4's unlocked writes race with the locked writes)",
					opts.SampleK, opts.SampleBudget, all, got, want)
			}
		}
	}
}
