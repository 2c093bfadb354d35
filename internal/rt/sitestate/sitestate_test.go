package sitestate

import (
	"math"
	"testing"

	"racedet/internal/lang/token"
	"racedet/internal/rt/event"
)

// CanSuppress is Touch's verdict without the recording: whether a
// stub access by t (a write iff write) on loc is suppressible.
func (st *Table) CanSuppress(loc event.Loc, t event.ThreadID, write bool) bool {
	r := st.locs.Get(loc)
	if r == nil {
		r = new(locState)
	}
	return r.settled || st.canSuppress(r, t, write)
}

func pos(line int32) token.Pos { return token.Pos{File: "t.mj", Line: line, Col: 1} }

func TestSiteInterning(t *testing.T) {
	st := New(Config{K: 4})
	a := st.SiteID(pos(1), event.Read)
	if b := st.SiteID(pos(1), event.Read); b != a {
		t.Fatalf("same site interned twice: %d vs %d", a, b)
	}
	if w := st.SiteID(pos(1), event.Write); w == a {
		t.Fatalf("read and write at one position must be distinct sites")
	}
	if c := st.SiteID(pos(2), event.Read); c == a {
		t.Fatalf("distinct positions must be distinct sites")
	}
	if got := st.Stats().Sites; got != 3 {
		t.Fatalf("Sites = %d, want 3", got)
	}
}

// TestSiteIDFirstSeenOrder interleaves files, kinds and extreme lines
// and columns: ids must follow first-seen order, repeat lookups must
// agree, and priors must apply.
func TestSiteIDFirstSeenOrder(t *testing.T) {
	sites := []struct {
		pos  token.Pos
		kind event.Kind
	}{
		{token.Pos{File: "a.mj", Line: 3, Col: 5}, event.Read},
		{token.Pos{File: "b.mj", Line: 3, Col: 5}, event.Read},
		{token.Pos{File: "a.mj", Line: 3, Col: -1}, event.Read},
		{token.Pos{File: "a.mj", Line: 3, Col: 5}, event.Write},
		{token.Pos{File: "b.mj", Line: 3, Col: 1 << 24}, event.Read},
		{token.Pos{File: "a.mj", Line: -7, Col: 1<<24 - 1}, event.Read},
		{token.Pos{File: "", Line: 3, Col: 5}, event.Read},
		{token.Pos{File: "a.mj", Line: math.MinInt32, Col: math.MaxInt32}, event.Write},
		{token.Pos{File: "a.mj", Line: math.MaxInt32, Col: math.MinInt32}, event.Write},
		{token.Pos{File: "a.mj", Line: math.MaxInt32, Col: math.MinInt32}, event.Read},
	}
	high := Key{File: "b.mj", Line: 3, Col: 1 << 24, Kind: event.Read}
	low := Key{File: "a.mj", Line: 3, Col: 5, Kind: event.Write}
	st := New(Config{K: 4, Priors: map[Key]Prior{high: PriorHigh, low: PriorLow}})
	for round := 0; round < 3; round++ {
		for i, s := range sites {
			if id := st.SiteID(s.pos, s.kind); id != int32(i) {
				t.Fatalf("round %d: site %d (%v %v) got id %d", round, i, s.pos, s.kind, id)
			}
		}
	}
	if s := st.Stats(); s.Sites != len(sites) || s.PriorHighSites != 1 || s.PriorLowSites != 1 {
		t.Fatalf("stats = %+v, want %d sites, one high and one low prior", s, len(sites))
	}
}

func TestDemoteAfterKCleanObservations(t *testing.T) {
	st := New(Config{K: 3})
	id := st.SiteID(pos(1), event.Read)
	for i := 0; i < 2; i++ {
		st.Observe(id, true)
		if st.Demoted(id) {
			t.Fatalf("demoted after %d observations, want 3", i+1)
		}
	}
	st.Observe(id, true)
	if !st.Demoted(id) {
		t.Fatalf("not demoted after K=3 clean observations")
	}
	if s := st.Stats(); s.Demotions != 1 {
		t.Fatalf("Demotions = %d, want 1", s.Demotions)
	}
}

func TestRearmResetsCounter(t *testing.T) {
	st := New(Config{K: 3})
	id := st.SiteID(pos(1), event.Read)
	st.Observe(id, true)
	st.Observe(id, true)
	st.Rearm(id) // re-arm signal on an armed site: counter restarts
	st.Observe(id, true)
	st.Observe(id, true)
	if st.Demoted(id) {
		t.Fatalf("demoted across a re-arm reset")
	}
	st.Observe(id, true)
	if !st.Demoted(id) {
		t.Fatalf("not demoted after 3 clean observations post-reset")
	}
	// Demotion deliberately ignores thread and lockset churn: the
	// counter advances on every armed observation regardless of who
	// made it; only the re-arm web resets it.
	st.Rearm(id)
	if st.Demoted(id) {
		t.Fatalf("Rearm left the site demoted")
	}
	if s := st.Stats(); s.Rearms != 1 {
		t.Fatalf("Rearms = %d, want 1 (resetting an armed site is not a re-arm)", s.Rearms)
	}
}

func TestContactRearmsTouchingSites(t *testing.T) {
	st := New(Config{K: 1})
	a := st.SiteID(pos(1), event.Read)
	b := st.SiteID(pos(2), event.Write)
	st.Observe(a, true)
	st.Observe(b, true)
	if !st.Demoted(a) || !st.Demoted(b) {
		t.Fatalf("K=1 sites must demote on first observation")
	}
	loc := event.Loc{Obj: 42, Slot: 0}
	if !st.Touch(a, loc, 1, false) || !st.Touch(b, loc, 1, true) {
		t.Fatalf("touches on a fresh location must record")
	}
	st.Contact(loc)
	if st.Demoted(a) || st.Demoted(b) {
		t.Fatalf("contact did not re-arm the touching sites")
	}
	if s := st.Stats(); s.Rearms != 2 {
		t.Fatalf("Rearms = %d, want 2", s.Rearms)
	}
	if !st.ConsumeArmed(loc) {
		t.Fatalf("contact must arm the location")
	}
	if st.ConsumeArmed(loc) {
		t.Fatalf("armed marker must be consumed exactly once")
	}
}

func TestCrossThreadTouchDetection(t *testing.T) {
	st := New(Config{K: 1})
	r := st.SiteID(pos(1), event.Read)
	w := st.SiteID(pos(2), event.Write)

	// Reader sets: read-read sharing cannot race and may join freely.
	loc := event.Loc{Obj: 7, Slot: 0}
	if !st.Touch(r, loc, 1, false) {
		t.Fatalf("first read touch must record")
	}
	if !st.CanSuppress(loc, 1, false) || !st.CanSuppress(loc, 1, true) {
		t.Fatalf("sole toucher must keep suppressing")
	}
	if !st.Touch(r, loc, 2, false) {
		t.Fatalf("a second reader must be allowed to join")
	}
	// A write meeting foreign readers could race and never suppresses.
	if st.Touch(w, loc, 3, true) {
		t.Fatalf("write with foreign touchers must refuse to suppress")
	}
	// Even a member of the reader set may not write while others read.
	if st.CanSuppress(loc, 1, true) {
		t.Fatalf("write by one of several readers must refuse")
	}
	// Sibling slots of the same object are independent locations.
	if !st.CanSuppress(event.Loc{Obj: 7, Slot: 1}, 3, true) {
		t.Fatalf("a write to a sibling slot must be independent")
	}

	// Writer entries: any foreign access could race.
	loc2 := event.Loc{Obj: 8, Slot: 0}
	if !st.Touch(w, loc2, 1, true) {
		t.Fatalf("sole-toucher write must record")
	}
	if !st.Touch(r, loc2, 1, false) {
		t.Fatalf("sole toucher may keep reading its own location")
	}
	if st.Touch(r, loc2, 2, false) {
		t.Fatalf("read with a foreign writer must refuse to suppress")
	}

	// Shipped history: a location with a foreign shipped write refuses
	// read suppression; with any foreign shipped access it refuses
	// write suppression. Refusal needs no re-arm — the forwarded event
	// itself pairs in the trie.
	loc3 := event.Loc{Obj: 9, Slot: 0}
	st.RecordShip(loc3, 2, true)
	if st.CanSuppress(loc3, 1, false) || st.CanSuppress(loc3, 1, true) {
		t.Fatalf("foreign shipped write must refuse suppression")
	}
	if !st.CanSuppress(loc3, 2, true) {
		t.Fatalf("a thread may suppress against its own shipped history")
	}
	loc4 := event.Loc{Obj: 10, Slot: 0}
	st.RecordShip(loc4, 2, false)
	if !st.CanSuppress(loc4, 1, false) {
		t.Fatalf("foreign shipped READS must not block read suppression")
	}
	if st.CanSuppress(loc4, 1, true) {
		t.Fatalf("foreign shipped read must refuse write suppression")
	}

	// Threads outside the representable range never suppress.
	if st.Touch(r, loc, 64, false) {
		t.Fatalf("unrepresentable thread must not suppress")
	}
}

func TestProvenRaceSuppressesEverything(t *testing.T) {
	st := New(Config{K: 1})
	id := st.SiteID(pos(1), event.Write)

	// Shipped history alone proves nothing, whatever the threads and
	// kinds: the table does not know the locksets, and every thread
	// holds its own pseudolock, so two shipped writes by distinct
	// threads may still share a lock.
	loc := event.Loc{Obj: 1, Slot: 0}
	st.RecordShip(loc, 1, true)
	st.RecordShip(loc, 2, true)
	st.RecordShip(loc, 64, false)
	if st.CanSuppress(loc, 3, true) || st.CanSuppress(loc, 3, false) {
		t.Fatalf("shipped history must not settle a location")
	}

	// Once the trie reports a race there, the location is settled:
	// everything after is redundant.
	st.Reported(loc)
	for _, tid := range []event.ThreadID{1, 2, 3, 64} {
		if !st.CanSuppress(loc, tid, true) || !st.CanSuppress(loc, tid, false) {
			t.Fatalf("settled location must suppress thread %d", tid)
		}
	}
	if !st.Touch(id, loc, 3, true) {
		t.Fatalf("Touch on a settled location must suppress")
	}
	if st.nTouched != 0 {
		t.Fatalf("settled Touch must not grow the touch index")
	}

	// Settling is per location.
	if st.CanSuppress(event.Loc{Obj: 1, Slot: 1}, 3, true) != st.CanSuppress(event.Loc{Obj: 9, Slot: 0}, 3, true) {
		t.Fatalf("a report must settle only its own location")
	}
}

func TestTouchIndexBound(t *testing.T) {
	st := New(Config{K: 1, MaxTouched: 2})
	id := st.SiteID(pos(1), event.Read)
	lc := func(o event.ObjID) event.Loc { return event.Loc{Obj: o, Slot: 0} }
	if !st.Touch(id, lc(1), 1, false) || !st.Touch(id, lc(2), 1, false) {
		t.Fatalf("touches under the bound must record")
	}
	if st.Touch(id, lc(3), 1, false) {
		t.Fatalf("touch over the bound must refuse (caller forwards)")
	}
	if !st.Touch(id, lc(2), 1, false) {
		t.Fatalf("existing entries must keep recording at the bound")
	}
}

func TestAdaptiveControllerMovesK(t *testing.T) {
	st := New(Config{K: 16, Budget: 0.25, Window: 8})
	id := st.SiteID(pos(1), event.Read)
	// A full window of shipped events: ratio 1.0 > 0.25 → K halves.
	for i := 0; i < 8; i++ {
		st.Observe(id, true)
	}
	if k := st.Stats().CurrentK; k != 8 {
		t.Fatalf("CurrentK = %d after over-budget window, want 8", k)
	}
	if r := st.Stats().WindowRatio; r != 1.0 {
		t.Fatalf("WindowRatio = %v, want 1.0", r)
	}
	// A full window of suppressed events: ratio 0 < 0.125 → K doubles.
	for i := 0; i < 8; i++ {
		st.Suppress()
	}
	if k := st.Stats().CurrentK; k != 16 {
		t.Fatalf("CurrentK = %d after under-budget window, want 16", k)
	}
	// K is clamped at MinK no matter how many hot windows pass.
	for w := 0; w < 20; w++ {
		for i := 0; i < 8; i++ {
			st.Observe(id, true)
		}
	}
	if k := st.Stats().CurrentK; k != MinK {
		t.Fatalf("CurrentK = %d, want clamp at MinK=%d", k, MinK)
	}
}

func TestFixedKWithoutBudget(t *testing.T) {
	st := New(Config{K: 4, Window: 4})
	id := st.SiteID(pos(1), event.Read)
	for i := 0; i < 64; i++ {
		st.Observe(id, true)
	}
	if k := st.Stats().CurrentK; k != 4 {
		t.Fatalf("CurrentK moved to %d without a budget", k)
	}
}

func TestSaturatingCounter(t *testing.T) {
	st := New(Config{K: 2})
	id := st.SiteID(pos(1), event.Read)
	st.states[id].clean = ^uint32(0) - 1
	st.Observe(id, true)
	st.Observe(id, true) // must not wrap to 0
	if st.states[id].clean != ^uint32(0) {
		t.Fatalf("counter wrapped: %d", st.states[id].clean)
	}
}
