package ownership

import (
	"math"
	"math/rand"
	"testing"

	"racedet/internal/rt/event"
)

func loc(o int64) event.Loc { return event.Loc{Obj: event.ObjID(o), Slot: 0} }

func TestStateMachine(t *testing.T) {
	tb := New()
	l := loc(1)
	if tb.StateOf(l) != Unowned {
		t.Fatal("fresh location must be unowned")
	}

	// First access claims ownership; forwarded = false.
	fwd, became := tb.Filter(1, l)
	if fwd || became {
		t.Fatalf("first access: fwd=%v became=%v", fwd, became)
	}
	if tb.StateOf(l) != Owned {
		t.Fatal("should be owned")
	}

	// Owner keeps accessing quietly.
	for i := 0; i < 5; i++ {
		fwd, became = tb.Filter(1, l)
		if fwd || became {
			t.Fatal("owner accesses must be absorbed")
		}
	}

	// Second thread: shared transition, both flags set.
	fwd, became = tb.Filter(2, l)
	if !fwd || !became {
		t.Fatalf("transition: fwd=%v became=%v", fwd, became)
	}
	if tb.StateOf(l) != Shared {
		t.Fatal("should be shared")
	}

	// Everyone (including the old owner) is forwarded afterwards.
	for _, tid := range []event.ThreadID{1, 2, 3} {
		fwd, became = tb.Filter(tid, l)
		if !fwd || became {
			t.Fatalf("post-share %v: fwd=%v became=%v", tid, fwd, became)
		}
	}
}

func TestLocationsIndependent(t *testing.T) {
	tb := New()
	tb.Filter(1, loc(1))
	tb.Filter(2, loc(2))
	if tb.StateOf(loc(1)) != Owned || tb.StateOf(loc(2)) != Owned {
		t.Fatal("distinct locations share state")
	}
	tb.Filter(2, loc(1))
	if tb.StateOf(loc(1)) != Shared {
		t.Fatal("loc1 should be shared")
	}
	if tb.StateOf(loc(2)) != Owned {
		t.Fatal("loc2 must be unaffected")
	}
	if tb.Locations() != 2 {
		t.Errorf("locations = %d", tb.Locations())
	}
}

func TestSharedCount(t *testing.T) {
	tb := New()
	for i := int64(1); i <= 4; i++ {
		tb.Filter(1, loc(i))
	}
	tb.Filter(2, loc(1))
	tb.Filter(2, loc(2))
	shared := 0
	for i := int64(1); i <= 4; i++ {
		if tb.StateOf(loc(i)) == Shared {
			shared++
		}
	}
	if shared != 2 {
		t.Errorf("shared count = %d, want 2", shared)
	}
}

func TestStateString(t *testing.T) {
	// The states are also used in diagnostics; make sure they're
	// distinct values.
	if Unowned == Owned || Owned == Shared {
		t.Fatal("states must be distinct")
	}
}

func TestOnContactFiresOncePerTransition(t *testing.T) {
	tb := New()
	var contacts []event.Loc
	tb.SetOnContact(func(l event.Loc) { contacts = append(contacts, l) })

	tb.Filter(1, loc(1)) // claim
	tb.Filter(1, loc(1)) // owner re-access: no contact
	if len(contacts) != 0 {
		t.Fatalf("contact fired before any transition: %v", contacts)
	}
	tb.Filter(2, loc(1)) // owned→shared: contact
	if len(contacts) != 1 || contacts[0] != loc(1) {
		t.Fatalf("contacts = %v, want exactly [loc1]", contacts)
	}
	tb.Filter(3, loc(1)) // already shared: no second contact
	tb.Filter(1, loc(1))
	if len(contacts) != 1 {
		t.Fatalf("contact fired on an already-shared location: %v", contacts)
	}
}

func TestOnContactNotFiredOnOverflow(t *testing.T) {
	tb := NewBounded(1)
	fired := 0
	tb.SetOnContact(func(event.Loc) { fired++ })
	tb.Filter(1, loc(1)) // tracked
	tb.Filter(1, loc(2)) // overflow: born shared, no transition
	tb.Filter(2, loc(2)) // still no transition
	if fired != 0 {
		t.Fatalf("contact fired %d times for overflow traffic, want 0", fired)
	}
	tb.Filter(2, loc(1))
	if fired != 1 {
		t.Fatalf("tracked location transition fired %d times, want 1", fired)
	}
}

// refTable is the ownership state machine as a plain map: the
// reference the dense table must match decision for decision.
type refTable struct {
	owner       map[event.Loc]event.ThreadID
	shared      map[event.Loc]bool
	max         int
	transitions uint64
	overflows   uint64
}

func (r *refTable) filter(t event.ThreadID, l event.Loc) (forward, becameShared bool) {
	o, seen := r.owner[l]
	switch {
	case !seen:
		if r.max > 0 && len(r.owner) >= r.max {
			r.overflows++
			return true, false
		}
		r.owner[l] = t
		return false, false
	case r.shared[l]:
		return true, false
	case o == t:
		return false, false
	default:
		r.shared[l] = true
		r.transitions++
		return true, true
	}
}

// TestMatchesMapReference replays random access streams, over dense
// and hostile locations (negative, huge and 1<<20-strided IDs, extreme
// slots), through the table and the map reference, bounded and not:
// every Filter decision, contact, and counter must agree.
func TestMatchesMapReference(t *testing.T) {
	locs := []event.Loc{
		{Obj: 1}, {Obj: 1, Slot: 1}, {Obj: 2, Slot: event.ArraySlot}, {Obj: 3, Slot: event.StaticSlot(0)},
		{Obj: 0}, {Obj: -5}, {Obj: 1 << 62}, {Obj: 7 << 20}, {Obj: 9, Slot: math.MaxInt32},
		{Obj: 9, Slot: math.MinInt32}, {Obj: 2000, Slot: 2}, {Obj: 40, Slot: 40},
	}
	for _, max := range []int{0, 5} {
		rng := rand.New(rand.NewSource(int64(max) + 1))
		tb := NewBounded(max)
		ref := &refTable{owner: map[event.Loc]event.ThreadID{}, shared: map[event.Loc]bool{}, max: max}
		var contacts []event.Loc
		tb.SetOnContact(func(l event.Loc) { contacts = append(contacts, l) })
		for i := 0; i < 5000; i++ {
			l := locs[rng.Intn(len(locs))]
			// One thread for the first half, so many cells are owned
			// when the cross-thread transitions start.
			th := event.ThreadID(0)
			if i >= 2500 {
				th = event.ThreadID(rng.Intn(3))
			}
			fwd, became := tb.Filter(th, l)
			wfwd, wbecame := ref.filter(th, l)
			if fwd != wfwd || became != wbecame {
				t.Fatalf("max %d step %d: Filter(%v, %v) = %v,%v, reference %v,%v", max, i, th, l, fwd, became, wfwd, wbecame)
			}
			if became && (len(contacts) == 0 || contacts[len(contacts)-1] != l) {
				t.Fatalf("max %d step %d: transition on %v did not fire contact", max, i, l)
			}
		}
		if tb.Locations() != len(ref.owner) || tb.Overflows() != ref.overflows {
			t.Fatalf("max %d: locations/overflows = %d/%d, reference %d/%d", max,
				tb.Locations(), tb.Overflows(), len(ref.owner), ref.overflows)
		}
		if uint64(len(contacts)) != ref.transitions {
			t.Fatalf("max %d: %d contacts for %d transitions", max, len(contacts), ref.transitions)
		}
	}
}
