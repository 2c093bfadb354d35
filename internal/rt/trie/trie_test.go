package trie

import (
	"math/rand"
	"testing"

	"racedet/internal/rt/event"
)

func acc(t event.ThreadID, kind event.Kind, locks ...event.ObjID) event.Access {
	return event.Access{
		Loc:    event.Loc{Obj: 1, Slot: 0},
		Thread: t,
		Kind:   kind,
		Locks:  event.NewLockset(locks...),
	}
}

func TestNoRaceSingleThread(t *testing.T) {
	d := New()
	for i := 0; i < 10; i++ {
		if race, _ := d.Process(acc(1, event.Write)); race {
			t.Fatal("single-thread accesses cannot race")
		}
	}
}

func TestNoRaceCommonLock(t *testing.T) {
	d := New()
	d.Process(acc(1, event.Write, 100))
	if race, _ := d.Process(acc(2, event.Write, 100)); race {
		t.Fatal("common lock prevents the race")
	}
	if race, _ := d.Process(acc(3, event.Write, 100, 200)); race {
		t.Fatal("superset lockset still shares the common lock")
	}
}

func TestNoRaceTwoReads(t *testing.T) {
	d := New()
	d.Process(acc(1, event.Read))
	if race, _ := d.Process(acc(2, event.Read)); race {
		t.Fatal("two reads cannot race")
	}
}

func TestRaceWriteWrite(t *testing.T) {
	d := New()
	d.Process(acc(1, event.Write, 100))
	race, info := d.Process(acc(2, event.Write, 200))
	if !race {
		t.Fatal("disjoint locksets with writes must race")
	}
	if info.PriorThread != 1 {
		t.Errorf("prior thread = %v, want T1", info.PriorThread)
	}
	if !info.PriorLocks.Equal(event.NewLockset(100)) {
		t.Errorf("prior locks = %v", info.PriorLocks)
	}
	if info.PriorKind != event.Write {
		t.Errorf("prior kind = %v", info.PriorKind)
	}
}

func TestRaceReadThenWrite(t *testing.T) {
	d := New()
	d.Process(acc(1, event.Read))
	if race, _ := d.Process(acc(2, event.Write)); !race {
		t.Fatal("read then write by another thread must race")
	}
}

func TestWeaknessFilterCounts(t *testing.T) {
	d := New()
	d.Process(acc(1, event.Write))
	for i := 0; i < 5; i++ {
		d.Process(acc(1, event.Write))      // identical: filtered
		d.Process(acc(1, event.Read))       // weaker exists (write ⊑ read)
		d.Process(acc(1, event.Write, 100)) // superset lockset: filtered
	}
	st := d.Stats()
	if st.WeaknessHits != 15 {
		t.Errorf("weakness hits = %d, want 15", st.WeaknessHits)
	}
}

func TestTBotCollapsing(t *testing.T) {
	d := New()
	// Two threads, same lockset: node collapses to t⊥.
	d.Process(acc(1, event.Read, 100))
	d.Process(acc(2, event.Read, 100))
	// A third thread with the same lockset is now weaker-filtered
	// because t⊥ ⊑ anything.
	before := d.Stats().WeaknessHits
	d.Process(acc(3, event.Read, 100))
	if d.Stats().WeaknessHits != before+1 {
		t.Fatal("t⊥ node should subsume any thread")
	}
	// And a disjoint-lockset write races with the t⊥ node.
	race, info := d.Process(acc(4, event.Write, 200))
	if !race {
		t.Fatal("t⊥ read node vs disjoint write must race")
	}
	if info.PriorThread != event.TBot {
		t.Errorf("prior thread = %v, want t⊥", info.PriorThread)
	}
}

func TestCaseIPruning(t *testing.T) {
	// An access sharing a lock with the subtree must not race and the
	// traversal must prune (NodesVisited stays small).
	d := New()
	d.Process(acc(1, event.Write, 100))
	d.Process(acc(1, event.Write, 100, 200))
	d.Process(acc(1, event.Write, 100, 300))
	if race, _ := d.Process(acc(2, event.Write, 100, 400)); race {
		t.Fatal("lock 100 is shared with every stored access")
	}
}

func TestStrongerPruningAfterUpdate(t *testing.T) {
	d := New()
	d.Process(acc(1, event.Read, 100, 200)) // strong
	d.Process(acc(1, event.Write, 100))     // weaker: should prune the first
	if d.Stats().NodesPruned == 0 {
		t.Error("expected the stronger access to be pruned")
	}
	// The location still behaves correctly afterwards.
	if race, _ := d.Process(acc(2, event.Write, 300)); !race {
		t.Fatal("race lost after pruning")
	}
}

func TestDistinctLocationsIndependent(t *testing.T) {
	d := New()
	a := event.Access{Loc: event.Loc{Obj: 1, Slot: 0}, Thread: 1, Kind: event.Write, Locks: event.Lockset{}}
	b := event.Access{Loc: event.Loc{Obj: 1, Slot: 1}, Thread: 2, Kind: event.Write, Locks: event.Lockset{}}
	d.Process(a)
	if race, _ := d.Process(b); race {
		t.Fatal("different slots are different locations")
	}
	if d.LocationCount() != 2 {
		t.Errorf("locations = %d", d.LocationCount())
	}
}

// referenceDetector is a brute-force O(N²) oracle: it stores every
// access and answers "does e race with anything so far" by scanning.
type referenceDetector struct {
	history []event.Access
}

func (r *referenceDetector) process(e event.Access) bool {
	race := false
	for _, p := range r.history {
		if event.IsRace(p, e) {
			race = true
			break
		}
	}
	r.history = append(r.history, e)
	return race
}

// TestAgainstReference drives random event streams through the trie
// detector and the quadratic oracle, asserting the per-location
// guarantee of Definition 1: the trie must detect a race on a location
// iff the oracle sees any racing pair there. (The trie may report at a
// different access than the oracle's first hit, so the comparison is
// per location at stream end.)
func TestAgainstReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := New()
		refs := map[event.Loc]*referenceDetector{}
		trieRaced := map[event.Loc]bool{}
		refRaced := map[event.Loc]bool{}

		for i := 0; i < 400; i++ {
			loc := event.Loc{Obj: event.ObjID(rng.Intn(3) + 1), Slot: int32(rng.Intn(2))}
			kind := event.Read
			if rng.Intn(2) == 0 {
				kind = event.Write
			}
			n := rng.Intn(3)
			locks := make([]event.ObjID, n)
			for j := range locks {
				locks[j] = event.ObjID(100 + rng.Intn(4))
			}
			e := event.Access{
				Loc:    loc,
				Thread: event.ThreadID(rng.Intn(3)),
				Kind:   kind,
				Locks:  event.NewLockset(locks...),
			}
			if race, _ := d.Process(e); race {
				trieRaced[loc] = true
			}
			ref := refs[loc]
			if ref == nil {
				ref = &referenceDetector{}
				refs[loc] = ref
			}
			if ref.process(e) {
				refRaced[loc] = true
			}
		}

		for loc := range refRaced {
			if !trieRaced[loc] {
				t.Fatalf("seed %d: oracle found a race on %v, trie missed it", seed, loc)
			}
		}
		for loc := range trieRaced {
			if !refRaced[loc] {
				t.Fatalf("seed %d: trie reported a race on %v with no racing pair", seed, loc)
			}
		}
	}
}

func TestNodeCountAndSweep(t *testing.T) {
	d := New()
	d.Process(acc(1, event.Read, 100, 200, 300)) // deep chain
	n1 := d.NodeCount()
	d.Process(acc(1, event.Write)) // root write prunes the chain
	n2 := d.NodeCount()
	if n2 >= n1 {
		t.Errorf("sweep did not shrink the trie: %d -> %d", n1, n2)
	}
}

func TestManyLocksetsShareTriePrefixes(t *testing.T) {
	d := New()
	// All locksets share lock 100; the trie should store them compactly.
	for i := 0; i < 8; i++ {
		d.Process(acc(1, event.Write, 100, event.ObjID(200+i)))
	}
	// 1 root + 1 node for {100} path + 8 leaves = 10 max.
	if n := d.NodeCount(); n > 10 {
		t.Errorf("trie too large: %d nodes", n)
	}
}
