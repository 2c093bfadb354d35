package event

import (
	"math/rand"
	"testing"
)

func TestInternerCanonicalization(t *testing.T) {
	it := NewInterner()
	if it.Intern(nil) != EmptyLocksetID {
		t.Fatalf("empty lockset must intern to EmptyLocksetID")
	}
	a := it.Intern([]ObjID{3, 1, 2})
	b := it.Intern([]ObjID{1, 2, 3})
	c := it.Intern([]ObjID{2, 1, 3, 3, 1})
	if a != b || b != c {
		t.Fatalf("permutations/duplicates must intern identically: %d %d %d", a, b, c)
	}
	if got := it.Lockset(a); !got.Equal(Lockset{1, 2, 3}) {
		t.Fatalf("canonical set = %v, want [1 2 3]", got)
	}
	d := it.Intern([]ObjID{1, 2})
	if d == a {
		t.Fatalf("distinct sets must get distinct ids")
	}
	if it.Size() != 3 { // ∅, {1,2,3}, {1,2}
		t.Fatalf("Size = %d, want 3", it.Size())
	}
}

func TestInternerStableIDs(t *testing.T) {
	it := NewInterner()
	id := it.Intern([]ObjID{7, 9})
	for i := 0; i < 100; i++ {
		if got := it.Intern([]ObjID{9, 7}); got != id {
			t.Fatalf("re-intern changed id: %d -> %d", id, got)
		}
	}
}

func TestInternerRelationsMatchSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	it := NewInterner()
	var ids []LocksetID
	var sets []Lockset
	for i := 0; i < 60; i++ {
		n := rng.Intn(5)
		ls := make([]ObjID, n)
		for j := range ls {
			ls[j] = ObjID(rng.Intn(8))
		}
		id := it.Intern(ls)
		ids = append(ids, id)
		sets = append(sets, it.Lockset(id))
	}
	for i := range ids {
		for j := range ids {
			if got, want := it.Intersects(ids[i], ids[j]), sets[i].Intersects(sets[j]); got != want {
				t.Fatalf("Intersects(%v, %v) = %v, want %v", sets[i], sets[j], got, want)
			}
			// Memoized second call must agree.
			if got, want := it.Intersects(ids[i], ids[j]), sets[i].Intersects(sets[j]); got != want {
				t.Fatalf("memoized Intersects(%v, %v) = %v, want %v", sets[i], sets[j], got, want)
			}
		}
	}
}

func TestInternerInternAllocFree(t *testing.T) {
	it := NewInterner()
	it.Intern([]ObjID{5, 6, 7})
	locks := []ObjID{7, 5, 6}
	allocs := testing.AllocsPerRun(200, func() {
		it.Intern(locks)
	})
	if allocs != 0 {
		t.Fatalf("re-interning a known set allocated %.1f objects/op, want 0", allocs)
	}
}

func TestLockTrackerInterned(t *testing.T) {
	it := NewInterner()
	lt := NewLockTrackerInterned(it)
	const tid = ThreadID(0)
	lt.MonitorEnter(tid, 10, 1)
	lt.MonitorEnter(tid, 4, 1)
	held := lt.Held(tid)
	id := lt.HeldID(tid)
	if !held.Equal(Lockset{4, 10}) {
		t.Fatalf("Held = %v, want [4 10]", held)
	}
	if got := it.Lockset(id); !got.Equal(held) {
		t.Fatalf("HeldID resolves to %v, want %v", got, held)
	}
	// The tracker must hand out the interner's canonical slice, so two
	// threads with equal locksets share identity.
	lt.MonitorEnter(1, 4, 1)
	lt.MonitorEnter(1, 10, 1)
	if lt.HeldID(1) != id {
		t.Fatalf("equal locksets must share one id")
	}
	lt.MonitorExit(tid, 4, 0)
	if lt.HeldID(tid) == id {
		t.Fatalf("releasing a lock must change the interned id")
	}
	if got := it.Lockset(lt.HeldID(tid)); !got.Equal(Lockset{10}) {
		t.Fatalf("after exit Held = %v, want [10]", got)
	}
}
