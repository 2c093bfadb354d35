package trie

import (
	"math/rand"
	"testing"

	"racedet/internal/rt/event"
)

// TestPackedEquivalence drives random event streams through the
// per-location detector and the packed multi-location detector and
// asserts they agree on every per-location race verdict. This is the
// key property of §8.2's packing: it is a space representation change,
// not a semantics change.
func TestPackedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		plain := New()
		packed := NewPacked()
		plainRaced := map[event.Loc]bool{}
		packedRaced := map[event.Loc]bool{}

		for i := 0; i < 500; i++ {
			loc := event.Loc{
				Obj:  event.ObjID(rng.Intn(3) + 1),
				Slot: int32(rng.Intn(3)),
			}
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
			r1, _ := plain.Process(e)
			r2, _ := packed.Process(e)
			if r1 {
				plainRaced[loc] = true
			}
			if r2 {
				packedRaced[loc] = true
			}
		}
		for loc := range plainRaced {
			if !packedRaced[loc] {
				t.Fatalf("seed %d: plain raced on %v, packed missed it", seed, loc)
			}
		}
		for loc := range packedRaced {
			if !plainRaced[loc] {
				t.Fatalf("seed %d: packed raced on %v, plain did not", seed, loc)
			}
		}
	}
}

// TestPackedSharesNodesAcrossSlots is the point of the scheme: many
// fields of one object under one locking discipline share one chain.
func TestPackedSharesNodesAcrossSlots(t *testing.T) {
	plain := New()
	packed := NewPacked()
	// 16 fields of object 1, all accessed under locks {100, 200}.
	for slot := int32(0); slot < 16; slot++ {
		e := event.Access{
			Loc:    event.Loc{Obj: 1, Slot: slot},
			Thread: 1,
			Kind:   event.Write,
			Locks:  event.NewLockset(100, 200),
		}
		plain.Process(e)
		packed.Process(e)
	}
	pn := plain.NodeCount()  // 16 tries × 3 nodes
	kn := packed.NodeCount() // 1 trie × 3 nodes
	if kn >= pn {
		t.Fatalf("packed (%d nodes) should be smaller than plain (%d)", kn, pn)
	}
	if kn > 3 {
		t.Errorf("packed nodes = %d, want <= 3 (one shared chain)", kn)
	}
	if packed.LocationCount() != 16 {
		t.Errorf("locations = %d", packed.LocationCount())
	}
}

func TestPackedSlotsDoNotInteract(t *testing.T) {
	d := NewPacked()
	// Slot 0: two threads, no locks (race). Slot 1: single thread.
	d.Process(event.Access{Loc: event.Loc{Obj: 1, Slot: 0}, Thread: 1, Kind: event.Write, Locks: event.Lockset{}})
	d.Process(event.Access{Loc: event.Loc{Obj: 1, Slot: 1}, Thread: 2, Kind: event.Write, Locks: event.Lockset{}})
	// Slot 1 by thread 2 only: no race even though slot 0 was touched
	// by thread 1 on the same object.
	race, _ := d.Process(event.Access{Loc: event.Loc{Obj: 1, Slot: 1}, Thread: 2, Kind: event.Read, Locks: event.Lockset{}})
	if race {
		t.Fatal("slots must not interact")
	}
	// Slot 0 by thread 2: race.
	race, info := d.Process(event.Access{Loc: event.Loc{Obj: 1, Slot: 0}, Thread: 2, Kind: event.Write, Locks: event.Lockset{}})
	if !race {
		t.Fatal("slot 0 must race")
	}
	if info.PriorThread != 1 {
		t.Errorf("prior thread = %v", info.PriorThread)
	}
}

func TestPackedPruning(t *testing.T) {
	d := NewPacked()
	d.Process(event.Access{Loc: event.Loc{Obj: 1, Slot: 0}, Thread: 1, Kind: event.Read, Locks: event.NewLockset(100, 200)})
	d.Process(event.Access{Loc: event.Loc{Obj: 1, Slot: 0}, Thread: 1, Kind: event.Write, Locks: event.Lockset{}})
	if d.Stats().NodesPruned == 0 {
		t.Error("stronger slot entry should be pruned")
	}
	// The pruned chain is swept only if no other slot occupies it.
	d2 := NewPacked()
	d2.Process(event.Access{Loc: event.Loc{Obj: 1, Slot: 0}, Thread: 1, Kind: event.Read, Locks: event.NewLockset(100)})
	d2.Process(event.Access{Loc: event.Loc{Obj: 1, Slot: 1}, Thread: 1, Kind: event.Read, Locks: event.NewLockset(100)})
	before := d2.NodeCount()
	d2.Process(event.Access{Loc: event.Loc{Obj: 1, Slot: 0}, Thread: 1, Kind: event.Write, Locks: event.Lockset{}})
	after := d2.NodeCount()
	if after != before {
		t.Errorf("chain still hosting slot 1 must survive: %d -> %d", before, after)
	}
}

// syntheticStream is the 20 000-event stream of the root package's
// trie ablations: eight objects, three threads, four locksets.
func syntheticStream(n int) []event.Access {
	rng := rand.New(rand.NewSource(42))
	out := make([]event.Access, n)
	locksets := []event.Lockset{
		event.NewLockset(),
		event.NewLockset(100),
		event.NewLockset(100, 200),
		event.NewLockset(300),
	}
	for i := range out {
		out[i] = event.Access{
			Loc:    event.Loc{Obj: event.ObjID(rng.Intn(8) + 1), Slot: 0},
			Thread: event.ThreadID(rng.Intn(3)),
			Kind:   event.Kind(rng.Intn(2)),
			Locks:  locksets[rng.Intn(len(locksets))],
		}
	}
	return out
}

// BenchmarkAblationPackedTrie times §8.2's multi-location packing
// against the per-location trie on the same stream.
func BenchmarkAblationPackedTrie(b *testing.B) {
	stream := syntheticStream(20000)
	b.Run("PerLocation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := New()
			for _, e := range stream {
				d.Process(e)
			}
		}
	})
	b.Run("Packed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := NewPacked()
			for _, e := range stream {
				d.Process(e)
			}
		}
	})
}
