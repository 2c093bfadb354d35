package loctab

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"racedet/internal/rt/event"
)

// val is a multi-word cell, so the tests cover more than a scalar V.
type val struct{ a, b uint32 }

// randLoc draws from a mix of the shapes the table must handle: the
// dense interpreter shape, IDs around the growth bound (so far rows
// later move into the dense range), negative and huge IDs, a 1<<20
// stride, and extreme and out-of-row slots.
func randLoc(rng *rand.Rand) event.Loc {
	slot := int32(rng.Intn(12) - 4)
	switch rng.Intn(10) {
	case 0:
		slot = math.MinInt32 + int32(rng.Intn(2))
	case 1:
		slot = math.MaxInt32 - int32(rng.Intn(2))
	case 2:
		slot = int32(rng.Intn(80) - 40) // both sides of maxRowCells
	}
	var obj int64
	switch rng.Intn(8) {
	case 0, 1, 2:
		obj = int64(rng.Intn(200))
	case 3:
		obj = int64(rng.Intn(6000))
	case 4:
		obj = -int64(rng.Intn(50)) - 1
	case 5:
		obj = 1<<62 + int64(rng.Intn(3))
	case 6:
		obj = int64(rng.Intn(64)) << 20
	default:
		obj = math.MaxInt64 - int64(rng.Intn(2))
	}
	return event.Loc{Obj: event.ObjID(obj), Slot: slot}
}

func get(t *Table[val], loc event.Loc) val {
	if p := t.Get(loc); p != nil {
		return *p
	}
	return val{}
}

// checkAgainst verifies every location in ref (and a few it lacks)
// reads the same from tb.
func checkAgainst(t *testing.T, tb *Table[val], ref map[event.Loc]val, rng *rand.Rand) {
	t.Helper()
	for loc, want := range ref {
		if got := get(tb, loc); got != want {
			t.Fatalf("Get(%v) = %v, reference %v", loc, got, want)
		}
	}
	for i := 0; i < 200; i++ {
		loc := randLoc(rng)
		if got := get(tb, loc); got != ref[loc] {
			t.Fatalf("Get(%v) = %v, reference %v", loc, got, ref[loc])
		}
	}
}

// TestMatchesMapReference drives random op streams against a plain
// map reference: every read through Get or At must agree with it.
func TestMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var tb Table[val]
		ref := make(map[event.Loc]val)
		// Most ops revisit a location already drawn, so cells are read
		// back after the dense range has grown past them.
		var pool []event.Loc
		for op := 0; op < 20000; op++ {
			var loc event.Loc
			if len(pool) == 0 || rng.Intn(3) == 0 {
				loc = randLoc(rng)
				pool = append(pool, loc)
			} else {
				loc = pool[rng.Intn(len(pool))]
			}
			switch rng.Intn(4) {
			case 0:
				if got := get(&tb, loc); got != ref[loc] {
					t.Fatalf("seed %d op %d: Get(%v) = %v, reference %v", seed, op, loc, got, ref[loc])
				}
			case 1:
				if got := *tb.At(loc); got != ref[loc] {
					t.Fatalf("seed %d op %d: At(%v) = %v, reference %v", seed, op, loc, got, ref[loc])
				}
			case 2:
				// Read-modify-write through one pointer.
				p := tb.At(loc)
				p.a++
				p.b ^= uint32(op)
				ref[loc] = *p
			default:
				v := val{uint32(rng.Intn(3)), uint32(op)}
				*tb.At(loc) = v
				ref[loc] = v
			}
		}
		checkAgainst(t, &tb, ref, rng)
	}
}

// TestFarRowsMoveIn pins the far-row case deterministically: an
// object beyond the dense range gets a far row, the row moves into the
// range, as is, when the range grows over the object, and negative IDs
// keep far rows while out-of-row slots spill.
func TestFarRowsMoveIn(t *testing.T) {
	var tb Table[val]
	far := event.Loc{Obj: objSlack + 10, Slot: 3}
	*tb.At(far) = val{a: 7}
	neg := event.Loc{Obj: -4, Slot: event.ArraySlot}
	*tb.At(neg) = val{a: 3}
	wide := event.Loc{Obj: far.Obj, Slot: 40}
	*tb.At(wide) = val{a: 5}
	if len(tb.far) != 2 || len(tb.spill) != 1 {
		t.Fatalf("want two far rows and one spilled slot, far=%d spill=%d", len(tb.far), len(tb.spill))
	}
	row := tb.far[far.Obj]
	for i := 1; i <= objSlack; i++ {
		*tb.At(event.Loc{Obj: event.ObjID(i)}) = val{a: 1}
	}
	if uint64(far.Obj) >= uint64(len(tb.rows)) {
		t.Fatalf("dense range %d should cover %d by now", len(tb.rows), far.Obj)
	}
	if _, ok := tb.far[far.Obj]; ok || len(tb.far) != 1 {
		t.Fatalf("growing the range over an object must move its row in, far=%d", len(tb.far))
	}
	if &tb.rows[far.Obj][0] != &row[0] {
		t.Fatalf("the row must move as is, not be copied")
	}
	if tb.populated != objSlack+2 {
		t.Fatalf("populated = %d, want %d", tb.populated, objSlack+2)
	}
	*tb.At(event.Loc{Obj: far.Obj, Slot: 0}) = val{a: 9}
	for loc, want := range map[event.Loc]uint32{far: 7, neg: 3, wide: 5, {Obj: far.Obj, Slot: 0}: 9} {
		if got := get(&tb, loc); got.a != want {
			t.Fatalf("cell %v = %v, want a=%d", loc, got, want)
		}
	}
}

// heapBytes returns the bytes allocated so far by the process.
func heapBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestStorageProportionalToLocations writes n distinct locations in
// shapes a hostile trace could send and checks the bytes allocated stay
// within a constant factor of n (plus the fixed slack): nothing
// allocates by ID magnitude.
func TestStorageProportionalToLocations(t *testing.T) {
	const n = 4096
	shapes := map[string]func(i int) event.Loc{
		"dense":          func(i int) event.Loc { return event.Loc{Obj: event.ObjID(i/4 + 1), Slot: int32(i%4) - 1} },
		"stride 1<<20":   func(i int) event.Loc { return event.Loc{Obj: event.ObjID(i) << 20} },
		"huge":           func(i int) event.Loc { return event.Loc{Obj: event.ObjID(1<<62 + i)} },
		"negative":       func(i int) event.Loc { return event.Loc{Obj: event.ObjID(-i - 1)} },
		"extreme slots":  func(i int) event.Loc { return event.Loc{Obj: 1, Slot: math.MinInt32 + int32(i)} },
		"one per object": func(i int) event.Loc { return event.Loc{Obj: event.ObjID(i + 1), Slot: 31} },
		"every 4th obj":  func(i int) event.Loc { return event.Loc{Obj: event.ObjID(4*i + 1)} },
	}
	cell := int(unsafe.Sizeof(val{}))
	// A location costs at most a widest row (the last widening copies
	// the earlier ones, which together are no larger) plus its share of
	// a map entry and of the row index; the slack covers the slab and
	// the index's fixed part.
	limit := uint64(n*(2*maxRowCells*cell+256) + 2*objSlack*8 + 2*slabCells*cell)
	for name, shape := range shapes {
		var tb Table[val]
		before := heapBytes()
		for i := 0; i < n; i++ {
			*tb.At(shape(i)) = val{a: 1}
		}
		if used := heapBytes() - before; used > limit {
			t.Errorf("%s: %d bytes for %d locations (limit %d)", name, used, n, limit)
		}
		for i := 0; i < n; i++ {
			if got := get(&tb, shape(i)); got.a != 1 {
				t.Fatalf("%s: location %d lost", name, i)
			}
		}
	}
	// The interpreter's shape stays entirely dense and compact.
	var tb Table[val]
	for i := 0; i < n; i++ {
		*tb.At(event.Loc{Obj: event.ObjID(i/4 + 1), Slot: int32(i%4) - 1}) = val{a: 1}
	}
	if len(tb.far) != 0 || len(tb.spill) != 0 {
		t.Errorf("dense shape left the rows: far=%d spill=%d", len(tb.far), len(tb.spill))
	}
	cells := cap(tb.rows)
	for _, row := range tb.rows {
		cells += cap(row)
	}
	if cells > 4*n {
		t.Errorf("dense shape: %d cells for %d locations", cells, n)
	}
}

// TestCloneIndependent checks a clone and its original evolve
// independently, for dense and spilled cells alike.
func TestCloneIndependent(t *testing.T) {
	locs := []event.Loc{
		{Obj: 1, Slot: 0}, {Obj: 2, Slot: event.ArraySlot}, {Obj: 3, Slot: event.StaticSlot(2)},
		{Obj: -4, Slot: 0}, {Obj: 1 << 62, Slot: 1}, {Obj: 5, Slot: math.MaxInt32},
	}
	var tb Table[val]
	for i, l := range locs {
		*tb.At(l) = val{a: uint32(i + 1)}
	}
	cl := tb.Clone()
	for _, l := range locs {
		tb.At(l).b = 100
		*tb.At(event.Loc{Obj: l.Obj, Slot: l.Slot + 1}) = val{a: 50}
	}
	for i, l := range locs {
		if got := get(cl, l); got != (val{a: uint32(i + 1)}) {
			t.Fatalf("clone changed with the original at %v: %v", l, got)
		}
	}
	for _, l := range locs {
		cl.At(l).a = 77
	}
	for i, l := range locs {
		if got := get(&tb, l); got != (val{a: uint32(i + 1), b: 100}) {
			t.Fatalf("original changed with the clone at %v: %v", l, got)
		}
	}
}
