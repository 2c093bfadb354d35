// Package loctab is a per-location side table for the runtime filter
// layers: a map from event.Loc to a small value, laid out the way the
// interpreter allocates locations rather than hashed.
//
// Object IDs are dense — the interpreter and the .mjtrace recorder
// hand them out from 1 — and an object has a handful of slots, so the
// common case is a slice of per-object rows indexed by ObjID, each row
// indexed by the zigzag of the slot (instance slots 0, 1, 2, … land on
// even cells; the array slot and the static slots, which are negative,
// on odd cells, so the two never collide). A lookup is two bounds
// checks and two loads; there is no hashing on the per-access path.
// Rows are carved out of shared slabs, so a new object costs no
// allocation of its own.
//
// The dense ObjID range only grows while it stays within objFactor
// times the number of objects holding cells, plus objSlack. An object
// outside it — beyond it, or with a negative (pseudo-lock) ID — keeps
// the same row in the far map, keyed by its ID, and the row moves into
// the dense range, as is, when the range grows over the object.
// Locations no row can hold, slots beyond maxRowCells, go to the spill
// map. A hostile trace that names sparse or huge IDs therefore costs
// map entries, never a huge allocation: memory is O(distinct locations
// written) whatever the IDs.
//
// The zero V is the absent value: a cell that was never written reads
// as zero, and a cell written back to zero is indistinguishable from
// one never written. Not safe for concurrent use.
package loctab

import "racedet/internal/rt/event"

const (
	// maxRowCells caps a row: slots whose zigzag index is at or beyond
	// it (slot < -32 or slot > 31) spill.
	maxRowCells = 64
	// objFactor and objSlack bound the dense ObjID range: it may grow
	// to cover an ID only while len(rows) stays below
	// objFactor*populated + objSlack.
	objFactor = 4
	objSlack  = 1024
	// slabCells is the size of the slabs rows are carved from.
	slabCells = 512
)

// Table maps locations to values of type V.
type Table[V any] struct {
	rows      [][]V               // rows[obj][zigzag(slot)]; nil until the object has a cell
	far       map[event.ObjID][]V // rows of the objects outside the dense range
	spill     map[event.Loc]*V    // locations no row can hold
	populated int                 // objects with a row, dense or far
	free      []V                 // unused tail of the current slab
}

// zigzag interleaves non-negative and negative slots: 0, -1, 1, -2, …
// map to 0, 1, 2, 3, ….
func zigzag(s int32) uint32 { return uint32(s<<1) ^ uint32(s>>31) }

// Get returns loc's cell, or nil when loc has none yet; a non-nil cell
// may still read as zero. The pointer is valid until the next call to
// At. Get stays small enough to inline.
func (t *Table[V]) Get(loc event.Loc) *V {
	var row []V
	if id := uint64(loc.Obj); id < uint64(len(t.rows)) {
		row = t.rows[id]
	} else if len(t.far) != 0 {
		row = t.far[loc.Obj]
	}
	if z := uint64(zigzag(loc.Slot)); z < uint64(len(row)) {
		return &row[z]
	}
	if len(t.spill) == 0 {
		return nil
	}
	return t.spill[loc]
}

// At returns loc's cell, creating a zero cell when loc has none. The
// pointer is valid until the next call to At.
func (t *Table[V]) At(loc event.Loc) *V {
	z := zigzag(loc.Slot)
	if id := uint64(loc.Obj); id < uint64(len(t.rows)) {
		if row := t.rows[id]; uint64(z) < uint64(len(row)) {
			return &row[z]
		}
	}
	return t.at(loc, z)
}

// at is At's slow path: create or widen the object's row, dense or
// far, or fall back to the spill map.
func (t *Table[V]) at(loc event.Loc, z uint32) *V {
	if z >= maxRowCells {
		p := t.spill[loc]
		if p == nil {
			if t.spill == nil {
				t.spill = make(map[event.Loc]*V)
			}
			p = new(V)
			t.spill[loc] = p
		}
		return p
	}
	obj := loc.Obj
	if obj >= 0 && t.cover(uint64(obj)) {
		row := t.rows[obj]
		if row == nil {
			t.populated++
		}
		row = t.widen(row, z)
		t.rows[obj] = row
		return &row[z]
	}
	row, ok := t.far[obj]
	if !ok {
		if t.far == nil {
			t.far = make(map[event.ObjID][]V)
		}
		t.populated++
	}
	row = t.widen(row, z)
	t.far[obj] = row
	return &row[z]
}

// cover reports whether id is inside the dense range, growing the
// range to include it when the growth bound allows.
func (t *Table[V]) cover(id uint64) bool {
	n := uint64(len(t.rows))
	if id < n {
		return true
	}
	limit := uint64(objFactor*t.populated + objSlack)
	if id >= limit {
		return false
	}
	rows := make([][]V, min(max(2*n, id+1), limit))
	copy(rows, t.rows)
	t.rows = rows
	t.moveIn(n, uint64(len(rows)))
	return true
}

// moveIn moves the far rows of objects in [lo, hi), which the dense
// range now covers, into it. It does min(hi-lo, len(far)) steps, so
// over the table's life it costs at most one step per ID the range
// ever covers.
func (t *Table[V]) moveIn(lo, hi uint64) {
	if len(t.far) == 0 {
		return
	}
	if hi-lo < uint64(len(t.far)) {
		for id := lo; id < hi; id++ {
			if row, ok := t.far[event.ObjID(id)]; ok {
				t.rows[id] = row
				delete(t.far, event.ObjID(id))
			}
		}
		return
	}
	for obj, row := range t.far {
		if id := uint64(obj); id >= lo && id < hi {
			t.rows[id] = row
			delete(t.far, obj)
		}
	}
}

// widen returns row with cell z in it: row itself when it is long
// enough, otherwise a copy in a fresh row whose length is z+1 rounded
// up to a power of two, so a row widens at most log2(maxRowCells)
// times.
func (t *Table[V]) widen(row []V, z uint32) []V {
	if int(z) < len(row) {
		return row
	}
	n := 2
	for n <= int(z) {
		n *= 2
	}
	nr := t.carve(n)
	copy(nr, row)
	return nr
}

// carve returns n zero cells from the current slab, starting a new
// slab when the current one is short. The row's capacity is exactly n,
// so appending to it can never reach into a neighbour.
func (t *Table[V]) carve(n int) []V {
	if n > len(t.free) {
		t.free = make([]V, max(slabCells, n))
	}
	row := t.free[:n:n]
	t.free = t.free[n:]
	return row
}

// Clone returns a deep copy whose evolution is independent of t's. The
// copy's rows share one slab.
func (t *Table[V]) Clone() *Table[V] {
	nt := &Table[V]{populated: t.populated}
	cells := 0
	for _, row := range t.rows {
		cells += len(row)
	}
	for _, row := range t.far {
		cells += len(row)
	}
	nt.free = make([]V, cells)
	if t.rows != nil {
		nt.rows = make([][]V, len(t.rows))
		for i, row := range t.rows {
			if row != nil {
				nt.rows[i] = nt.carve(len(row))
				copy(nt.rows[i], row)
			}
		}
	}
	if len(t.far) > 0 {
		nt.far = make(map[event.ObjID][]V, len(t.far))
		for obj, row := range t.far {
			nt.far[obj] = nt.carve(len(row))
			copy(nt.far[obj], row)
		}
	}
	if len(t.spill) > 0 {
		nt.spill = make(map[event.Loc]*V, len(t.spill))
		for l, p := range t.spill {
			v := *p
			nt.spill[l] = &v
		}
	}
	return nt
}
