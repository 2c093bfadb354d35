package trie

import (
	"racedet/internal/rt/event"
)

// Packed is the multi-location trie of §8.2: the paper mentions "a
// scheme for packing information for multiple locations into one trie"
// without presenting it. This reconstruction shares one trie per
// *object*: nodes are still labeled with lock identities, but each
// node carries a small per-slot table of (thread, kind) lattice values
// instead of a single pair. Different fields of one object are almost
// always accessed under the same locking discipline, so their lockset
// paths coincide and the per-location node chains collapse into one —
// the space win the paper measured on tsp (7967 nodes for 6562
// locations ≈ 1.2 nodes/location).
//
// Semantics are identical to the per-location Detector: slots never
// interact (the weakness and race checks consult only the accessed
// slot), which the equivalence property test verifies on random
// streams.
type Packed struct {
	tries map[event.ObjID]*pnode
	stats Stats
	locs  map[event.Loc]struct{}

	// intern/pathBuf mirror the per-location Detector: interned report
	// locksets and a reusable traversal path scratch.
	intern  *event.Interner
	pathBuf event.Lockset
}

// pnode is a packed trie node: one lockset path, many locations.
type pnode struct {
	labels []event.ObjID
	kids   []*pnode
	slots  map[int32]slotState
}

type slotState struct {
	thread event.ThreadID
	kind   event.Kind
}

func newPnode() *pnode { return &pnode{} }

func (n *pnode) child(l event.ObjID) *pnode {
	for i, lab := range n.labels {
		if lab == l {
			return n.kids[i]
		}
		if lab > l {
			return nil
		}
	}
	return nil
}

func (n *pnode) ensureChild(l event.ObjID) (*pnode, bool) {
	i := 0
	for i < len(n.labels) && n.labels[i] < l {
		i++
	}
	if i < len(n.labels) && n.labels[i] == l {
		return n.kids[i], false
	}
	c := newPnode()
	n.labels = append(n.labels, 0)
	n.kids = append(n.kids, nil)
	copy(n.labels[i+1:], n.labels[i:])
	copy(n.kids[i+1:], n.kids[i:])
	n.labels[i] = l
	n.kids[i] = c
	return c, true
}

func (n *pnode) slot(s int32) (slotState, bool) {
	st, ok := n.slots[s]
	return st, ok
}

// NewPacked returns an empty packed detector.
func NewPacked() *Packed {
	return &Packed{
		tries:   make(map[event.ObjID]*pnode),
		locs:    make(map[event.Loc]struct{}),
		pathBuf: make(event.Lockset, 0, 64),
	}
}

// SetInterner attaches a lockset interner (see Detector.SetInterner).
func (d *Packed) SetInterner(it *event.Interner) { d.intern = it }

func (d *Packed) priorLocks(path event.Lockset) event.Lockset {
	if d.intern != nil {
		return d.intern.Lockset(d.intern.Intern(path))
	}
	return path.Clone()
}

// Stats returns the work counters.
func (d *Packed) Stats() Stats { return d.stats }

// NodeCount returns the number of live trie nodes — the §8.2 space
// metric to compare against the per-location detector.
func (d *Packed) NodeCount() int {
	n := 0
	var walk func(*pnode)
	walk = func(x *pnode) {
		n++
		for _, k := range x.kids {
			walk(k)
		}
	}
	for _, root := range d.tries {
		walk(root)
	}
	return n
}

// LocationCount returns the number of distinct locations with history.
func (d *Packed) LocationCount() int { return len(d.locs) }

// Process runs the §3.2.1 algorithm for one access event against the
// packed representation.
func (d *Packed) Process(e event.Access) (bool, RaceInfo) {
	d.stats.Events++
	root := d.tries[e.Loc.Obj]
	if root == nil {
		root = newPnode()
		d.tries[e.Loc.Obj] = root
		d.stats.NodesAllocated++
	}
	if _, seen := d.locs[e.Loc]; !seen {
		d.locs[e.Loc] = struct{}{}
		d.stats.LocationsStored++
	}
	slot := e.Loc.Slot

	if d.weaker(root, e.Locks, slot, e) {
		d.stats.WeaknessHits++
		return false, RaceInfo{}
	}

	d.stats.RaceChecks++
	race, info := false, RaceInfo{}
	d.raceCheck(root, d.pathBuf[:0], slot, e, &race, &info)
	d.update(root, slot, e)
	if race {
		d.stats.Races++
	}
	return race, info
}

func (d *Packed) weaker(n *pnode, rest event.Lockset, slot int32, e event.Access) bool {
	d.stats.NodesVisited++
	if st, ok := n.slot(slot); ok &&
		event.ThreadLeq(st.thread, e.Thread) && event.KindLeq(st.kind, e.Kind) {
		return true
	}
	for i, l := range rest {
		if c := n.child(l); c != nil {
			if d.weaker(c, rest[i+1:], slot, e) {
				return true
			}
		}
	}
	return false
}

func (d *Packed) raceCheck(n *pnode, path event.Lockset, slot int32, e event.Access, race *bool, info *RaceInfo) {
	if *race {
		return
	}
	d.stats.NodesVisited++
	if st, ok := n.slot(slot); ok {
		tm := event.ThreadMeet(e.Thread, st.thread)
		am := event.KindMeet(e.Kind, st.kind)
		if tm == event.TBot && am == event.Write {
			*race = true
			*info = RaceInfo{
				PriorThread: st.thread,
				PriorLocks:  d.priorLocks(path),
				PriorKind:   st.kind,
			}
			return
		}
	}
	for i, l := range n.labels {
		if e.Locks.Contains(l) {
			continue // Case I
		}
		d.raceCheck(n.kids[i], append(path, l), slot, e, race, info)
		if *race {
			return
		}
	}
}

func (d *Packed) update(root *pnode, slot int32, e event.Access) {
	n := root
	for _, l := range e.Locks {
		c, created := n.ensureChild(l)
		if created {
			d.stats.NodesAllocated++
		}
		n = c
	}
	if n.slots == nil {
		n.slots = make(map[int32]slotState)
	}
	if st, ok := n.slots[slot]; ok {
		n.slots[slot] = slotState{
			thread: event.ThreadMeet(st.thread, e.Thread),
			kind:   event.KindMeet(st.kind, e.Kind),
		}
	} else {
		n.slots[slot] = slotState{thread: e.Thread, kind: e.Kind}
	}

	// Prune stronger entries of the same slot.
	cur := n.slots[slot]
	weak := event.Access{Loc: e.Loc, Thread: cur.thread, Locks: e.Locks, Kind: cur.kind}
	d.prune(root, d.pathBuf[:0], slot, weak, n)
	d.sweep(root)
}

func (d *Packed) prune(x *pnode, path event.Lockset, slot int32, w event.Access, keep *pnode) {
	if x != keep {
		if st, ok := x.slot(slot); ok {
			stored := event.Access{Loc: w.Loc, Thread: st.thread, Locks: path, Kind: st.kind}
			if event.WeakerThan(w, stored) {
				delete(x.slots, slot)
				d.stats.NodesPruned++
			}
		}
	}
	for i, l := range x.labels {
		d.prune(x.kids[i], append(path, l), slot, w, keep)
	}
}

func (d *Packed) sweep(x *pnode) bool {
	outL, outK := x.labels[:0], x.kids[:0]
	for i, k := range x.kids {
		if d.sweep(k) {
			outL = append(outL, x.labels[i])
			outK = append(outK, k)
		}
	}
	x.labels, x.kids = outL, outK
	return len(x.slots) > 0 || len(x.kids) > 0
}
