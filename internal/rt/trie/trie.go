// Package trie implements the trie-based runtime datarace detection
// algorithm of §3.2 of the paper. The per-location trie is the only
// history the detector builds; the §8.2 multi-location packing lives
// in this package's tests as a space model checked against it.
//
// For each memory location the detector keeps an edge-labeled trie.
// Edges are labeled with lock identities (in canonical increasing
// order, so every lockset has a unique path); each node carries thread
// and access-kind lattice values summarizing the accesses whose
// lockset equals the node's path. Internal nodes with no accesses hold
// (t⊤, READ), the identity of the meet.
//
// Processing an access e:
//
//  1. Weakness check: depth-first traversal following only edges
//     labeled with locks in e.L; if any visited node is weaker than e
//     (Definition 2), e is discarded — a previously recorded access
//     already subsumes it for all future races (Theorem 1).
//  2. Race check: depth-first traversal with the three cases of
//     §3.2.1 — prune subtrees that share a lock with e (Case I),
//     report a race when the thread meet is t⊥ and the kind meet is
//     WRITE (Case II), otherwise recurse (Case III).
//  3. Update: meet e into the node for exactly e.L, then prune all
//     stored accesses that are now stronger than the updated node.
package trie

import (
	"sort"

	"racedet/internal/rt/event"
)

// node is one trie node. Edge labels are kept sorted so traversals
// are deterministic and lockset paths are canonical.
type node struct {
	thread event.ThreadID // t⊤ if the node holds no accesses
	kind   event.Kind
	labels []event.ObjID
	kids   []*node
	// collapsed marks a root whose history was discarded under memory
	// pressure (bounded mode). The location degrades to the weakest
	// possible summary — (t⊥, WRITE, ∅) — so every later access to it
	// conservatively reports a race: the detector may over-report after
	// a collapse but can never silently drop a race.
	collapsed bool
}

func newNode() *node { return &node{thread: event.TTop, kind: event.Read} }

// hasAccess reports whether the node summarizes at least one access.
func (n *node) hasAccess() bool { return n.thread != event.TTop }

// clear resets the node to the no-access state.
func (n *node) clear() {
	n.thread = event.TTop
	n.kind = event.Read
}

// child returns the child along label l, or nil.
func (n *node) child(l event.ObjID) *node {
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

// ensureChild returns the child along label l, creating it in sorted
// position if needed; created reports whether a new node was made.
func (n *node) ensureChild(l event.ObjID) (c *node, created bool) {
	i := 0
	for i < len(n.labels) && n.labels[i] < l {
		i++
	}
	if i < len(n.labels) && n.labels[i] == l {
		return n.kids[i], false
	}
	c = newNode()
	n.labels = append(n.labels, 0)
	n.kids = append(n.kids, nil)
	copy(n.labels[i+1:], n.labels[i:])
	copy(n.kids[i+1:], n.kids[i:])
	n.labels[i] = l
	n.kids[i] = c
	return c, true
}

// RaceInfo describes the stored prior access that a new access races
// with. Thread is t⊥ when the identity was collapsed (§3.1 explains
// why the earlier thread cannot always be reported).
type RaceInfo struct {
	PriorThread event.ThreadID
	PriorLocks  event.Lockset
	PriorKind   event.Kind
}

// Stats counts detector work; the Table 2 harness reports them as the
// deterministic complement to wall-clock time.
type Stats struct {
	Events          uint64 // accesses reaching the trie layer
	WeaknessHits    uint64 // filtered because a weaker access existed
	RaceChecks      uint64 // accesses that ran the full race traversal
	NodesVisited    uint64 // total trie nodes touched by traversals
	Races           uint64 // Case II hits
	NodesAllocated  uint64
	NodesPruned     uint64 // stronger accesses removed after updates
	LocationsStored uint64 // distinct locations with a trie

	// Bounded-mode degradation counters (zero in unbounded mode).
	// Collapses counts locations whose history was discarded under the
	// node budget; NodesCollapsed counts the trie nodes freed by those
	// collapses; CollapseHits counts accesses answered by a collapsed
	// root (each conservatively reported as racing). Together they
	// quantify by how much the detector may be over-reporting.
	Collapses      uint64
	NodesCollapsed uint64
	CollapseHits   uint64
}

// Detector is the per-program trie detector: one trie per location.
type Detector struct {
	tries map[event.Loc]*node
	stats Stats

	// maxNodes caps live trie nodes (0 = unbounded). When the budget
	// is exceeded, whole per-location tries are collapsed — largest
	// first — to a single root summarizing "some prior conflicting
	// access" (t⊥, WRITE, ∅). See node.collapsed.
	maxNodes  int
	liveNodes int

	// intern, when set, supplies immutable canonical locksets for race
	// reports so PriorLocks needs no defensive clone. pathBuf is the
	// reusable traversal scratch for raceCheck/prune paths.
	intern  *event.Interner
	pathBuf event.Lockset
}

// New returns an empty detector with the paper's configuration.
func New() *Detector {
	return &Detector{
		tries:   make(map[event.Loc]*node),
		pathBuf: make(event.Lockset, 0, 64),
	}
}

// SetInterner attaches a lockset interner. Reported PriorLocks are
// then interned canonical slices (immutable, shared) instead of
// per-report clones.
func (d *Detector) SetInterner(it *event.Interner) { d.intern = it }

// priorLocks materializes a traversal path for a race report. The
// traversal scratch buffer is reused across events, so the escaping
// copy must be either interned or cloned.
func (d *Detector) priorLocks(path event.Lockset) event.Lockset {
	if d.intern != nil {
		return d.intern.Lockset(d.intern.Intern(path))
	}
	return path.Clone()
}

// NewBounded returns a detector whose history is capped at maxNodes
// live trie nodes. Under the cap the behavior is identical to New;
// over it, per-location histories are collapsed to a conservative
// summary and the affected locations report strictly more races, never
// fewer (degradation is graceful and quantified in Stats).
func NewBounded(maxNodes int) *Detector {
	d := New()
	d.maxNodes = maxNodes
	return d
}

// Stats returns a copy of the work counters.
func (d *Detector) Stats() Stats { return d.stats }

// NodeCount returns the total number of live trie nodes (space
// metric, compare with the paper's 7967 trie nodes for tsp).
func (d *Detector) NodeCount() int {
	n := 0
	var walk func(*node)
	walk = func(x *node) {
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
func (d *Detector) LocationCount() int { return len(d.tries) }

// Process runs the full §3.2.1 algorithm on one access event. It
// returns (race, info) where race reports whether e races with some
// stored access; info describes the prior access.
//
// The caller is responsible for lockset canonicalization (e.Locks
// sorted, duplicate-free).
func (d *Detector) Process(e event.Access) (bool, RaceInfo) {
	d.stats.Events++
	root := d.tries[e.Loc]
	if root == nil {
		root = newNode()
		d.tries[e.Loc] = root
		d.stats.NodesAllocated++
		d.stats.LocationsStored++
		d.liveNodes++
	}

	// Collapsed location (bounded mode): the discarded history is
	// summarized as "a conflicting access by some other thread with no
	// common lock", so every access conservatively races. Never a
	// silent miss — at worst an over-report, counted in CollapseHits.
	if root.collapsed {
		d.stats.CollapseHits++
		d.stats.Races++
		return true, RaceInfo{PriorThread: event.TBot, PriorLocks: event.Lockset{}, PriorKind: event.Write}
	}

	// 1. Weakness check.
	if d.weaker(root, e.Locks, e) {
		d.stats.WeaknessHits++
		return false, RaceInfo{}
	}

	// 2. Race check.
	d.stats.RaceChecks++
	race, info := false, RaceInfo{}
	d.raceCheck(root, d.pathBuf[:0], e, &race, &info)

	// 3. Update and prune.
	d.update(root, e)

	// 4. Bounded mode: stay under the node budget by collapsing the
	// fattest histories.
	if d.maxNodes > 0 && d.liveNodes > d.maxNodes {
		d.enforceBudget()
	}

	if race {
		d.stats.Races++
	}
	return race, info
}

// subtreeSize counts the nodes of a (sub)trie.
func subtreeSize(x *node) int {
	n := 1
	for _, k := range x.kids {
		n += subtreeSize(k)
	}
	return n
}

// enforceBudget collapses per-location histories, largest first, until
// the live node count is back under the budget. Collapsing replaces a
// trie with a single root holding the weakest summary (t⊥, WRITE, ∅):
// sound for Definition 1 reporting because the summary is weaker than
// everything it replaced — any future access that would have raced
// with the discarded history also "races" with the summary.
func (d *Detector) enforceBudget() {
	type fat struct {
		loc  event.Loc
		size int
	}
	var tries []fat
	for loc, root := range d.tries {
		if !root.collapsed {
			tries = append(tries, fat{loc, subtreeSize(root)})
		}
	}
	// Largest first; ties broken by location so the map iteration
	// order above cannot leak into behavior (replay determinism).
	sort.Slice(tries, func(i, j int) bool {
		if tries[i].size != tries[j].size {
			return tries[i].size > tries[j].size
		}
		if tries[i].loc.Obj != tries[j].loc.Obj {
			return tries[i].loc.Obj < tries[j].loc.Obj
		}
		return tries[i].loc.Slot < tries[j].loc.Slot
	})
	for _, f := range tries {
		if d.liveNodes <= d.maxNodes {
			return
		}
		d.collapse(d.tries[f.loc], f.size)
	}
}

// collapse discards root's history, freeing size-1 nodes.
func (d *Detector) collapse(root *node, size int) {
	root.labels, root.kids = nil, nil
	root.thread = event.TBot
	root.kind = event.Write
	root.collapsed = true
	d.liveNodes -= size - 1
	d.stats.Collapses++
	d.stats.NodesCollapsed += uint64(size - 1)
}

// weaker reports whether some stored access weaker than e exists. It
// walks only edges labeled with locks in rest (a suffix of e.Locks in
// canonical order), so every visited node's lockset is a subset of
// e.Locks.
func (d *Detector) weaker(n *node, rest event.Lockset, e event.Access) bool {
	d.stats.NodesVisited++
	if n.hasAccess() && event.ThreadLeq(n.thread, e.Thread) && event.KindLeq(n.kind, e.Kind) {
		return true
	}
	for i, l := range rest {
		if c := n.child(l); c != nil {
			if d.weaker(c, rest[i+1:], e) {
				return true
			}
		}
	}
	return false
}

// raceCheck performs the Case I/II/III traversal. path is the lockset
// along the way (for reporting).
func (d *Detector) raceCheck(n *node, path event.Lockset, e event.Access, race *bool, info *RaceInfo) {
	if *race {
		return
	}
	d.stats.NodesVisited++
	// Case II at this node?
	if n.hasAccess() {
		tm := event.ThreadMeet(e.Thread, n.thread)
		am := event.KindMeet(e.Kind, n.kind)
		if tm == event.TBot && am == event.Write {
			*race = true
			*info = RaceInfo{
				PriorThread: n.thread,
				PriorLocks:  d.priorLocks(path),
				PriorKind:   n.kind,
			}
			return
		}
	}
	// Case III: traverse children, skipping Case I subtrees.
	for i, l := range n.labels {
		if e.Locks.Contains(l) {
			continue // Case I: shares a lock with everything below
		}
		d.raceCheck(n.kids[i], append(path, l), e, race, info)
		if *race {
			return
		}
	}
}

// update meets e into the node for exactly e.Locks and prunes stored
// accesses that the updated node makes redundant.
func (d *Detector) update(root *node, e event.Access) {
	n := root
	for _, l := range e.Locks {
		c, created := n.ensureChild(l)
		if created {
			d.stats.NodesAllocated++
			d.liveNodes++
		}
		n = c
	}
	if !n.hasAccess() {
		n.thread = e.Thread
		n.kind = e.Kind
	} else {
		n.thread = event.ThreadMeet(n.thread, e.Thread)
		n.kind = event.KindMeet(n.kind, e.Kind)
	}

	// Prune accesses stronger than the updated node: every stored
	// access p with n ⊑ p (n weaker) can be dropped. Such p live at
	// nodes whose path is a superset of e.Locks, i.e. in the subtree
	// reachable from root via supersets — we walk the whole trie and
	// match Definition 2 per node.
	weak := event.Access{Loc: e.Loc, Thread: n.thread, Locks: e.Locks, Kind: n.kind}
	d.prune(root, d.pathBuf[:0], weak, n)
	d.sweep(root)
}

// prune clears nodes holding accesses stronger than w (skipping keep,
// the node just updated).
func (d *Detector) prune(x *node, path event.Lockset, w event.Access, keep *node) {
	if x != keep && x.hasAccess() {
		stored := event.Access{Loc: w.Loc, Thread: x.thread, Locks: path, Kind: x.kind}
		if event.WeakerThan(w, stored) {
			x.clear()
			d.stats.NodesPruned++
		}
	}
	// A full walk is simple and the per-location tries are small;
	// WeakerThan's subset check rejects non-superset paths anyway.
	for i, l := range x.labels {
		d.prune(x.kids[i], append(path, l), w, keep)
	}
}

// sweep removes childless no-access nodes bottom-up.
func (d *Detector) sweep(x *node) bool {
	outL, outK := x.labels[:0], x.kids[:0]
	for i, k := range x.kids {
		if d.sweep(k) {
			outL = append(outL, x.labels[i])
			outK = append(outK, k)
		} else {
			d.liveNodes--
		}
	}
	x.labels, x.kids = outL, outK
	return x.hasAccess() || len(x.kids) > 0
}
