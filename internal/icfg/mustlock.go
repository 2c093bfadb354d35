// Must-held-lockset dataflow: a flow-sensitive strengthening of the
// region-based SO analysis in this package. Where solveMustSync
// reasons about lexical synchronized regions, BuildMustLock tracks the
// set of abstract lock objects provably held immediately before every
// instruction, with a context-insensitive call-edge summary: the locks
// held at a function's entry are the intersection, over all of its
// call sites, of the locks held at the call. Thread roots (main and
// started run methods) enter with no locks — a start edge cuts the
// lockset exactly as it cuts the SO dataflow.
package icfg

import (
	"racedet/internal/ir"
	"racedet/internal/pointsto"
)

// MustLock is the fixed point of the must-held-lockset dataflow.
//
// Lock sets are immutable once stored: the transfer and the meet
// return a new set only when they change one, so a run of instructions
// between monitor ops shares one set. ⊤ — every abstract object — is
// the nil set during the iteration; it is materialized (once, into
// all) only where a monitorexit or wait subtracts from it, or where a
// final At or Entry result is ⊤.
type MustLock struct {
	g     *Graph
	nObjs int             // |⊤|: every held set is a subset of the objects
	all   pointsto.ObjSet // materialized ⊤, nil until first needed
	none  pointsto.ObjSet // the shared empty set
	entry map[*ir.Func]pointsto.ObjSet
	at    map[*ir.Instr]pointsto.ObjSet
	out   map[*ir.Block]pointsto.ObjSet // flowFn scratch: block out-states
}

// callSite is one call edge origin: the instruction and its function.
type callSite struct {
	fn *ir.Func
	in *ir.Instr
}

// BuildMustLock runs the dataflow to its greatest fixed point.
//
// Transfer functions (per instruction, on the set ML of held locks):
//
//	monitorenter u   ML ∪= {MustPT(u)}        (nothing if u has no must object)
//	monitorexit  u   ML −= MayPT(u)           (∅ if MayPT unknown: some lock was released)
//	wait         u   ML −= MayPT(u)           (the monitor is released while waiting)
//	call / start     identity                  (monitors are lexically scoped; a callee
//	                                            cannot release a caller's lock, and wait
//	                                            reacquires before returning)
//
// Block join is set intersection; the entry block of f starts from the
// call-edge summary E(f) = ∩ over call sites of ML before the call,
// with E = ∅ for thread roots and for functions without call sites.
// Everything is initialized optimistically (⊤ = all abstract objects)
// and only ever shrinks, so the iteration converges to the greatest
// fixed point and the result is deterministic.
func BuildMustLock(g *Graph) *MustLock {
	m := &MustLock{
		g:     g,
		nObjs: len(g.pts.Objects()),
		none:  pointsto.ObjSet{},
		entry: make(map[*ir.Func]pointsto.ObjSet),
		out:   make(map[*ir.Block]pointsto.ObjSet),
	}

	nInstrs := 0
	sites := make(map[*ir.Func][]callSite)
	for _, fn := range g.prog.Funcs {
		for _, b := range fn.Blocks {
			nInstrs += len(b.Instrs)
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				for _, callee := range g.pts.Callees[in] {
					sites[callee] = append(sites[callee], callSite{fn, in})
				}
			}
		}
	}
	rootFn := make(map[*ir.Func]bool)
	for _, r := range g.roots {
		rootFn[r.Fn] = true
	}

	for _, fn := range g.prog.Funcs {
		if rootFn[fn] || len(sites[fn]) == 0 {
			m.entry[fn] = m.none
		} else {
			m.entry[fn] = nil // ⊤
		}
	}

	// Outer fixpoint over entry summaries: flow every function, read
	// off ML before each call, tighten callee entries, repeat.
	mlAtCall := make(map[*ir.Instr]pointsto.ObjSet)
	changed := true
	for changed {
		changed = false
		for _, fn := range g.prog.Funcs {
			m.flowFn(fn, func(in *ir.Instr, ml pointsto.ObjSet) {
				if in.Op == ir.OpCall {
					mlAtCall[in] = ml
				}
			})
		}
		for _, fn := range g.prog.Funcs {
			if rootFn[fn] || len(sites[fn]) == 0 {
				continue
			}
			var e pointsto.ObjSet
			for i, s := range sites[fn] {
				if i == 0 {
					e = mlAtCall[s.in]
				} else {
					e = meet(e, mlAtCall[s.in])
				}
			}
			if !m.same(e, m.entry[fn]) {
				m.entry[fn] = e
				changed = true
			}
		}
	}

	// Final pass records the per-instruction before-states; a ⊤ that
	// survives to a result is materialized here, so At and Entry only
	// read.
	m.at = make(map[*ir.Instr]pointsto.ObjSet, nInstrs)
	for _, fn := range g.prog.Funcs {
		m.flowFn(fn, func(in *ir.Instr, ml pointsto.ObjSet) {
			if ml == nil {
				ml = m.top()
			}
			m.at[in] = ml
		})
		if m.entry[fn] == nil {
			m.entry[fn] = m.top()
		}
	}
	m.out = nil
	return m
}

// flowFn runs the intraprocedural block fixpoint for one function from
// its current entry summary and replays the stable solution through
// record with the ML state holding immediately before each instruction.
func (m *MustLock) flowFn(fn *ir.Func, record func(*ir.Instr, pointsto.ObjSet)) {
	out := m.out
	clear(out) // a missing block reads nil: every out-state starts at ⊤
	blockIn := func(b *ir.Block) pointsto.ObjSet {
		if b == fn.Entry {
			return m.entry[fn]
		}
		if len(b.Preds) == 0 {
			return m.none
		}
		in := out[b.Preds[0]]
		for _, p := range b.Preds[1:] {
			in = meet(in, out[p])
		}
		return in
	}
	changed := true
	for changed {
		changed = false
		for _, b := range fn.Blocks {
			ml := blockIn(b)
			for _, in := range b.Instrs {
				ml = m.transfer(fn, in, ml)
			}
			if !m.same(ml, out[b]) {
				out[b] = ml
				changed = true
			}
		}
	}
	for _, b := range fn.Blocks {
		ml := blockIn(b)
		for _, in := range b.Instrs {
			record(in, ml)
			ml = m.transfer(fn, in, ml)
		}
	}
}

// transfer returns the lock set after in executes, given the set ml
// before it. It never mutates ml: when in leaves the set unchanged it
// returns ml itself, otherwise a fresh set.
func (m *MustLock) transfer(fn *ir.Func, in *ir.Instr, ml pointsto.ObjSet) pointsto.ObjSet {
	switch in.Op {
	case ir.OpMonEnter:
		o := m.g.pts.MustPts(fn, in.Src[0])
		if o == nil || ml == nil || ml.Has(o) {
			return ml // no must object, or already held (⊤ holds every object)
		}
		out := make(pointsto.ObjSet, len(ml)+1)
		for p := range ml {
			out[p] = struct{}{}
		}
		out[o] = struct{}{}
		return out
	case ir.OpMonExit, ir.OpWait:
		vp := m.g.pts.VarPts(fn, in.Src[0])
		if len(vp) == 0 {
			return m.none
		}
		if ml == nil {
			ml = m.top()
		}
		if !ml.Intersects(vp) {
			return ml
		}
		out := make(pointsto.ObjSet, len(ml))
		for o := range ml {
			if !vp.Has(o) {
				out[o] = struct{}{}
			}
		}
		return out
	}
	return ml
}

// meet intersects two lock sets (nil is ⊤). When one operand is a
// subset of the other it is returned as is.
func meet(a, b pointsto.ObjSet) pointsto.ObjSet {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	n := 0
	for o := range a {
		if b.Has(o) {
			n++
		}
	}
	if n == len(a) {
		return a
	}
	out := make(pointsto.ObjSet, n)
	for o := range a {
		if b.Has(o) {
			out[o] = struct{}{}
		}
	}
	return out
}

// same reports whether two lock sets (nil is ⊤) hold the same objects.
// A set equals ⊤ when it holds every object: held sets never leave the
// object universe.
func (m *MustLock) same(a, b pointsto.ObjSet) bool {
	switch {
	case a == nil && b == nil:
		return true
	case a == nil:
		return len(b) == m.nObjs
	case b == nil:
		return len(a) == m.nObjs
	}
	return sameSet(a, b)
}

// top returns ⊤ materialized, building it on first use.
func (m *MustLock) top() pointsto.ObjSet {
	if m.all == nil {
		m.all = make(pointsto.ObjSet, m.nObjs)
		for _, o := range m.g.pts.Objects() {
			m.all[o] = struct{}{}
		}
	}
	return m.all
}

// At returns the locks provably held immediately before in executes.
// The set may be shared with other instructions: callers must not
// mutate it.
func (m *MustLock) At(in *ir.Instr) pointsto.ObjSet {
	if s := m.at[in]; s != nil {
		return s
	}
	return pointsto.ObjSet{}
}

// Entry returns the call-edge summary E(fn): locks provably held at
// every entry to fn. The set may be shared: callers must not mutate it.
func (m *MustLock) Entry(fn *ir.Func) pointsto.ObjSet {
	if s := m.entry[fn]; s != nil {
		return s
	}
	return pointsto.ObjSet{}
}
