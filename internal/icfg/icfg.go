// Package icfg builds the interthread call graph (ICG) of §5.2 — the
// interprocedural abstraction of the interthread control flow graph —
// and runs the two analyses the static datarace conditions need on it:
//
//   - MustSync: the set of synchronization objects that are always
//     held at a node (the SO dataflow of §5.3), and
//   - MustThread: the must points-to sets of the thread roots that can
//     reach a node along intrathread paths.
//
// ICG nodes exist per method and per synchronized block (a notable
// difference from standard call graphs, as the paper points out);
// start edges are the only interthread edges, and they cut both
// analyses: a thread root begins with no locks and a fresh thread.
package icfg

import (
	"fmt"
	"sort"

	"racedet/internal/ir"
	"racedet/internal/lower"
	"racedet/internal/pointsto"
)

// Node is an ICG node: a method, or one synchronized region of a
// method (including the method-level region of synchronized methods).
type Node struct {
	ID     int
	Fn     *ir.Func
	Region *lower.SyncRegion // nil for the method node

	// Preds are the intrathread predecessor nodes: callers' containing
	// nodes for method nodes, the lexically enclosing node for region
	// nodes. Thread-root method nodes have no intrathread preds.
	Preds []*Node

	// ThreadRoot marks main and start-invoked run methods.
	ThreadRoot bool
}

func (n *Node) String() string {
	if n.Region == nil {
		return n.Fn.Name
	}
	return fmt.Sprintf("%s/sync%d", n.Fn.Name, n.Region.ID)
}

// Graph is the ICG plus the analysis results.
type Graph struct {
	prog  *ir.Program
	low   *lower.Result
	pts   *pointsto.Result
	nodes []*Node

	methodNode map[*ir.Func]*Node
	regionNode map[*ir.Func][]*Node // by region ID

	// mustSync[node] = SO_out: abstract lock objects always held.
	mustSync map[*Node]pointsto.ObjSet

	// roots are the thread-root method nodes (main + started runs).
	roots []*Node

	// rootReach[fn] = set of roots that reach fn intrathread.
	rootReach map[*ir.Func]map[*Node]struct{}

	// mustThread[fn] = ∩ over reaching roots of MustPT(root.this).
	mustThread map[*ir.Func]pointsto.ObjSet

	// rootThis memoizes each root's receiver must points-to set.
	rootThis map[*Node]pointsto.ObjSet
}

// Build constructs the ICG and runs its dataflow analyses.
func Build(prog *ir.Program, low *lower.Result, pts *pointsto.Result) *Graph {
	g := &Graph{
		prog:       prog,
		low:        low,
		pts:        pts,
		methodNode: make(map[*ir.Func]*Node),
		regionNode: make(map[*ir.Func][]*Node),
		mustSync:   make(map[*Node]pointsto.ObjSet),
		rootReach:  make(map[*ir.Func]map[*Node]struct{}),
		mustThread: make(map[*ir.Func]pointsto.ObjSet),
	}
	g.buildNodes()
	g.wireEdges()
	g.findRoots()
	g.solveMustSync()
	g.solveMustThread()
	return g
}

func (g *Graph) newNode(n *Node) *Node {
	n.ID = len(g.nodes)
	g.nodes = append(g.nodes, n)
	return n
}

func (g *Graph) buildNodes() {
	for _, fn := range g.prog.Funcs {
		g.methodNode[fn] = g.newNode(&Node{Fn: fn})
		info := g.low.Infos[fn]
		if info == nil {
			continue
		}
		regions := make([]*Node, len(info.Regions))
		for i, reg := range info.Regions {
			regions[i] = g.newNode(&Node{Fn: fn, Region: reg})
		}
		g.regionNode[fn] = regions
	}
}

// NodeOfInstr returns the ICG node containing an instruction, using
// its synchronized-region stamp (innermost region, else the method).
func (g *Graph) NodeOfInstr(fn *ir.Func, in *ir.Instr) *Node {
	if len(in.SyncRegions) > 0 {
		id := in.SyncRegions[len(in.SyncRegions)-1]
		if regions := g.regionNode[fn]; id < len(regions) {
			return regions[id]
		}
	}
	return g.methodNode[fn]
}

func (g *Graph) wireEdges() {
	addPred := func(n, p *Node) {
		for _, x := range n.Preds {
			if x == p {
				return
			}
		}
		n.Preds = append(n.Preds, p)
	}

	// Region nodes: pred is the enclosing region or the method node.
	for _, fn := range g.prog.Funcs {
		info := g.low.Infos[fn]
		if info == nil {
			continue
		}
		// Determine each region's parent by scanning instruction
		// stamps: the region whose stack ends with [.., parent, id].
		parents := make(map[int]int) // region ID -> parent region ID (-1 = method)
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				st := in.SyncRegions
				for i, id := range st {
					if i == 0 {
						parents[id] = -1
					} else {
						parents[id] = st[i-1]
					}
				}
			}
		}
		for id, node := range g.regionNode[fn] {
			parent, ok := parents[id]
			if !ok || parent < 0 {
				addPred(node, g.methodNode[fn])
			} else {
				addPred(node, g.regionNode[fn][parent])
			}
		}
	}

	// Method nodes: preds are the nodes containing their call sites.
	for _, fn := range g.prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				from := g.NodeOfInstr(fn, in)
				for _, callee := range g.pts.Callees[in] {
					addPred(g.methodNode[callee], from)
				}
			}
		}
	}
}

func (g *Graph) findRoots() {
	mainFn := g.prog.FuncOf[g.prog.Sem.Main]
	if mainFn != nil {
		n := g.methodNode[mainFn]
		n.ThreadRoot = true
		g.roots = append(g.roots, n)
	}
	seen := make(map[*Node]bool)
	for _, fn := range g.prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpStart {
					continue
				}
				for _, runFn := range g.pts.StartTargets[in] {
					n := g.methodNode[runFn]
					if !seen[n] {
						seen[n] = true
						n.ThreadRoot = true
						g.roots = append(g.roots, n)
					}
				}
			}
		}
	}
}

// solveMustSync runs the SO dataflow of §5.3:
//
//	Gen(n)   = MustPT(u_n) for synchronized nodes, ∅ otherwise
//	SO_in(n) = ∩_{p ∈ Pred(n)} SO_out(p)   (∅ for thread roots)
//	SO_out(n) = SO_in(n) ∪ Gen(n)
//
// Initialization is optimistic (⊤ = all objects) and iteration only
// shrinks sets, converging to the greatest fixed point.
func (g *Graph) solveMustSync() {
	all := pointsto.ObjSet{}
	for _, o := range g.pts.Objects() {
		all[o] = struct{}{}
	}

	gen := func(n *Node) pointsto.ObjSet {
		s := pointsto.ObjSet{}
		if n.Region != nil {
			if o := g.pts.MustPts(n.Fn, n.Region.LockReg); o != nil {
				s[o] = struct{}{}
			}
		}
		return s
	}

	out := make(map[*Node]pointsto.ObjSet)
	for _, n := range g.nodes {
		if n.ThreadRoot {
			out[n] = gen(n)
		} else {
			out[n] = all
		}
	}

	changed := true
	for changed {
		changed = false
		for _, n := range g.nodes {
			var in pointsto.ObjSet
			if n.ThreadRoot || len(n.Preds) == 0 {
				in = pointsto.ObjSet{}
			} else {
				for i, p := range n.Preds {
					if i == 0 {
						in = cloneSet(out[p])
					} else {
						in = intersect(in, out[p])
					}
				}
			}
			newOut := union(in, gen(n))
			if !sameSet(newOut, out[n]) {
				out[n] = newOut
				changed = true
			}
		}
	}
	g.mustSync = out
}

// MustSyncOf returns the abstract lock objects always held at an
// instruction: SO_out of its containing node.
func (g *Graph) MustSyncOf(fn *ir.Func, in *ir.Instr) pointsto.ObjSet {
	n := g.NodeOfInstr(fn, in)
	if s := g.mustSync[n]; s != nil {
		return s
	}
	return pointsto.ObjSet{}
}

// solveMustThread computes, per function, the intersection over all
// intrathread-reaching thread roots of the root receiver's must
// points-to set (Equation 3). The main root contributes the synthetic
// main-thread object.
func (g *Graph) solveMustThread() {
	// Intrathread reachability over call edges: root method → callees.
	callees := make(map[*ir.Func][]*ir.Func)
	for _, fn := range g.prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					callees[fn] = append(callees[fn], g.pts.Callees[in]...)
				}
			}
		}
	}
	for _, root := range g.roots {
		seen := map[*ir.Func]bool{}
		stack := []*ir.Func{root.Fn}
		for len(stack) > 0 {
			fn := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[fn] {
				continue
			}
			seen[fn] = true
			set := g.rootReach[fn]
			if set == nil {
				set = make(map[*Node]struct{})
				g.rootReach[fn] = set
			}
			set[root] = struct{}{}
			stack = append(stack, callees[fn]...)
		}
	}

	mainFn := g.prog.FuncOf[g.prog.Sem.Main]
	rootThis := func(root *Node) pointsto.ObjSet {
		if root.Fn == mainFn {
			return pointsto.ObjSet{g.pts.MainObj(): struct{}{}}
		}
		if o := g.pts.MustPts(root.Fn, 0); o != nil {
			return pointsto.ObjSet{o: struct{}{}}
		}
		return pointsto.ObjSet{}
	}

	for _, fn := range g.prog.Funcs {
		roots := g.rootReach[fn]
		var mt pointsto.ObjSet
		first := true
		for root := range roots {
			rt := rootThisMemo(g, root, rootThis)
			if first {
				mt = cloneSet(rt)
				first = false
			} else {
				mt = intersect(mt, rt)
			}
		}
		if mt == nil {
			mt = pointsto.ObjSet{}
		}
		g.mustThread[fn] = mt
	}
}

// rootThisMemo caches rootThis per root within one Build (the cache
// lives on the Graph to avoid cross-build leakage).
func rootThisMemo(g *Graph, root *Node, f func(*Node) pointsto.ObjSet) pointsto.ObjSet {
	if g.rootThis == nil {
		g.rootThis = make(map[*Node]pointsto.ObjSet)
	}
	if s, ok := g.rootThis[root]; ok {
		return s
	}
	s := f(root)
	g.rootThis[root] = s
	return s
}

// MustThreadOf returns MustThread(u) for any instruction of fn.
func (g *Graph) MustThreadOf(fn *ir.Func) pointsto.ObjSet {
	if s := g.mustThread[fn]; s != nil {
		return s
	}
	return pointsto.ObjSet{}
}

// ReachingRoots lists the thread roots reaching fn (sorted, for dumps).
func (g *Graph) ReachingRoots(fn *ir.Func) []*Node {
	set := g.rootReach[fn]
	out := make([]*Node, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ---------------------------------------------------------------------------
// small set helpers

func cloneSet(s pointsto.ObjSet) pointsto.ObjSet {
	out := pointsto.ObjSet{}
	for o := range s {
		out[o] = struct{}{}
	}
	return out
}

func intersect(a, b pointsto.ObjSet) pointsto.ObjSet {
	out := pointsto.ObjSet{}
	for o := range a {
		if b.Has(o) {
			out[o] = struct{}{}
		}
	}
	return out
}

func union(a, b pointsto.ObjSet) pointsto.ObjSet {
	out := cloneSet(a)
	for o := range b {
		out[o] = struct{}{}
	}
	return out
}

func sameSet(a, b pointsto.ObjSet) bool {
	if len(a) != len(b) {
		return false
	}
	for o := range a {
		if !b.Has(o) {
			return false
		}
	}
	return true
}
