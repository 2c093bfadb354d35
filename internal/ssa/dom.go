// Package ssa provides the dataflow machinery the compile-time
// optimizations of §6 need: dominator trees, dominance frontiers, an
// SSA overlay (reaching-definition identities without rewriting the
// executable IR), and hash-based global value numbering.
//
// The paper performs its static weaker-than elimination inside
// Jalapeño after conversion to SSA form, "utilizing an existing value
// numbering phase"; this package is the equivalent infrastructure for
// the MJ IR.
package ssa

import "racedet/internal/ir"

// DomTree is the dominator tree of a function's CFG, computed with the
// Cooper–Harvey–Kennedy iterative algorithm over a reverse postorder.
type DomTree struct {
	fn *ir.Func

	// rpo lists reachable blocks in reverse postorder; rpoIndex maps
	// block ID to its position (-1 for unreachable blocks).
	rpo      []*ir.Block
	rpoIndex []int

	// idom maps block ID to the immediate dominator (nil for entry and
	// unreachable blocks).
	idom []*ir.Block

	// children is the dominator tree adjacency (block ID → dominated).
	children [][]*ir.Block
}

// BuildDomTree computes the dominator tree for fn.
func BuildDomTree(fn *ir.Func) *DomTree {
	t := &DomTree{fn: fn}
	t.rpo = fn.ReachableBlocks()
	n := len(fn.Blocks)
	t.rpoIndex = make([]int, n)
	for i := range t.rpoIndex {
		t.rpoIndex[i] = -1
	}
	for i, b := range t.rpo {
		t.rpoIndex[b.ID] = i
	}
	t.idom = make([]*ir.Block, n)

	if len(t.rpo) == 0 {
		t.children = make([][]*ir.Block, n)
		return t
	}
	entry := t.rpo[0]
	t.idom[entry.ID] = entry

	changed := true
	for changed {
		changed = false
		for _, b := range t.rpo[1:] {
			var newIdom *ir.Block
			for _, p := range b.Preds {
				if t.rpoIndex[p.ID] < 0 || t.idom[p.ID] == nil {
					continue // unreachable or not yet processed
				}
				if newIdom == nil {
					newIdom = p
				} else {
					newIdom = t.intersect(p, newIdom)
				}
			}
			if newIdom != nil && t.idom[b.ID] != newIdom {
				t.idom[b.ID] = newIdom
				changed = true
			}
		}
	}
	// Entry's idom is conventionally nil for clients.
	t.idom[entry.ID] = nil

	t.children = make([][]*ir.Block, n)
	for _, b := range t.rpo {
		if id := t.idom[b.ID]; id != nil {
			t.children[id.ID] = append(t.children[id.ID], b)
		}
	}
	return t
}

func (t *DomTree) intersect(a, b *ir.Block) *ir.Block {
	for a != b {
		for t.rpoIndex[a.ID] > t.rpoIndex[b.ID] {
			a = t.idom[a.ID]
		}
		for t.rpoIndex[b.ID] > t.rpoIndex[a.ID] {
			b = t.idom[b.ID]
		}
	}
	return a
}

// Children returns the blocks immediately dominated by b.
func (t *DomTree) Children(b *ir.Block) []*ir.Block { return t.children[b.ID] }

// RPO returns reachable blocks in reverse postorder (entry first).
func (t *DomTree) RPO() []*ir.Block { return t.rpo }

// Reachable reports whether b is reachable from entry.
func (t *DomTree) Reachable(b *ir.Block) bool { return t.rpoIndex[b.ID] >= 0 }

// Dominates reports whether a dominates b (reflexive).
func (t *DomTree) Dominates(a, b *ir.Block) bool {
	if !t.Reachable(a) || !t.Reachable(b) {
		return false
	}
	for x := b; x != nil; x = t.idom[x.ID] {
		if x == a {
			return true
		}
	}
	return false
}

// DominatesInstr reports whether instruction i (in block bi, position
// pi) dominates instruction j (in block bj, position pj): either i
// precedes j in the same block, or i's block strictly dominates j's.
func (t *DomTree) DominatesInstr(bi *ir.Block, pi int, bj *ir.Block, pj int) bool {
	if bi == bj {
		return pi < pj
	}
	return t.Dominates(bi, bj)
}

// Frontiers computes dominance frontiers (Cytron et al.): DF(b) is the
// set of blocks where b's dominance stops, the phi-placement sites.
func (t *DomTree) Frontiers() map[*ir.Block][]*ir.Block {
	df := make(map[*ir.Block][]*ir.Block)
	seen := make(map[*ir.Block]map[*ir.Block]bool)
	add := func(b, f *ir.Block) {
		if seen[b] == nil {
			seen[b] = make(map[*ir.Block]bool)
		}
		if !seen[b][f] {
			seen[b][f] = true
			df[b] = append(df[b], f)
		}
	}
	for _, b := range t.rpo {
		if len(b.Preds) < 2 {
			continue
		}
		for _, p := range b.Preds {
			if !t.Reachable(p) {
				continue
			}
			runner := p
			for runner != nil && runner != t.idom[b.ID] {
				add(runner, b)
				runner = t.idom[runner.ID]
			}
		}
	}
	return df
}
