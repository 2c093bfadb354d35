// Package instrument implements the optimized-instrumentation phase
// of the paper (§6): inserting trace pseudo-instructions after memory
// accesses, eliminating statically redundant traces with the static
// weaker-than relation, and the loop-peeling transformation (§6.3)
// that exposes in-loop traces to that elimination.
package instrument

import (
	"racedet/internal/ir"
)

// Stats reports what instrumentation did to one function or program.
type Stats struct {
	Accesses    int // heap access instructions seen
	Inserted    int // traces inserted
	Eliminated  int // traces removed by the static weaker-than relation
	LoopsPeeled int
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.Accesses += s2.Accesses
	s.Inserted += s2.Inserted
	s.Eliminated += s2.Eliminated
	s.LoopsPeeled += s2.LoopsPeeled
}

// Filter decides whether an access instruction gets a trace. A nil
// Filter instruments everything (the paper's default when static
// datarace analysis is skipped).
type Filter func(*ir.Instr) bool

// InsertTraces inserts one OpTrace after every heap-access instruction
// accepted by filter. The trace copies the access's object register,
// field, kind, source position, and synchronized-region stack.
func InsertTraces(f *ir.Func, filter Filter) Stats {
	var st Stats
	for _, b := range f.Blocks {
		out := make([]*ir.Instr, 0, len(b.Instrs)*2)
		for _, in := range b.Instrs {
			out = append(out, in)
			if !in.IsAccess() {
				continue
			}
			st.Accesses++
			if filter != nil && !filter(in) {
				continue
			}
			kind, isArray, refReg, field := in.AccessInfo()
			name := "[]"
			if field != nil {
				name = field.QualifiedName()
			}
			tr := &ir.Instr{
				Op:           ir.OpTrace,
				Dst:          ir.NoReg,
				Access:       kind,
				IsArrayTrace: isArray,
				Field:        field,
				TraceName:    name,
				SyncRegions:  in.SyncRegions,
				Pos:          in.Pos,
			}
			if refReg != ir.NoReg {
				tr.Src = []int{refReg}
			}
			out = append(out, tr)
			st.Inserted++
		}
		b.Instrs = out
	}
	return st
}

// Options configures the static elimination.
type Options struct {
	// NoDominators disables the §6.1 static weaker-than elimination
	// (Table 2 "NoDominators").
	NoDominators bool
}

// outer implements outer(S_i, S_j): S_j is at the same synchronized
// nesting level as S_i or deeper within S_i's innermost region —
// lexically, S_i's region stack is a prefix of S_j's.
func outer(si, sj []int) bool {
	if len(si) > len(sj) {
		return false
	}
	for k := range si {
		if si[k] != sj[k] {
			return false
		}
	}
	return true
}

// reachability is a dense transitive-closure over blocks.
type reachability struct {
	n    int
	bits []uint64 // n x ceil(n/64)
	w    int
}

func blockReachability(f *ir.Func) *reachability {
	n := len(f.Blocks)
	w := (n + 63) / 64
	r := &reachability{n: n, bits: make([]uint64, n*w), w: w}
	// DFS from each block following successor edges.
	for _, b := range f.Blocks {
		stack := []*ir.Block{b}
		seen := make([]bool, n)
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range x.Succs {
				if !seen[s.ID] {
					seen[s.ID] = true
					r.bits[b.ID*w+s.ID/64] |= 1 << (uint(s.ID) % 64)
					stack = append(stack, s)
				}
			}
		}
	}
	return r
}

// reaches reports whether b can reach c via one or more edges.
func (r *reachability) reaches(b, c *ir.Block) bool {
	return r.bits[b.ID*r.w+c.ID/64]&(1<<(uint(c.ID)%64)) != 0
}
