// Interprocedural extension of the §6 static weaker-than elimination.
//
// The paper's Definition 3/4 redundancy is intraprocedural: any method
// invocation between S_i and S_j is a barrier, because the callee could
// enter a monitor and change the lockset. This file recovers the
// eliminations that conservatism loses, in three coordinated steps:
//
//  1. Sync-free calls are not barriers. A call whose every resolved
//     target is transitively free of monitor/thread operations cannot
//     change the lockset, so Exec may cross it (the "relaxed" barrier
//     predicate). Calls with unresolved targets stay barriers.
//
//  2. Stable-field value numbering. Loads of init-only fields (written
//     exactly once, through `this`, in a constructor, not in a loop)
//     are value-numbered by (field, receiver), so two loads of the same
//     field off the same object compare equal. Under the §5.4
//     constructor-publication assumption the field has one published
//     value; within the constructing invocation it steps null→v once,
//     and a null access aborts before any later access it could cover.
//
//  3. Cross-call coverage. Bottom-up over the call graph, each
//     sync-free non-recursive function exports MustTrace facts —
//     locations (parameter, field) provably traced on every path from
//     entry to return. At a call site with a single resolved sync-free
//     target, the callee's facts become *virtual* trace points that can
//     eliminate caller traces after the call (pass 1). Conversely, a
//     surviving trace of a parameter location in a sync-free callee is
//     eliminated when every call site is preceded by a covering trace
//     of the argument (pass 2, entry coverage). Pass-2 covers are
//     pinned so a cover is never itself eliminated later; pass-1 fact
//     sources need no pinning — if pass 2 kills a fact's source, the
//     entry cover that justified the kill covers the caller's victim
//     transitively (prefix outer(), concatenated barrier-free paths,
//     Write-bottom access lattice).
package instrument

import (
	"sort"

	"racedet/internal/ir"
	"racedet/internal/lang/sem"
	"racedet/internal/lang/token"
	"racedet/internal/pointsto"
	"racedet/internal/ssa"
)

// Fact is one MustTrace summary entry of a sync-free function: the
// location (Param, Field, IsArray) is traced with access kind Acc on
// every path from entry to return. Param is the parameter index whose
// entry value is the traced object; -1 for static fields. Src/SrcFn
// name a representative source trace for reporting.
type Fact struct {
	Param   int
	Field   *sem.Field
	IsArray bool
	Acc     ir.AccessKind
	Src     *ir.Instr
	SrcFn   *ir.Func
}

// callRef is one OpCall occurrence: the calling function, the block
// and instruction index of the call, and the instruction itself.
type callRef struct {
	fn    *ir.Func
	block *ir.Block
	pos   int
	in    *ir.Instr
}

// Interproc holds the whole-program facts the interprocedural
// elimination needs: which functions are sync-free, which fields are
// init-only, the thread roots, call sites per callee, a bottom-up
// processing order, and the per-function MustTrace summaries.
type Interproc struct {
	prog       *ir.Program
	pts        *pointsto.Result
	syncFree   map[*ir.Func]bool
	stable     map[*sem.Field]bool
	threadRoot map[*ir.Func]bool
	callSites  map[*ir.Func][]callRef
	order      []*ir.Func // callees before callers (SCCs contiguous)
	recursive  map[*ir.Func]bool
	summaries  map[*ir.Func][]Fact
}

// BuildInterproc computes the whole-program side tables.
func BuildInterproc(prog *ir.Program, pts *pointsto.Result) *Interproc {
	ip := &Interproc{
		prog:       prog,
		pts:        pts,
		syncFree:   make(map[*ir.Func]bool),
		stable:     make(map[*sem.Field]bool),
		threadRoot: make(map[*ir.Func]bool),
		callSites:  make(map[*ir.Func][]callRef),
		recursive:  make(map[*ir.Func]bool),
		summaries:  make(map[*ir.Func][]Fact),
	}
	ip.findStableFields()
	ip.findSyncFree()
	if main := prog.FuncOf[prog.Sem.Main]; main != nil {
		ip.threadRoot[main] = true
	}
	for _, runs := range pts.StartTargets {
		for _, f := range runs {
			ip.threadRoot[f] = true
		}
	}
	for _, fn := range prog.Funcs {
		for _, b := range fn.Blocks {
			for i, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				for _, callee := range pts.Callees[in] {
					ip.callSites[callee] = append(ip.callSites[callee], callRef{fn, b, i, in})
				}
			}
		}
	}
	ip.orderFuncs()
	return ip
}

// findStableFields marks instance fields that are provably init-only:
// exactly one putfield instruction program-wide, whose receiver is the
// literal `this` register of a constructor, not inside a loop. Such a
// field steps default(null) → v at most once per object; a load that
// observes null aborts the access that would use it, so merging load
// value numbers by (field, receiver) never equates two live objects.
func (ip *Interproc) findStableFields() {
	writes := make(map[*sem.Field]int)
	bad := make(map[*sem.Field]bool)
	seen := make(map[*sem.Field]bool)
	for _, fn := range ip.prog.Funcs {
		var reach *reachability
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpGetField:
					seen[in.Field] = true
				case ir.OpPutField:
					seen[in.Field] = true
					writes[in.Field]++
					if fn.Method == nil || !fn.Method.IsCtor || in.Src[0] != 0 {
						bad[in.Field] = true
						continue
					}
					if reach == nil {
						reach = blockReachability(fn)
					}
					if reach.reaches(b, b) {
						bad[in.Field] = true // written in a loop
					}
				}
			}
		}
	}
	for f := range seen {
		if !f.Static && !bad[f] && writes[f] <= 1 {
			ip.stable[f] = true
		}
	}
}

// findSyncFree computes the greatest set of functions containing no
// monitor or thread operation, transitively: a pessimistic fixpoint
// that demotes a function if it has a monitor/wait/notify/start/join
// instruction, a call with no resolved target, or a call to a function
// already demoted.
func (ip *Interproc) findSyncFree() {
	for _, fn := range ip.prog.Funcs {
		ip.syncFree[fn] = true
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range ip.prog.Funcs {
			if !ip.syncFree[fn] {
				continue
			}
			if !ip.fnSyncFree(fn) {
				ip.syncFree[fn] = false
				changed = true
			}
		}
	}
}

func (ip *Interproc) fnSyncFree(fn *ir.Func) bool {
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpMonEnter, ir.OpMonExit, ir.OpWait, ir.OpNotify, ir.OpNotifyAll,
				ir.OpStart, ir.OpJoin:
				return false
			case ir.OpCall:
				cs := ip.pts.Callees[in]
				if len(cs) == 0 {
					return false
				}
				for _, c := range cs {
					if !ip.syncFree[c] {
						return false
					}
				}
			}
		}
	}
	return true
}

// orderFuncs runs Tarjan's SCC algorithm over the call graph and emits
// functions callees-first (Tarjan pops an SCC only after every SCC it
// reaches), marking recursive functions (SCC size > 1 or self-loop).
func (ip *Interproc) orderFuncs() {
	n := len(ip.prog.Funcs)
	idx := make(map[*ir.Func]int, n)
	for i, f := range ip.prog.Funcs {
		idx[f] = i
	}
	succs := make([][]int, n)
	self := make([]bool, n)
	for i, f := range ip.prog.Funcs {
		dedup := make(map[int]bool)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				for _, c := range ip.pts.Callees[in] {
					j := idx[c]
					if j == i {
						self[i] = true
					}
					if !dedup[j] {
						dedup[j] = true
						succs[i] = append(succs[i], j)
					}
				}
			}
		}
		sort.Ints(succs[i])
	}

	const unvisited = -1
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var stack []int
	next := 0
	type frame struct{ v, ei int }
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames := []frame{{root, 0}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(succs[f.v]) {
				w := succs[f.v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				for _, w := range comp {
					if len(comp) > 1 || self[w] {
						ip.recursive[ip.prog.Funcs[w]] = true
					}
					ip.order = append(ip.order, ip.prog.Funcs[w])
				}
			}
		}
	}
}

// ElimKind classifies an elimination for the -facts report.
type ElimKind int

// Elimination kinds, by what justified the kill.
const (
	KindIntra     ElimKind = iota // Definition 3 within one method
	KindPeel                      // intra, enabled by §6.3 loop peeling
	KindInterproc                 // needed relaxed barriers, stable fields, or summaries
)

func (k ElimKind) String() string {
	switch k {
	case KindPeel:
		return "peel"
	case KindInterproc:
		return "interproc"
	}
	return "intra"
}

// Elim records one eliminated trace and what eliminated it.
type Elim struct {
	Fn     string // function the victim trace was in
	Name   string // traced location ("Class.field" or "[]")
	Access ir.AccessKind
	Pos    token.Pos
	Kind   ElimKind
	ByFn   string // function holding the justifying trace
	ByPos  token.Pos
}

// Report lists every elimination, sorted by (function, position).
type Report struct {
	Elims []Elim
}

// Counts tallies eliminations per kind.
func (r *Report) Counts() (intra, peel, interproc int) {
	for _, e := range r.Elims {
		switch e.Kind {
		case KindPeel:
			peel++
		case KindInterproc:
			interproc++
		default:
			intra++
		}
	}
	return
}

// Sort orders the report by (function, position, trace name) so that
// rendered output is deterministic; callers that merge entries from
// several sources must re-sort.
func (r *Report) Sort() { r.sortElims() }

func (r *Report) sortElims() {
	sort.Slice(r.Elims, func(i, j int) bool {
		a, b := r.Elims[i], r.Elims[j]
		if a.Fn != b.Fn {
			return a.Fn < b.Fn
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Name < b.Name
	})
}

// tracePoint is one elimination-relevant point: a real OpTrace, or a
// virtual point (fact != nil) standing for a callee MustTrace fact at
// an OpCall. Virtual points eliminate; they are never victims.
type tracePoint struct {
	in    *ir.Instr
	block *ir.Block
	pos   int
	fact  *Fact
}

// elimCtx is the per-function elimination engine. With ip == nil it
// reproduces the intraprocedural PR-4 behavior exactly (plain GVN,
// every call a barrier, no virtual points).
type elimCtx struct {
	fn         *ir.Func
	ip         *Interproc
	dom        *ssa.DomTree
	ov         *ssa.Overlay
	gvn        *ssa.ValueNumbering // stable-field GVN when interprocedural
	strictGvn  *ssa.ValueNumbering // plain GVN, for report-kind attribution
	reach      *reachability
	relaxedBB  []bool // block contains a relaxed barrier
	strictBB   []bool // block contains a strict barrier
	traces     []tracePoint
	eliminated map[*ir.Instr]bool
}

func newElimCtx(fn *ir.Func, ip *Interproc) *elimCtx {
	c := &elimCtx{fn: fn, ip: ip, eliminated: make(map[*ir.Instr]bool)}
	c.dom = ssa.BuildDomTree(fn)
	c.ov = ssa.Build(fn, c.dom)
	if ip != nil {
		c.gvn = ssa.BuildGVNStable(c.ov, func(f *sem.Field) bool { return ip.stable[f] })
		c.strictGvn = ssa.BuildGVN(c.ov)
	} else {
		c.gvn = ssa.BuildGVN(c.ov)
		c.strictGvn = c.gvn
	}
	c.reach = blockReachability(fn)
	c.relaxedBB = make([]bool, len(fn.Blocks))
	c.strictBB = make([]bool, len(fn.Blocks))
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if c.barrier(in, false) {
				c.relaxedBB[b.ID] = true
			}
			if c.barrier(in, true) {
				c.strictBB[b.ID] = true
			}
		}
	}
	// Trace points in RPO, so a dominating point always precedes its
	// victims in the slice; virtual points sit at their call's index.
	for _, b := range c.dom.RPO() {
		for i, in := range b.Instrs {
			switch {
			case in.Op == ir.OpTrace:
				c.traces = append(c.traces, tracePoint{in: in, block: b, pos: i})
			case ip != nil && in.Op == ir.OpCall:
				cs := ip.pts.Callees[in]
				if len(cs) != 1 {
					continue
				}
				sum := ip.summaries[cs[0]]
				for k := range sum {
					c.traces = append(c.traces, tracePoint{in: in, block: b, pos: i, fact: &sum[k]})
				}
			}
		}
	}
	return c
}

// barrier is the Exec barrier predicate. Strict mode is the paper's
// Definition 4 plus monitors; relaxed mode additionally lets Exec
// cross calls whose every resolved target is sync-free.
func (c *elimCtx) barrier(in *ir.Instr, strict bool) bool {
	if in.Op == ir.OpMonEnter || in.Op == ir.OpMonExit {
		return true
	}
	if !in.IsCallLike() {
		return false
	}
	if strict || c.ip == nil || in.Op != ir.OpCall {
		return true
	}
	cs := c.ip.pts.Callees[in]
	if len(cs) == 0 {
		return true
	}
	for _, f := range cs {
		if !c.ip.syncFree[f] {
			return true
		}
	}
	return false
}

func (c *elimCtx) rangeBarrier(b *ir.Block, from, to int, strict bool) bool { // [from, to)
	for i := from; i < to && i < len(b.Instrs); i++ {
		if c.barrier(b.Instrs[i], strict) {
			return true
		}
	}
	return false
}

// exec reports Exec(Si, Sj): Si dominates Sj and no barrier lies on
// any intraprocedural path between them (same algorithm as PR 4; the
// barrier predicate is what varies).
func (c *elimCtx) exec(si, sj tracePoint, strict bool) bool {
	bb := c.relaxedBB
	if strict {
		bb = c.strictBB
	}
	if !c.dom.DominatesInstr(si.block, si.pos, sj.block, sj.pos) {
		return false
	}
	if si.block == sj.block {
		return !c.rangeBarrier(si.block, si.pos+1, sj.pos, strict)
	}
	if c.rangeBarrier(si.block, si.pos+1, len(si.block.Instrs), strict) {
		return false
	}
	if c.rangeBarrier(sj.block, 0, sj.pos, strict) {
		return false
	}
	for _, b := range c.fn.Blocks {
		if b == si.block || b == sj.block {
			continue
		}
		if c.reach.reaches(si.block, b) && c.reach.reaches(b, sj.block) && bb[b.ID] {
			return false
		}
	}
	if c.reach.reaches(sj.block, si.block) {
		if bb[si.block.ID] || bb[sj.block.ID] {
			return false
		}
	}
	return true
}

func accLeq(ai, aj ir.AccessKind) bool { return ai == aj || ai == ir.Write }

func (c *elimCtx) pointAccess(p tracePoint) ir.AccessKind {
	if p.fact != nil {
		return p.fact.Acc
	}
	return p.in.Access
}

func (c *elimCtx) pointIsArray(p tracePoint) bool {
	if p.fact != nil {
		return p.fact.IsArray
	}
	return p.in.IsArrayTrace
}

func (c *elimCtx) pointField(p tracePoint) *sem.Field {
	if p.fact != nil {
		return p.fact.Field
	}
	return p.in.Field
}

// pointVN is the value number of the point's traced object: the trace
// operand for real points, the call argument feeding the fact's
// parameter for virtual ones.
func (c *elimCtx) pointVN(p tracePoint, g *ssa.ValueNumbering) ssa.VN {
	if p.fact == nil {
		return g.OperandVN(p.in, 0)
	}
	if p.fact.Param < 0 || p.fact.Param >= len(p.in.Src) {
		return ssa.NoVN
	}
	return g.OperandVN(p.in, p.fact.Param)
}

// sameLocation: same field with matching receiver value numbers, or
// same array reference. The victim sj is always a real trace.
func (c *elimCtx) sameLocation(si, sj tracePoint, strict bool) bool {
	g := c.gvn
	if strict {
		g = c.strictGvn
	}
	b := sj.in
	if b.IsArrayTrace {
		if !c.pointIsArray(si) {
			return false
		}
		va, vb := c.pointVN(si, g), g.OperandVN(b, 0)
		return va != ssa.NoVN && va == vb
	}
	if c.pointIsArray(si) || c.pointField(si) != b.Field {
		return false
	}
	if b.Field.Static {
		return true // class-qualified: same field ⇒ same location
	}
	va, vb := c.pointVN(si, g), g.OperandVN(b, 0)
	return va != ssa.NoVN && va == vb
}

// pairLoop runs the Definition 3 sweep: for each trace S_j in RPO
// order, find an earlier surviving point S_i with S_i ⊑ S_j. Virtual
// points carry the call's region stack (si.in is the OpCall).
func (c *elimCtx) pairLoop(rep *Report) {
	for j, sj := range c.traces {
		if sj.fact != nil {
			continue
		}
		for i := 0; i < j; i++ {
			si := c.traces[i]
			if si.fact == nil && c.eliminated[si.in] {
				continue
			}
			if !accLeq(c.pointAccess(si), sj.in.Access) {
				continue
			}
			if !outer(si.in.SyncRegions, sj.in.SyncRegions) {
				continue
			}
			if !c.sameLocation(si, sj, false) {
				continue
			}
			if !c.exec(si, sj, false) {
				continue
			}
			c.eliminated[sj.in] = true
			if rep != nil {
				rep.Elims = append(rep.Elims, c.elim(si, sj))
			}
			break
		}
	}
}

// elim builds the report record, classifying the kill: interproc if a
// virtual point or any relaxed-only condition justified it, peel if
// eliminator and victim share a source position (a peeled iteration),
// intra otherwise.
func (c *elimCtx) elim(si, sj tracePoint) Elim {
	e := Elim{
		Fn:     c.fn.Name,
		Name:   sj.in.TraceName,
		Access: sj.in.Access,
		Pos:    sj.in.Pos,
	}
	if si.fact != nil {
		e.Kind = KindInterproc
		e.ByFn = si.fact.SrcFn.Name
		e.ByPos = si.fact.Src.Pos
		return e
	}
	e.ByFn = c.fn.Name
	e.ByPos = si.in.Pos
	switch {
	case c.ip != nil && !(c.sameLocation(si, sj, true) && c.exec(si, sj, true)):
		e.Kind = KindInterproc
	case si.in.Pos == sj.in.Pos:
		e.Kind = KindPeel
	default:
		e.Kind = KindIntra
	}
	return e
}

func (c *elimCtx) removeEliminated() int {
	if len(c.eliminated) == 0 {
		return 0
	}
	for _, b := range c.fn.Blocks {
		out := b.Instrs[:0]
		for _, in := range b.Instrs {
			if !c.eliminated[in] {
				out = append(out, in)
			}
		}
		b.Instrs = out
	}
	return len(c.eliminated)
}

// MustTrace summary dataflow ------------------------------------------

type factKey struct {
	param   int
	field   *sem.Field
	isArray bool
}

type factVal struct {
	acc   ir.AccessKind
	src   *ir.Instr
	srcFn *ir.Func
}

func cloneFacts(m map[factKey]factVal) map[factKey]factVal {
	out := make(map[factKey]factVal, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// intersectFacts joins two states: a location survives if traced in
// both, with access Write only if written in both (Read covers less).
func intersectFacts(a, b map[factKey]factVal) map[factKey]factVal {
	out := make(map[factKey]factVal)
	for k, av := range a {
		bv, ok := b[k]
		switch {
		case !ok:
		case av.acc == ir.Read:
			out[k] = av
		case bv.acc == ir.Read:
			out[k] = bv
		default:
			out[k] = av
		}
	}
	return out
}

func sameFacts(a, b map[factKey]factVal) bool {
	if len(a) != len(b) {
		return false
	}
	for k, av := range a {
		if bv, ok := b[k]; !ok || av != bv {
			return false
		}
	}
	return true
}

func genFact(st map[factKey]factVal, k factKey, v factVal) {
	if old, ok := st[k]; ok && old.acc == ir.Write && v.acc == ir.Read {
		return // an existing write fact covers reads too
	}
	st[k] = v
}

// paramVNs maps the entry value number of each parameter to its index
// (lowest index wins on aliased parameters).
func (c *elimCtx) paramVNs() map[ssa.VN]int {
	m := make(map[ssa.VN]int, c.fn.NumParams)
	for i := c.fn.NumParams - 1; i >= 0; i-- {
		if v := c.gvn.ParamVN(i); v != ssa.NoVN {
			m[v] = i
		}
	}
	return m
}

// traceKey maps a trace to a summary location, if its object is a
// parameter's entry value (or the field is static).
func (c *elimCtx) traceKey(in *ir.Instr, paramOf map[ssa.VN]int) (factKey, bool) {
	if in.IsArrayTrace {
		vn := c.gvn.OperandVN(in, 0)
		if pi, ok := paramOf[vn]; ok && vn != ssa.NoVN {
			return factKey{param: pi, isArray: true}, true
		}
		return factKey{}, false
	}
	if in.Field.Static {
		return factKey{param: -1, field: in.Field}, true
	}
	vn := c.gvn.OperandVN(in, 0)
	if pi, ok := paramOf[vn]; ok && vn != ssa.NoVN {
		return factKey{param: pi, field: in.Field}, true
	}
	return factKey{}, false
}

func (c *elimCtx) sumTransfer(st map[factKey]factVal, in *ir.Instr, paramOf map[ssa.VN]int) {
	switch in.Op {
	case ir.OpTrace:
		if c.eliminated[in] {
			return
		}
		if k, ok := c.traceKey(in, paramOf); ok {
			genFact(st, k, factVal{in.Access, in, c.fn})
		}
	case ir.OpCall:
		cs := c.ip.pts.Callees[in]
		if len(cs) != 1 {
			return
		}
		sum := c.ip.summaries[cs[0]]
		for i := range sum {
			f := &sum[i]
			if f.Param < 0 {
				genFact(st, factKey{param: -1, field: f.Field}, factVal{f.Acc, f.Src, f.SrcFn})
				continue
			}
			if f.Param >= len(in.Src) {
				continue
			}
			vn := c.gvn.OperandVN(in, f.Param)
			pi, ok := paramOf[vn]
			if vn == ssa.NoVN || !ok {
				continue
			}
			genFact(st, factKey{param: pi, field: f.Field, isArray: f.IsArray},
				factVal{f.Acc, f.Src, f.SrcFn})
		}
	}
}

// summary runs the forward must-dataflow (intersection at joins,
// optimistic ⊤ for unvisited predecessors, ∅ at entry) and exports the
// intersection of the states at every return, sorted for determinism.
// Callee facts at single-target sync-free calls propagate through, so
// summaries compose up the (acyclic part of the) call graph.
func (c *elimCtx) summary() []Fact {
	paramOf := c.paramVNs()
	out := make(map[*ir.Block]map[factKey]factVal, len(c.fn.Blocks))
	blockIn := func(b *ir.Block) map[factKey]factVal {
		if b == c.fn.Entry {
			return make(map[factKey]factVal)
		}
		var st map[factKey]factVal
		for _, p := range b.Preds {
			po, ok := out[p]
			if !ok {
				continue // optimistic: not yet computed
			}
			if st == nil {
				st = cloneFacts(po)
			} else {
				st = intersectFacts(st, po)
			}
		}
		if st == nil {
			st = make(map[factKey]factVal)
		}
		return st
	}
	for changed := true; changed; {
		changed = false
		for _, b := range c.dom.RPO() {
			st := blockIn(b)
			for _, in := range b.Instrs {
				c.sumTransfer(st, in, paramOf)
			}
			if prev, ok := out[b]; !ok || !sameFacts(prev, st) {
				out[b] = st
				changed = true
			}
		}
	}
	var ret map[factKey]factVal
	have := false
	for _, b := range c.dom.RPO() {
		st := blockIn(b)
		for _, in := range b.Instrs {
			if in.Op == ir.OpReturn {
				if !have {
					ret, have = cloneFacts(st), true
				} else {
					ret = intersectFacts(ret, st)
				}
			}
			c.sumTransfer(st, in, paramOf)
		}
	}
	if len(ret) == 0 {
		return nil
	}
	facts := make([]Fact, 0, len(ret))
	for k, v := range ret {
		facts = append(facts, Fact{Param: k.param, Field: k.field, IsArray: k.isArray,
			Acc: v.acc, Src: v.src, SrcFn: v.srcFn})
	}
	sort.Slice(facts, func(i, j int) bool {
		a, b := facts[i], facts[j]
		if a.Param != b.Param {
			return a.Param < b.Param
		}
		an, bn := "", ""
		if a.Field != nil {
			an = a.Field.QualifiedName()
		}
		if b.Field != nil {
			bn = b.Field.QualifiedName()
		}
		if an != bn {
			return an < bn
		}
		return !a.IsArray && b.IsArray
	})
	return facts
}

// Pass 2: entry coverage ----------------------------------------------

// passEntryCoverage eliminates a surviving trace of a parameter (or
// static) location inside a sync-free, non-thread-root function when
// every call site is preceded by a surviving covering trace of the
// corresponding argument. A sync-free function contains no barrier at
// all, so the path call → entry → access is barrier-free and the §6
// conditions concatenate with the cover's. Covers are pinned: a pinned
// trace is never chosen as a later pass-2 victim, so no mutual-kill
// cycle can arise.
func passEntryCoverage(ip *Interproc, ctxs map[*ir.Func]*elimCtx, rep *Report, skip func(*ir.Func) bool) {
	pinned := make(map[*ir.Instr]bool)
	for _, fn := range ip.prog.Funcs {
		if !ip.syncFree[fn] || ip.threadRoot[fn] {
			continue
		}
		if skip != nil && skip(fn) {
			continue // cached traces are final
		}
		sites := ip.callSites[fn]
		if len(sites) == 0 {
			continue
		}
		c := ctxs[fn]
		paramOf := c.paramVNs()
		for _, tp := range c.traces {
			if tp.fact != nil || c.eliminated[tp.in] || pinned[tp.in] {
				continue
			}
			loc, ok := c.traceKey(tp.in, paramOf)
			if !ok {
				continue
			}
			covers := make([]*ir.Instr, 0, len(sites))
			good := true
			for _, s := range sites {
				cov := findCover(ctxs[s.fn], s, loc, tp.in.Access, tp.in)
				if cov == nil {
					good = false
					break
				}
				covers = append(covers, cov)
			}
			if !good {
				continue
			}
			c.eliminated[tp.in] = true
			for _, cv := range covers {
				pinned[cv] = true
			}
			if rep != nil {
				rep.Elims = append(rep.Elims, Elim{
					Fn: fn.Name, Name: tp.in.TraceName, Access: tp.in.Access,
					Pos: tp.in.Pos, Kind: KindInterproc,
					ByFn: sites[0].fn.Name, ByPos: covers[0].Pos,
				})
			}
		}
	}
}

// findCover searches the caller for a surviving trace of the call
// argument feeding loc, with covering access kind, region stack a
// prefix of the call's, and a barrier-free path to the call.
func findCover(gc *elimCtx, s callRef, loc factKey, acc ir.AccessKind, candidate *ir.Instr) *ir.Instr {
	if gc == nil {
		return nil
	}
	callPt := tracePoint{in: s.in, block: s.block, pos: s.pos}
	argVN := ssa.NoVN
	if loc.param >= 0 {
		if loc.param >= len(s.in.Src) {
			return nil
		}
		argVN = gc.gvn.OperandVN(s.in, loc.param)
		if argVN == ssa.NoVN {
			return nil
		}
	}
	for _, t0 := range gc.traces {
		if t0.fact != nil || t0.in == candidate || gc.eliminated[t0.in] {
			continue
		}
		a := t0.in
		if !accLeq(a.Access, acc) {
			continue
		}
		if loc.isArray {
			if !a.IsArrayTrace || gc.gvn.OperandVN(a, 0) != argVN {
				continue
			}
		} else if a.IsArrayTrace || a.Field != loc.field {
			continue
		} else if loc.param >= 0 && gc.gvn.OperandVN(a, 0) != argVN {
			continue
		}
		if !outer(a.SyncRegions, s.in.SyncRegions) {
			continue
		}
		if !gc.exec(t0, callPt, false) {
			continue
		}
		return a
	}
	return nil
}

// EliminateProgram ----------------------------------------------------

// EliminateProgram runs the weaker-than elimination over the whole
// program. With interproc false (or pts nil) it is exactly the per-
// function Definition 3 sweep; with interproc true it additionally
// applies the relaxed barriers, stable-field value numbering, and
// cross-call coverage described at the top of this file. It returns
// the number of traces removed and the per-elimination report.
func EliminateProgram(prog *ir.Program, pts *pointsto.Result, interproc bool) (int, *Report) {
	var ip *Interproc
	if interproc && pts != nil {
		ip = BuildInterproc(prog, pts)
	}
	return EliminateProgramWith(prog, ip, nil)
}

// EliminateProgramWith is EliminateProgram with a prebuilt Interproc
// (nil = intraprocedural only) and an optional skip predicate for the
// fact cache: a skipped function's current traces are taken as final —
// it runs no elimination of its own and offers no pass-2 candidates,
// but still provides context (summaries, covers, relaxed barriers) to
// the functions that do. Skipping is sound only when the skipped
// function's traces came from a prior elimination of an identical
// dependency cone; internal/static/factcache computes that.
func EliminateProgramWith(prog *ir.Program, ip *Interproc, skip func(*ir.Func) bool) (int, *Report) {
	rep := &Report{}
	ctxs := make(map[*ir.Func]*elimCtx, len(prog.Funcs))
	order := prog.Funcs
	if ip != nil {
		order = ip.order // callees first: summaries ready at each caller
	}
	for _, fn := range order {
		skipped := skip != nil && skip(fn)
		if ip == nil && skipped {
			continue // no cross-function context needed
		}
		c := newElimCtx(fn, ip)
		if !skipped {
			c.pairLoop(rep)
		}
		ctxs[fn] = c
		if ip != nil && ip.syncFree[fn] && !ip.recursive[fn] {
			if sum := c.summary(); sum != nil {
				ip.summaries[fn] = sum
			}
		}
	}
	if ip != nil {
		passEntryCoverage(ip, ctxs, rep, skip)
	}
	total := 0
	for _, fn := range prog.Funcs {
		if c := ctxs[fn]; c != nil {
			total += c.removeEliminated()
		}
	}
	rep.sortElims()
	return total, rep
}

// StableFields returns the sorted qualified names of the init-only
// fields (the fact cache folds them into its dependency digests).
func (ip *Interproc) StableFields() []string {
	out := make([]string, 0, len(ip.stable))
	for f := range ip.stable {
		out = append(out, f.QualifiedName())
	}
	sort.Strings(out)
	return out
}
