// Package pointsto implements the flow-insensitive, whole-program
// points-to analysis of §5.3: Andersen-style inclusion constraints
// over allocation-site abstract objects, with an on-the-fly call graph
// (virtual call targets are resolved from the receiver's points-to
// set), plus the paper's simple must points-to analysis based on
// single-instance statements.
package pointsto

import (
	"fmt"
	"sort"
	"strings"

	"racedet/internal/ir"
	"racedet/internal/lang/sem"
)

// AbsObj is an abstract object: all concrete objects created at one
// allocation site (or a class object, or the synthetic main-thread
// object).
type AbsObj struct {
	ID    int
	Site  *ir.Instr  // OpNew / OpNewArray; nil for synthetic objects
	Fn    *ir.Func   // function containing the site
	Class *sem.Class // instance class; nil for arrays
	Kind  ObjKind

	// SingleInstance reports that the allocation site executes at most
	// once per program run (§5.3), making this a must-points-to
	// candidate.
	SingleInstance bool
}

// ObjKind classifies abstract objects.
type ObjKind int

// Abstract object kinds.
const (
	ObjAlloc ObjKind = iota // OpNew site
	ObjArray                // OpNewArray site
	ObjClass                // per-class class object
	ObjMain                 // the synthetic main-thread object
)

// String renders the object for dumps.
func (o *AbsObj) String() string {
	switch o.Kind {
	case ObjClass:
		return fmt.Sprintf("class:%s", o.Class.Name)
	case ObjMain:
		return "mainthread"
	case ObjArray:
		return fmt.Sprintf("arr@%s#%d", o.Fn.Name, o.ID)
	default:
		return fmt.Sprintf("%s@%s#%d", o.Class.Name, o.Fn.Name, o.ID)
	}
}

// ObjSet is a small sorted set of abstract objects.
type ObjSet map[*AbsObj]struct{}

// Has reports membership.
func (s ObjSet) Has(o *AbsObj) bool { _, ok := s[o]; return ok }

// Intersects reports a non-empty intersection.
func (s ObjSet) Intersects(t ObjSet) bool {
	if len(s) > len(t) {
		s, t = t, s
	}
	for o := range s {
		if t.Has(o) {
			return true
		}
	}
	return false
}

// Sorted returns the members ordered by ID (deterministic dumps).
func (s ObjSet) Sorted() []*AbsObj {
	out := make([]*AbsObj, 0, len(s))
	for o := range s {
		out = append(out, o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// varKey names a points-to variable: a register of a function.
type varKey struct {
	fn  *ir.Func
	reg int
}

// fieldKey names a field of an abstract object (Slot -1 = array elems).
type fieldKey struct {
	obj  *AbsObj
	slot int
}

// Result is the fixed point of the analysis.
type Result struct {
	prog *ir.Program

	objs    []*AbsObj
	siteObj map[*ir.Instr]*AbsObj
	classOb map[*sem.Class]*AbsObj
	mainObj *AbsObj

	varPts   map[varKey]ObjSet
	fieldPts map[fieldKey]ObjSet
	retPts   map[*ir.Func]ObjSet

	// Callees maps each call/start instruction to its resolved target
	// functions (the on-the-fly call graph).
	Callees map[*ir.Instr][]*ir.Func

	// StartTargets maps each OpStart instruction to the run methods it
	// may invoke.
	StartTargets map[*ir.Instr][]*ir.Func

	// singleFn marks functions that execute at most once per run.
	singleFn map[*ir.Func]bool
	// loopy marks blocks that lie on a CFG cycle (per function).
	loopy map[*ir.Block]bool
}

// MainObj returns the synthetic main-thread abstract object.
func (r *Result) MainObj() *AbsObj { return r.mainObj }

// ClassObj returns the abstract class object for cl.
func (r *Result) ClassObj(cl *sem.Class) *AbsObj { return r.classOb[cl] }

// Objects returns all abstract objects.
func (r *Result) Objects() []*AbsObj { return r.objs }

// VarPts returns MayPT(reg) in fn; never nil.
func (r *Result) VarPts(fn *ir.Func, reg int) ObjSet {
	if s := r.varPts[varKey{fn, reg}]; s != nil {
		return s
	}
	return ObjSet{}
}

// FieldPts returns the may points-to set of o.slot (ArrayElemSlot for
// elements); never nil.
func (r *Result) FieldPts(o *AbsObj, slot int) ObjSet {
	if s := r.fieldPts[fieldKey{o, slot}]; s != nil {
		return s
	}
	return ObjSet{}
}

// ArrayElemSlot is the field slot of array elements.
const ArrayElemSlot = -1

// MustPts returns MustPT(reg): the singleton abstract object if the
// may set is a singleton whose object is single-instance, else nil
// (§5.3's conservative must points-to).
func (r *Result) MustPts(fn *ir.Func, reg int) *AbsObj {
	s := r.VarPts(fn, reg)
	if len(s) != 1 {
		return nil
	}
	for o := range s {
		if o.SingleInstance {
			return o
		}
	}
	return nil
}

// SingleInstanceFn reports whether fn executes at most once per run.
func (r *Result) SingleInstanceFn(fn *ir.Func) bool { return r.singleFn[fn] }

// InLoop reports whether b lies on an intraprocedural CFG cycle.
func (r *Result) InLoop(b *ir.Block) bool { return r.loopy[b] }

// SingleInstanceInstr reports whether the instruction executes at most
// once per run: its function is single-instance and its block is not
// in a loop.
func (r *Result) SingleInstanceInstr(fn *ir.Func, b *ir.Block) bool {
	return r.singleFn[fn] && !r.loopy[b]
}

// Analyze runs the analysis to a fixed point.
func Analyze(prog *ir.Program) *Result {
	r := &Result{
		prog:         prog,
		siteObj:      make(map[*ir.Instr]*AbsObj),
		classOb:      make(map[*sem.Class]*AbsObj),
		varPts:       make(map[varKey]ObjSet),
		fieldPts:     make(map[fieldKey]ObjSet),
		retPts:       make(map[*ir.Func]ObjSet),
		Callees:      make(map[*ir.Instr][]*ir.Func),
		StartTargets: make(map[*ir.Instr][]*ir.Func),
		singleFn:     make(map[*ir.Func]bool),
		loopy:        make(map[*ir.Block]bool),
	}
	r.collectObjects()
	r.markLoops()
	r.solve()
	r.finish()
	return r
}

// finish runs the post-fixpoint phases shared by the serial and
// parallel solvers.
func (r *Result) finish() {
	r.sortCallGraph()
	r.computeSingleInstance()
	r.markSingleObjects()
}

// sortCallGraph orders every resolved callee slice by function name.
// resolveCall and resolveStart accumulate targets in points-to-set
// iteration order (a Go map), so without this the call-graph slices —
// and everything downstream that prints or digests them — would vary
// between runs.
func (r *Result) sortCallGraph() {
	byName := func(fs []*ir.Func) {
		sort.Slice(fs, func(i, j int) bool { return fs[i].Name < fs[j].Name })
	}
	for _, fs := range r.Callees {
		byName(fs)
	}
	for _, fs := range r.StartTargets {
		byName(fs)
	}
}

func (r *Result) newObj(o *AbsObj) *AbsObj {
	o.ID = len(r.objs)
	r.objs = append(r.objs, o)
	return o
}

func (r *Result) collectObjects() {
	r.mainObj = r.newObj(&AbsObj{Kind: ObjMain})
	for _, cl := range r.prog.Sem.Order {
		r.classOb[cl] = r.newObj(&AbsObj{Kind: ObjClass, Class: cl})
	}
	for _, fn := range r.prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpNew:
					r.siteObj[in] = r.newObj(&AbsObj{Site: in, Fn: fn, Class: in.Class, Kind: ObjAlloc})
				case ir.OpNewArray:
					r.siteObj[in] = r.newObj(&AbsObj{Site: in, Fn: fn, Kind: ObjArray})
				}
			}
		}
	}
}

// markLoops marks blocks on CFG cycles (back-edge reachability).
func (r *Result) markLoops() {
	for _, fn := range r.prog.Funcs {
		// A block is loopy iff it can reach itself.
		n := len(fn.Blocks)
		for _, b := range fn.Blocks {
			seen := make([]bool, n)
			stack := append([]*ir.Block(nil), b.Succs...)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if x == b {
					r.loopy[b] = true
					break
				}
				if seen[x.ID] {
					continue
				}
				seen[x.ID] = true
				stack = append(stack, x.Succs...)
			}
		}
	}
}

// addVar adds o to pts(fn, reg); reports change.
func (r *Result) addVar(fn *ir.Func, reg int, o *AbsObj) bool {
	k := varKey{fn, reg}
	s := r.varPts[k]
	if s == nil {
		s = ObjSet{}
		r.varPts[k] = s
	}
	if s.Has(o) {
		return false
	}
	s[o] = struct{}{}
	return true
}

func (r *Result) addField(o *AbsObj, slot int, target *AbsObj) bool {
	k := fieldKey{o, slot}
	s := r.fieldPts[k]
	if s == nil {
		s = ObjSet{}
		r.fieldPts[k] = s
	}
	if s.Has(target) {
		return false
	}
	s[target] = struct{}{}
	return true
}

func (r *Result) addRet(fn *ir.Func, o *AbsObj) bool {
	s := r.retPts[fn]
	if s == nil {
		s = ObjSet{}
		r.retPts[fn] = s
	}
	if s.Has(o) {
		return false
	}
	s[o] = struct{}{}
	return true
}

// solve iterates all constraints to a fixed point. The benchmarks are
// small, so a simple whole-program sweep loop is plenty fast and keeps
// the code auditable.
func (r *Result) solve() {
	// Seed the main thread's receiver: main is static, so there is no
	// register; MustThread handles main via mainObj directly.
	changed := true
	for changed {
		changed = false
		for _, fn := range r.prog.Funcs {
			for _, b := range fn.Blocks {
				for _, in := range b.Instrs {
					if r.apply(fn, in) {
						changed = true
					}
				}
			}
		}
	}
}

// apply processes one instruction's constraints; reports change.
func (r *Result) apply(fn *ir.Func, in *ir.Instr) bool {
	changed := false
	copyInto := func(dst int, src ObjSet) {
		for o := range src {
			if r.addVar(fn, dst, o) {
				changed = true
			}
		}
	}
	switch in.Op {
	case ir.OpNew, ir.OpNewArray:
		if r.addVar(fn, in.Dst, r.siteObj[in]) {
			changed = true
		}
	case ir.OpClassRef:
		if r.addVar(fn, in.Dst, r.classOb[in.Class]) {
			changed = true
		}
	case ir.OpMove:
		copyInto(in.Dst, r.VarPts(fn, in.Src[0]))
	case ir.OpGetField:
		for o := range r.VarPts(fn, in.Src[0]) {
			copyInto(in.Dst, r.FieldPts(o, in.Field.Index))
		}
	case ir.OpPutField:
		vals := r.VarPts(fn, in.Src[1])
		for o := range r.VarPts(fn, in.Src[0]) {
			for v := range vals {
				if r.addField(o, in.Field.Index, v) {
					changed = true
				}
			}
		}
	case ir.OpGetStatic:
		co := r.classOb[in.Field.Class]
		copyInto(in.Dst, r.FieldPts(co, StaticSlotKey(in.Field)))
	case ir.OpPutStatic:
		co := r.classOb[in.Field.Class]
		for v := range r.VarPts(fn, in.Src[0]) {
			if r.addField(co, StaticSlotKey(in.Field), v) {
				changed = true
			}
		}
	case ir.OpArrayLoad:
		for o := range r.VarPts(fn, in.Src[0]) {
			copyInto(in.Dst, r.FieldPts(o, ArrayElemSlot))
		}
	case ir.OpArrayStore:
		vals := r.VarPts(fn, in.Src[2])
		for o := range r.VarPts(fn, in.Src[0]) {
			for v := range vals {
				if r.addField(o, ArrayElemSlot, v) {
					changed = true
				}
			}
		}
	case ir.OpCall:
		for _, callee := range r.resolveCall(fn, in) {
			if r.linkCall(fn, in, callee) {
				changed = true
			}
		}
	case ir.OpStart:
		for _, runFn := range r.resolveStart(fn, in) {
			// The thread object flows to run's receiver.
			for o := range r.VarPts(fn, in.Src[0]) {
				if o.Class == nil || !o.Class.IsThread() {
					continue
				}
				if runFn.Method.Class != nil && o.Class.ResolveOverride("run") == runFn.Method {
					if r.addVar(runFn, 0, o) {
						changed = true
					}
				}
			}
		}
	case ir.OpReturn:
		if len(in.Src) > 0 {
			for o := range r.VarPts(fn, in.Src[0]) {
				if r.addRet(fn, o) {
					changed = true
				}
			}
		}
	}
	return changed
}

// StaticSlotKey maps static fields to negative field keys on the class
// object so they never collide with instance slots.
func StaticSlotKey(f *sem.Field) int { return -2 - f.Index }

// resolveCall computes (and caches) the callee set of a call site.
func (r *Result) resolveCall(fn *ir.Func, in *ir.Instr) []*ir.Func {
	var out []*ir.Func
	add := func(f *ir.Func) {
		for _, x := range out {
			if x == f {
				return
			}
		}
		out = append(out, f)
	}
	if !in.Virtual {
		if f := r.prog.FuncOf[in.Callee]; f != nil {
			add(f)
		}
	} else {
		for o := range r.VarPts(fn, in.Src[0]) {
			if o.Class == nil {
				continue
			}
			m := o.Class.ResolveOverride(in.Callee.Name)
			if m == nil || m.Builtin != sem.NotBuiltin {
				continue
			}
			if f := r.prog.FuncOf[m]; f != nil {
				add(f)
			}
		}
	}
	r.Callees[in] = out
	return out
}

// resolveStart computes the run methods an OpStart may invoke.
func (r *Result) resolveStart(fn *ir.Func, in *ir.Instr) []*ir.Func {
	var out []*ir.Func
	add := func(f *ir.Func) {
		for _, x := range out {
			if x == f {
				return
			}
		}
		out = append(out, f)
	}
	for o := range r.VarPts(fn, in.Src[0]) {
		if o.Class == nil || !o.Class.IsThread() {
			continue
		}
		m := o.Class.ResolveOverride("run")
		if m == nil || m.Builtin != sem.NotBuiltin {
			continue
		}
		if f := r.prog.FuncOf[m]; f != nil {
			add(f)
		}
	}
	r.StartTargets[in] = out
	return out
}

// linkCall propagates arguments and return values along one call edge.
func (r *Result) linkCall(fn *ir.Func, in *ir.Instr, callee *ir.Func) bool {
	changed := false
	// in.Src aligns with callee registers 0..: receiver first for
	// instance methods.
	n := callee.NumParams
	if len(in.Src) < n {
		n = len(in.Src)
	}
	for i := 0; i < n; i++ {
		for o := range r.VarPts(fn, in.Src[i]) {
			if r.addVar(callee, i, o) {
				changed = true
			}
		}
	}
	if in.HasDst() {
		for o := range r.retPts[callee] {
			if r.addVar(fn, in.Dst, o) {
				changed = true
			}
		}
	}
	return changed
}

// computeSingleInstance marks functions that run at most once: main,
// plus functions whose every call/start site is itself single-instance
// (not in a loop, in a single-instance function, and the only site).
func (r *Result) computeSingleInstance() {
	mainFn := r.prog.FuncOf[r.prog.Sem.Main]

	// Gather call sites per function.
	type site struct {
		fn *ir.Func
		b  *ir.Block
	}
	sites := make(map[*ir.Func][]site)
	for _, fn := range r.prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpCall:
					for _, callee := range r.Callees[in] {
						sites[callee] = append(sites[callee], site{fn, b})
					}
				case ir.OpStart:
					for _, runFn := range r.StartTargets[in] {
						sites[runFn] = append(sites[runFn], site{fn, b})
					}
				}
			}
		}
	}

	// Iterate: start optimistic for main only, grow pessimistically.
	r.singleFn = map[*ir.Func]bool{}
	if mainFn != nil {
		r.singleFn[mainFn] = true
	}
	changed := true
	for changed {
		changed = false
		for _, fn := range r.prog.Funcs {
			if r.singleFn[fn] || fn == mainFn {
				continue
			}
			ss := sites[fn]
			if len(ss) != 1 {
				continue
			}
			s := ss[0]
			if s.fn == fn {
				continue // self recursion
			}
			if r.singleFn[s.fn] && !r.loopy[s.b] {
				r.singleFn[fn] = true
				changed = true
			}
		}
	}
}

// Dump renders the entire fixed point deterministically — every
// non-empty variable, field, and return points-to set plus the
// resolved call graph, in program and ID order — so two Results can be
// compared byte-for-byte (the serial-vs-parallel solver tests) and the
// fact cache can digest analysis summaries stably.
func (r *Result) Dump() string {
	var sb strings.Builder
	set := func(s ObjSet) string {
		parts := make([]string, 0, len(s))
		for _, o := range s.Sorted() {
			parts = append(parts, o.String())
		}
		return strings.Join(parts, ", ")
	}
	for _, fn := range r.prog.Funcs {
		for reg := 0; reg < fn.NumRegs; reg++ {
			if s := r.varPts[varKey{fn, reg}]; len(s) > 0 {
				fmt.Fprintf(&sb, "var %s r%d = {%s}\n", fn.Name, reg, set(s))
			}
		}
		if s := r.retPts[fn]; len(s) > 0 {
			fmt.Fprintf(&sb, "ret %s = {%s}\n", fn.Name, set(s))
		}
	}
	fks := make([]fieldKey, 0, len(r.fieldPts))
	for k := range r.fieldPts {
		fks = append(fks, k)
	}
	sort.Slice(fks, func(i, j int) bool {
		if fks[i].obj.ID != fks[j].obj.ID {
			return fks[i].obj.ID < fks[j].obj.ID
		}
		return fks[i].slot < fks[j].slot
	})
	for _, k := range fks {
		if s := r.fieldPts[k]; len(s) > 0 {
			fmt.Fprintf(&sb, "field %s.%d = {%s}\n", k.obj, k.slot, set(s))
		}
	}
	for _, fn := range r.prog.Funcs {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				var fs []*ir.Func
				var tag string
				switch in.Op {
				case ir.OpCall:
					fs, tag = r.Callees[in], "call"
				case ir.OpStart:
					fs, tag = r.StartTargets[in], "start"
				default:
					continue
				}
				names := make([]string, 0, len(fs))
				for _, f := range fs {
					names = append(names, f.Name)
				}
				sort.Strings(names)
				fmt.Fprintf(&sb, "%s %s b%d = [%s]\n", tag, fn.Name, b.ID, strings.Join(names, ", "))
			}
		}
	}
	return sb.String()
}

// markSingleObjects stamps SingleInstance on abstract objects whose
// allocation site executes at most once. Class objects and the main
// thread object are single-instance by construction.
func (r *Result) markSingleObjects() {
	for _, o := range r.objs {
		switch o.Kind {
		case ObjClass, ObjMain:
			o.SingleInstance = true
		case ObjAlloc, ObjArray:
			// Find the block containing the site.
			for _, b := range o.Fn.Blocks {
				for _, in := range b.Instrs {
					if in == o.Site {
						o.SingleInstance = r.SingleInstanceInstr(o.Fn, b)
					}
				}
			}
		}
	}
}
