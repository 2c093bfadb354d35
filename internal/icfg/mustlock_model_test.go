package icfg

import (
	"os"
	"path/filepath"
	"sort"
	"testing"

	"racedet/internal/ir"
	"racedet/internal/lang/parser"
	"racedet/internal/lang/sem"
	"racedet/internal/lower"
	"racedet/internal/pointsto"
)

// mustLockModel is the reference implementation of the must-held-
// lockset dataflow: ⊤ is a materialized set of every abstract object,
// every state is a private map, and the transfer mutates it in place.
// BuildMustLock computes the same fixed point with a symbolic ⊤ and
// shared immutable sets; the tests below hold it to this model.
type mustLockModel struct {
	g     *Graph
	entry map[*ir.Func]pointsto.ObjSet
	at    map[*ir.Instr]pointsto.ObjSet
}

func buildMustLockModel(g *Graph) *mustLockModel {
	m := &mustLockModel{
		g:     g,
		entry: make(map[*ir.Func]pointsto.ObjSet),
		at:    make(map[*ir.Instr]pointsto.ObjSet),
	}

	all := pointsto.ObjSet{}
	for _, o := range g.pts.Objects() {
		all[o] = struct{}{}
	}

	sites := make(map[*ir.Func][]callSite)
	for _, fn := range g.prog.Funcs {
		for _, b := range fn.Blocks {
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
			m.entry[fn] = pointsto.ObjSet{}
		} else {
			m.entry[fn] = all
		}
	}

	mlAtCall := make(map[*ir.Instr]pointsto.ObjSet)
	changed := true
	for changed {
		changed = false
		for _, fn := range g.prog.Funcs {
			m.flowFn(fn, all, func(in *ir.Instr, ml pointsto.ObjSet) {
				if in.Op == ir.OpCall {
					mlAtCall[in] = cloneSet(ml)
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
					e = cloneSet(mlAtCall[s.in])
				} else {
					e = intersect(e, mlAtCall[s.in])
				}
			}
			if !sameSet(e, m.entry[fn]) {
				m.entry[fn] = e
				changed = true
			}
		}
	}

	for _, fn := range g.prog.Funcs {
		m.flowFn(fn, all, func(in *ir.Instr, ml pointsto.ObjSet) {
			m.at[in] = cloneSet(ml)
		})
	}
	return m
}

func (m *mustLockModel) flowFn(fn *ir.Func, all pointsto.ObjSet, record func(*ir.Instr, pointsto.ObjSet)) {
	out := make(map[*ir.Block]pointsto.ObjSet, len(fn.Blocks))
	for _, b := range fn.Blocks {
		out[b] = all
	}
	blockIn := func(b *ir.Block) pointsto.ObjSet {
		if b == fn.Entry {
			return cloneSet(m.entry[fn])
		}
		var in pointsto.ObjSet
		for i, p := range b.Preds {
			if i == 0 {
				in = cloneSet(out[p])
			} else {
				in = intersect(in, out[p])
			}
		}
		if in == nil {
			in = pointsto.ObjSet{}
		}
		return in
	}
	changed := true
	for changed {
		changed = false
		for _, b := range fn.Blocks {
			ml := blockIn(b)
			for _, in := range b.Instrs {
				m.transfer(fn, in, ml)
			}
			if !sameSet(ml, out[b]) {
				out[b] = ml
				changed = true
			}
		}
	}
	for _, b := range fn.Blocks {
		ml := blockIn(b)
		for _, in := range b.Instrs {
			record(in, ml)
			m.transfer(fn, in, ml)
		}
	}
}

func (m *mustLockModel) transfer(fn *ir.Func, in *ir.Instr, ml pointsto.ObjSet) {
	switch in.Op {
	case ir.OpMonEnter:
		if o := m.g.pts.MustPts(fn, in.Src[0]); o != nil {
			ml[o] = struct{}{}
		}
	case ir.OpMonExit, ir.OpWait:
		vp := m.g.pts.VarPts(fn, in.Src[0])
		if len(vp) == 0 {
			for o := range ml {
				delete(ml, o)
			}
			return
		}
		for o := range vp {
			delete(ml, o)
		}
	}
}

func (m *mustLockModel) At(in *ir.Instr) pointsto.ObjSet {
	if s := m.at[in]; s != nil {
		return s
	}
	return pointsto.ObjSet{}
}

func (m *mustLockModel) Entry(fn *ir.Func) pointsto.ObjSet {
	if s := m.entry[fn]; s != nil {
		return s
	}
	return pointsto.ObjSet{}
}

// buildSource is build without a *testing.T: nil when src does not
// parse or check.
func buildSource(src string) (*ir.Program, *Graph) {
	prog, err := parser.Parse("t.mj", src)
	if err != nil {
		return nil, nil
	}
	sp, err := sem.Check(prog)
	if err != nil {
		return nil, nil
	}
	low := lower.Lower(sp)
	pts := pointsto.Analyze(low.Prog)
	return low.Prog, Build(low.Prog, low, pts)
}

// diffModel returns a description of the first function entry or
// instruction where BuildMustLock and the model disagree, or "".
func diffModel(prog *ir.Program, g *Graph) string {
	ml, model := BuildMustLock(g), buildMustLockModel(g)
	for _, fn := range prog.Funcs {
		if got, want := ml.Entry(fn), model.Entry(fn); !sameSet(got, want) {
			return "Entry(" + fn.Name + ") = " + setString(got) + ", model " + setString(want)
		}
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if got, want := ml.At(in), model.At(in); !sameSet(got, want) {
					return "At(" + fn.InstrString(in) + " in " + fn.Name + ") = " + setString(got) + ", model " + setString(want)
				}
			}
		}
	}
	return ""
}

func setString(s pointsto.ObjSet) string {
	out := "{"
	for i, o := range s.Sorted() {
		if i > 0 {
			out += ", "
		}
		out += o.String()
	}
	return out + "}"
}

// modelSeedPrograms reads the paper benchmarks and the corpus programs.
func modelSeedPrograms(tb testing.TB) map[string]string {
	tb.Helper()
	out := make(map[string]string)
	for _, dir := range []string{"../bench/testdata", "../corpus/testdata"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.mj"))
		if err != nil || len(files) == 0 {
			tb.Fatalf("no programs under %s: %v", dir, err)
		}
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				tb.Fatal(err)
			}
			out[filepath.Base(f)] = string(data)
		}
	}
	return out
}

// TestMustLockMatchesModel holds At and Entry to the reference model on
// every instruction and function of the paper and corpus programs.
func TestMustLockMatchesModel(t *testing.T) {
	progs := modelSeedPrograms(t)
	names := make([]string, 0, len(progs))
	for n := range progs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		prog, g := buildSource(progs[n])
		if prog == nil {
			t.Fatalf("%s does not compile", n)
		}
		if d := diffModel(prog, g); d != "" {
			t.Errorf("%s: %s", n, d)
		}
	}
}

// TestMustLockUnreachableCallersStayTop: spin's only call site is its
// own body, so no lock-free context ever reaches it and its entry
// summary stays ⊤ — every abstract object.
func TestMustLockUnreachableCallersStayTop(t *testing.T) {
	prog, g := build(t, `
class Shared { int a; }
class A {
    static int a;
    static void spin(int n) { a = n; spin(n - 1); }
}
class M {
    static void main() {
        Shared s = new Shared();
    }
}`)
	if d := diffModel(prog, g); d != "" {
		t.Fatal(d)
	}
	ml := BuildMustLock(g)
	spin := prog.FuncByName("A.spin")
	all := len(g.pts.Objects())
	if all == 0 {
		t.Fatal("no abstract objects")
	}
	if s := ml.Entry(spin); len(s) != all {
		t.Errorf("Entry(spin) = %v, want all %d objects (⊤)", s.Sorted(), all)
	}
	if s := ml.At(accessIn(t, spin, isPut("a"))); len(s) != all {
		t.Errorf("At(a write) = %v, want all %d objects (⊤)", s.Sorted(), all)
	}
}

// TestMustLockWaitInLoop: a wait inside a loop releases the monitor on
// the back edge, so the loop header's meet and everything after the
// loop lose the lock.
func TestMustLockWaitInLoop(t *testing.T) {
	prog, g := build(t, `
class Shared { int a; int b; boolean ready; }
class W extends Thread {
    Shared s;
    W(Shared s0) { s = s0; }
    void run() {
        synchronized (s) {
            s.a = 1;
            while (!s.ready) {
                s.wait();
            }
            s.b = 2;
        }
    }
}
class M {
    static void main() {
        Shared s = new Shared();
        W w = new W(s);
        w.start();
        synchronized (s) { s.ready = true; s.notify(); }
        w.join();
    }
}`)
	if d := diffModel(prog, g); d != "" {
		t.Fatal(d)
	}
	ml := BuildMustLock(g)
	run := prog.FuncByName("W.run")
	if s := ml.At(accessIn(t, run, isPut("a"))); len(s) != 1 {
		t.Errorf("At(pre-loop write) = %v, want the Shared object", s.Sorted())
	}
	if s := ml.At(accessIn(t, run, isPut("b"))); len(s) != 0 {
		t.Errorf("At(post-loop write) = %v, want empty (wait on the back edge)", s.Sorted())
	}
}

// TestMustLockExitEmptyMayPT: exiting a monitor whose operand points to
// nothing may have released any lock, so the must set empties — even
// the enclosing monitor that is still held.
func TestMustLockExitEmptyMayPT(t *testing.T) {
	prog, g := build(t, `
class Shared { int a; int b; }
class W extends Thread {
    Shared s;
    Shared never;
    W(Shared s0) { s = s0; }
    void run() {
        synchronized (s) {
            s.a = 1;
            synchronized (never) { }
            s.b = 2;
        }
    }
}
class M {
    static void main() {
        Shared s = new Shared();
        W w = new W(s);
        w.start();
        w.join();
    }
}`)
	if d := diffModel(prog, g); d != "" {
		t.Fatal(d)
	}
	ml := BuildMustLock(g)
	run := prog.FuncByName("W.run")
	if s := ml.At(accessIn(t, run, isPut("a"))); len(s) != 1 {
		t.Errorf("At(before inner exit) = %v, want the Shared object", s.Sorted())
	}
	if s := ml.At(accessIn(t, run, isPut("b"))); len(s) != 0 {
		t.Errorf("At(after inner exit) = %v, want empty (exit of an empty MayPT)", s.Sorted())
	}
}

// FuzzMustLockModel is the differential fuzz target: any program that
// parses and checks must give BuildMustLock and the reference model the
// same At and Entry everywhere.
func FuzzMustLockModel(f *testing.F) {
	progs := modelSeedPrograms(f)
	names := make([]string, 0, len(progs))
	for n := range progs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f.Add(progs[n])
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, g := buildSource(src)
		if prog == nil {
			t.Skip("does not parse or check")
		}
		if d := diffModel(prog, g); d != "" {
			t.Fatal(d)
		}
	})
}
