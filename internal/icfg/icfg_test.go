package icfg

import (
	"testing"

	"racedet/internal/ir"
	"racedet/internal/lang/parser"
	"racedet/internal/lang/sem"
	"racedet/internal/lower"
	"racedet/internal/pointsto"
)

func build(t *testing.T, src string) (*ir.Program, *Graph) {
	t.Helper()
	prog, err := parser.Parse("t.mj", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	low := lower.Lower(sp)
	pts := pointsto.Analyze(low.Prog)
	return low.Prog, Build(low.Prog, low, pts)
}

// accessIn returns the first instruction of fn matching pred.
func accessIn(t *testing.T, fn *ir.Func, pred func(*ir.Instr) bool) *ir.Instr {
	t.Helper()
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if pred(in) {
				return in
			}
		}
	}
	t.Fatalf("no matching instruction in %s", fn.Name)
	return nil
}

func isPut(name string) func(*ir.Instr) bool {
	return func(in *ir.Instr) bool {
		return (in.Op == ir.OpPutField || in.Op == ir.OpPutStatic) && in.Field.Name == name
	}
}

const syncProgram = `
class Shared {
    int a;
    int b;
    int c;
}
class W extends Thread {
    Shared s;
    W(Shared s0) { s = s0; }

    synchronized void viaMethod() {
        s.a = 1;
    }
    void viaBlock() {
        synchronized (s) {
            s.b = 2;
            helper();
        }
    }
    void helper() {
        s.c = 3;
    }
    void run() {
        viaMethod();
        viaBlock();
        s.c = 4;
    }
}
class M {
    static void main() {
        Shared s = new Shared();
        W w1 = new W(s);
        w1.start();
        w1.join();
    }
}`

func TestMustSync(t *testing.T) {
	prog, g := build(t, syncProgram)

	// The write inside the synchronized block must be protected by the
	// (single-instance) Shared object.
	viaBlock := prog.FuncByName("W.viaBlock")
	writeB := accessIn(t, viaBlock, isPut("b"))
	if s := g.MustSyncOf(viaBlock, writeB); len(s) != 1 {
		t.Errorf("MustSync(s.b write) = %v, want the Shared object", s.Sorted())
	}

	// helper is called only from inside the block: the lock is still
	// must-held there.
	helper := prog.FuncByName("W.helper")
	writeC := accessIn(t, helper, isPut("c"))
	if s := g.MustSyncOf(helper, writeC); len(s) != 1 {
		t.Errorf("MustSync(helper's write) = %v, want the Shared object (caller holds it)", s.Sorted())
	}

	// The unprotected write in run has no must-held locks.
	run := prog.FuncByName("W.run")
	writeC4 := accessIn(t, run, isPut("c"))
	if s := g.MustSyncOf(run, writeC4); len(s) != 0 {
		t.Errorf("MustSync(unprotected write) = %v, want empty", s.Sorted())
	}

	// viaMethod's write is protected by the method receiver (the W
	// instance, single-instance here).
	viaMethod := prog.FuncByName("W.viaMethod")
	writeA := accessIn(t, viaMethod, isPut("a"))
	if s := g.MustSyncOf(viaMethod, writeA); len(s) != 1 {
		t.Errorf("MustSync(sync method write) = %v, want the receiver", s.Sorted())
	}
}

func TestHelperCalledFromTwoContextsLosesMustSync(t *testing.T) {
	_, g := build(t, `
class Shared { int c; }
class A {
    Shared s;
    void locked() { synchronized (s) { helper(); } }
    void unlocked() { helper(); }
    void helper() { s.c = 1; }
}
class M {
    static void main() {
        A a = new A();
        a.s = new Shared();
        a.locked();
        a.unlocked();
    }
}`)
	var helper *ir.Func
	for _, fn := range g.prog.Funcs {
		if fn.Name == "A.helper" {
			helper = fn
		}
	}
	write := accessIn(t, helper, isPut("c"))
	if s := g.MustSyncOf(helper, write); len(s) != 0 {
		t.Errorf("helper reachable without the lock: MustSync = %v, want empty", s.Sorted())
	}
}

func TestThreadRoots(t *testing.T) {
	prog, g := build(t, syncProgram)
	roots := g.roots
	if len(roots) != 2 {
		t.Fatalf("roots = %v, want [main, W.run]", roots)
	}
	names := map[string]bool{}
	for _, r := range roots {
		names[r.Fn.Name] = true
	}
	if !names["M.main"] || !names["W.run"] {
		t.Errorf("roots = %v", names)
	}
	// helper is reachable only from the run root.
	helper := prog.FuncByName("W.helper")
	rr := g.ReachingRoots(helper)
	if len(rr) != 1 || rr[0].Fn.Name != "W.run" {
		t.Errorf("reaching roots of helper = %v", rr)
	}
}

func TestMustThread(t *testing.T) {
	prog, g := build(t, syncProgram)
	main := prog.FuncByName("M.main")
	if s := g.MustThreadOf(main); len(s) != 1 {
		t.Errorf("MustThread(main) = %v, want the synthetic main object", s.Sorted())
	}
	// W.run's receiver is the single W allocation: must-thread known.
	run := prog.FuncByName("W.run")
	if s := g.MustThreadOf(run); len(s) != 1 {
		t.Errorf("MustThread(run) = %v, want the single W instance", s.Sorted())
	}
}

func TestMustThreadEmptyForMultiInstanceThreads(t *testing.T) {
	prog, g := build(t, `
class W extends Thread {
    int n;
    void run() { n = 1; }
}
class M {
    static void main() {
        for (int i = 0; i < 2; i++) {
            W w = new W();
            w.start();
        }
    }
}`)
	run := prog.FuncByName("W.run")
	if s := g.MustThreadOf(run); len(s) != 0 {
		t.Errorf("MustThread of a loop-started run = %v, want empty", s.Sorted())
	}
}

func TestMethodCalledFromBothThreadsHasEmptyMustThread(t *testing.T) {
	prog, g := build(t, `
class Util {
    static int f(int x) { return x + 1; }
}
class W extends Thread {
    int n;
    void run() { n = Util.f(1); }
}
class M {
    static void main() {
        W w = new W();
        w.start();
        print(Util.f(2));
        w.join();
    }
}`)
	f := prog.FuncByName("Util.f")
	if s := g.MustThreadOf(f); len(s) != 0 {
		t.Errorf("MustThread(Util.f) = %v, want empty (reachable from two roots)", s.Sorted())
	}
	rr := g.ReachingRoots(f)
	if len(rr) != 2 {
		t.Errorf("reaching roots = %v, want 2", rr)
	}
}

func TestNodePerSyncRegion(t *testing.T) {
	prog, g := build(t, syncProgram)
	// W has: viaMethod (method-level region), viaBlock (block region),
	// plus method nodes. Count region nodes.
	regionNodes := 0
	for _, n := range g.nodes {
		if n.Region != nil {
			regionNodes++
		}
	}
	if regionNodes != 2 {
		t.Errorf("region nodes = %d, want 2", regionNodes)
	}
	// NodeOfInstr: the write in viaBlock maps to the block's region
	// node.
	viaBlock := prog.FuncByName("W.viaBlock")
	write := accessIn(t, viaBlock, isPut("b"))
	n := g.NodeOfInstr(viaBlock, write)
	if n.Region == nil {
		t.Error("write inside synchronized block should map to the region node")
	}
}
