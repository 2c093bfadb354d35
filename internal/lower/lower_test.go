package lower

import (
	"testing"

	"racedet/internal/ir"
	"racedet/internal/lang/parser"
	"racedet/internal/lang/sem"
)

func lowerSrc(t *testing.T, src string) *Result {
	t.Helper()
	prog, err := parser.Parse("t.mj", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return Lower(sp)
}

func fn(t *testing.T, res *Result, name string) *ir.Func {
	t.Helper()
	f := res.Prog.FuncByName(name)
	if f == nil {
		t.Fatalf("no function %s", name)
	}
	return f
}

// monitorBalance simulates every acyclic path through the CFG and
// checks that monitor enters and exits balance and nest properly
// (LIFO by lock register).
func monitorBalance(t *testing.T, f *ir.Func) {
	t.Helper()
	type state struct {
		block *ir.Block
		stack []int // lock registers
	}
	seen := map[string]bool{}
	var walk func(s state)
	key := func(s state) string {
		k := string(rune(s.block.ID))
		for _, l := range s.stack {
			k += ":" + string(rune(l))
		}
		return k
	}
	walk = func(s state) {
		if seen[key(s)] {
			return
		}
		seen[key(s)] = true
		stack := append([]int(nil), s.stack...)
		for _, in := range s.block.Instrs {
			switch in.Op {
			case ir.OpMonEnter:
				stack = append(stack, in.Src[0])
			case ir.OpMonExit:
				if len(stack) == 0 {
					t.Fatalf("%s: monexit with empty monitor stack in b%d", f.Name, s.block.ID)
				}
				top := stack[len(stack)-1]
				if top != in.Src[0] {
					t.Fatalf("%s: non-LIFO monexit in b%d: top r%d, exit r%d", f.Name, s.block.ID, top, in.Src[0])
				}
				stack = stack[:len(stack)-1]
			case ir.OpReturn:
				if len(stack) != 0 {
					t.Fatalf("%s: return with %d monitors held in b%d", f.Name, len(stack), s.block.ID)
				}
			}
		}
		for _, succ := range s.block.Succs {
			walk(state{block: succ, stack: stack})
		}
	}
	walk(state{block: f.Entry})
}

func TestSynchronizedMethodLowering(t *testing.T) {
	res := lowerSrc(t, `
class A {
    int f;
    synchronized void m(boolean c) {
        f = 1;
        if (c) { return; }
        f = 2;
    }
}
class M { static void main() { } }`)
	f := fn(t, res, "A.m")
	monitorBalance(t, f)
	enters := f.CountInstrs(func(in *ir.Instr) bool { return in.Op == ir.OpMonEnter })
	if enters != 1 {
		t.Errorf("monitorenter count = %d, want 1", enters)
	}
	// Two exits: one on the early return path, one at the end.
	exits := f.CountInstrs(func(in *ir.Instr) bool { return in.Op == ir.OpMonExit })
	if exits != 2 {
		t.Errorf("monitorexit count = %d, want 2", exits)
	}
	// Body instructions must be stamped with the method-level region.
	var stamped bool
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPutField && len(in.SyncRegions) == 1 {
				stamped = true
			}
		}
	}
	if !stamped {
		t.Error("field writes not stamped with the sync region")
	}
}

func TestStaticSynchronizedUsesClassRef(t *testing.T) {
	res := lowerSrc(t, `
class A {
    static int s;
    static synchronized void m() { s = 1; }
}
class M { static void main() { } }`)
	f := fn(t, res, "A.m")
	monitorBalance(t, f)
	if n := f.CountInstrs(func(in *ir.Instr) bool { return in.Op == ir.OpClassRef }); n != 1 {
		t.Errorf("classref count = %d, want 1", n)
	}
}

func TestNestedSyncBlocksAndBreak(t *testing.T) {
	res := lowerSrc(t, `
class A {
    int f;
    void m(A p, A q) {
        int i = 0;
        while (i < 10) {
            synchronized (p) {
                f = f + 1;
                synchronized (q) {
                    if (f > 5) { break; }
                    f = f + 2;
                }
            }
            i = i + 1;
        }
        synchronized (p) {
            if (f == 0) { return; }
            f = 9;
        }
    }
}
class M { static void main() { } }`)
	f := fn(t, res, "A.m")
	monitorBalance(t, f)

	// The innermost write must carry a two-deep region stack.
	found := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPutField && len(in.SyncRegions) == 2 {
				found = true
			}
		}
	}
	if !found {
		t.Error("no access stamped with nested regions")
	}
	info := res.Infos[f]
	if len(info.Regions) != 3 {
		t.Errorf("region count = %d, want 3", len(info.Regions))
	}
}

func TestContinueExitsInnerMonitors(t *testing.T) {
	res := lowerSrc(t, `
class A {
    int f;
    void m(A p) {
        for (int i = 0; i < 5; i++) {
            synchronized (p) {
                if (i == 2) { continue; }
                f = i;
            }
        }
    }
}
class M { static void main() { } }`)
	monitorBalance(t, fn(t, res, "A.m"))
}

func TestCompoundAssignExpandsToReadWrite(t *testing.T) {
	res := lowerSrc(t, `
class A {
    int f;
    void m(int[] a) {
        f += 1;
        a[0] += 2;
        f++;
    }
}
class M { static void main() { } }`)
	f := fn(t, res, "A.m")
	gets := f.CountInstrs(func(in *ir.Instr) bool { return in.Op == ir.OpGetField })
	puts := f.CountInstrs(func(in *ir.Instr) bool { return in.Op == ir.OpPutField })
	if gets != 2 || puts != 2 {
		t.Errorf("getfield/putfield = %d/%d, want 2/2 (each compound is read+write)", gets, puts)
	}
	aloads := f.CountInstrs(func(in *ir.Instr) bool { return in.Op == ir.OpArrayLoad })
	astores := f.CountInstrs(func(in *ir.Instr) bool { return in.Op == ir.OpArrayStore })
	if aloads != 1 || astores != 1 {
		t.Errorf("aload/astore = %d/%d, want 1/1", aloads, astores)
	}
}

func TestShortCircuitLowering(t *testing.T) {
	res := lowerSrc(t, `
class A {
    boolean hot(int x) { return x > 0; }
    void m(int x) {
        if (x > 1 && hot(x)) { print(1); }
        if (x > 2 || hot(x)) { print(2); }
        boolean b = x > 3 && hot(x);
        print(b);
    }
}
class M { static void main() { } }`)
	f := fn(t, res, "A.m")
	// With short-circuiting, calls to hot appear on conditional paths:
	// exactly 3 call sites, and at least 3 branch instructions before
	// them (no eager evaluation).
	calls := f.CountInstrs(func(in *ir.Instr) bool { return in.Op == ir.OpCall })
	if calls != 3 {
		t.Errorf("call count = %d, want 3", calls)
	}
	branches := f.CountInstrs(func(in *ir.Instr) bool { return in.Op == ir.OpBranch })
	if branches < 5 {
		t.Errorf("branch count = %d, want >= 5 (short-circuit control flow)", branches)
	}
}

func TestThreadOpsLowering(t *testing.T) {
	res := lowerSrc(t, `
class W extends Thread {
    void run() { }
}
class M {
    static void main() {
        W w = new W();
        w.start();
        w.join();
    }
}`)
	f := fn(t, res, "M.main")
	if n := f.CountInstrs(func(in *ir.Instr) bool { return in.Op == ir.OpStart }); n != 1 {
		t.Errorf("start count = %d", n)
	}
	if n := f.CountInstrs(func(in *ir.Instr) bool { return in.Op == ir.OpJoin }); n != 1 {
		t.Errorf("join count = %d", n)
	}
}

func TestCtorCallAfterNew(t *testing.T) {
	res := lowerSrc(t, `
class A {
    int f;
    A(int x) { f = x; }
}
class M { static void main() { A a = new A(7); print(a.f); } }`)
	f := fn(t, res, "M.main")
	var sawNew, sawCtor bool
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpNew {
				sawNew = true
			}
			if in.Op == ir.OpCall && in.Callee.IsCtor {
				sawCtor = true
				if in.Virtual {
					t.Error("constructor call must not be virtual")
				}
			}
		}
	}
	if !sawNew || !sawCtor {
		t.Errorf("new=%v ctor=%v", sawNew, sawCtor)
	}
}

func TestEveryBlockTerminated(t *testing.T) {
	res := lowerSrc(t, `
class A {
    int f;
    int m(int x) {
        while (x > 0) {
            if (x == 3) { return x; }
            x = x - 1;
        }
        return f;
    }
}
class M { static void main() { } }`)
	for _, f := range res.Prog.Funcs {
		for _, b := range f.ReachableBlocks() {
			if b.Terminator() == nil {
				t.Errorf("%s: reachable block b%d lacks a terminator", f.Name, b.ID)
			}
		}
	}
}

func TestVirtualDispatchFlag(t *testing.T) {
	res := lowerSrc(t, `
class A { int m() { return 1; } }
class B extends A { int m() { return 2; } }
class M {
    static int helper() { return 0; }
    static void main() {
        A a = new B();
        print(a.m());
        print(helper());
    }
}`)
	f := fn(t, res, "M.main")
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall || in.Callee.IsCtor {
				continue
			}
			wantVirtual := in.Callee.Name == "m"
			if in.Virtual != wantVirtual {
				t.Errorf("call %s virtual=%v, want %v", in.Callee.QualifiedName(), in.Virtual, wantVirtual)
			}
		}
	}
}

func TestWaitNotifyLowering(t *testing.T) {
	res := lowerSrc(t, `
class Box {
    boolean full;
    synchronized void put() {
        while (full) { this.wait(); }
        full = true;
        this.notify();
        this.notifyAll();
    }
}
class M { static void main() { } }`)
	f := fn(t, res, "Box.put")
	monitorBalance(t, f)
	count := func(op ir.Op) int {
		return f.CountInstrs(func(in *ir.Instr) bool { return in.Op == op })
	}
	if count(ir.OpWait) != 1 || count(ir.OpNotify) != 1 || count(ir.OpNotifyAll) != 1 {
		t.Errorf("wait/notify/notifyAll = %d/%d/%d, want 1/1/1",
			count(ir.OpWait), count(ir.OpNotify), count(ir.OpNotifyAll))
	}
	// They are call-like: the static weaker-than Exec must treat them
	// as barriers.
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpWait && !in.IsCallLike() {
				t.Error("wait must be call-like")
			}
		}
	}
}
