package pointsto

import (
	"testing"

	"racedet/internal/ir"
	"racedet/internal/lang/parser"
	"racedet/internal/lang/sem"
	"racedet/internal/lower"
)

func analyze(t *testing.T, src string) (*ir.Program, *Result) {
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
	return low.Prog, Analyze(low.Prog)
}

// objNames renders an ObjSet's classes for matching.
func classNames(s ObjSet) map[string]int {
	out := map[string]int{}
	for o := range s {
		name := "?"
		switch {
		case o.Kind == ObjClass:
			name = "class:" + o.Class.Name
		case o.Kind == ObjMain:
			name = "main"
		case o.Kind == ObjArray:
			name = "array"
		case o.Class != nil:
			name = o.Class.Name
		}
		out[name]++
	}
	return out
}

func TestFlowThroughFieldsAndCalls(t *testing.T) {
	src := `
class Box { Item item; }
class Item { int v; }
class M {
    static Box make() {
        Box b = new Box();
        b.item = new Item();
        return b;
    }
    static void main() {
        Box b1 = make();
        Box b2 = make();
        Item i = b1.item;
        i.v = 1;
    }
}`
	prog, res := analyze(t, src)
	main := prog.FuncByName("M.main")
	// Find the putfield Item.v; its receiver must point to the Item
	// allocation site.
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPutField && in.Field.Name == "v" {
				got := classNames(res.VarPts(main, in.Src[0]))
				if got["Item"] != 1 || len(got) != 1 {
					t.Errorf("pts(i) = %v, want exactly the Item site", got)
				}
			}
		}
	}
}

func TestVirtualCallResolution(t *testing.T) {
	src := `
class A { int m() { return 1; } }
class B extends A { int m() { return 2; } }
class C extends A { int m() { return 3; } }
class M {
    static void main() {
        A x = new B();
        print(x.m());
        A y = new C();
        print(y.m());
    }
}`
	prog, res := analyze(t, src)
	main := prog.FuncByName("M.main")
	var targets []string
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				for _, callee := range res.Callees[in] {
					targets = append(targets, callee.Name)
				}
			}
		}
	}
	if len(targets) != 2 || targets[0] != "B.m" || targets[1] != "C.m" {
		t.Errorf("call targets = %v, want [B.m C.m] (points-to-based devirtualization)", targets)
	}
}

func TestStartTargetsAndThreadReceiver(t *testing.T) {
	src := `
class W extends Thread {
    int n;
    void run() { n = 1; }
}
class M {
    static void main() {
        W w = new W();
        w.start();
        w.join();
    }
}`
	prog, res := analyze(t, src)
	main := prog.FuncByName("M.main")
	runFn := prog.FuncByName("W.run")
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStart {
				targets := res.StartTargets[in]
				if len(targets) != 1 || targets[0] != runFn {
					t.Fatalf("start targets = %v", targets)
				}
			}
		}
	}
	// The thread object must flow into run's receiver.
	got := classNames(res.VarPts(runFn, 0))
	if got["W"] != 1 {
		t.Errorf("run's this = %v", got)
	}
}

func TestArrayElementFlow(t *testing.T) {
	src := `
class Item { int v; }
class M {
    static void main() {
        Item[] items = new Item[2];
        items[0] = new Item();
        Item x = items[1];
        x.v = 1;
    }
}`
	prog, res := analyze(t, src)
	main := prog.FuncByName("M.main")
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPutField {
				got := classNames(res.VarPts(main, in.Src[0]))
				if got["Item"] != 1 {
					t.Errorf("array element flow lost: %v", got)
				}
			}
		}
	}
}

func TestStaticFieldFlow(t *testing.T) {
	src := `
class G { static G instance; int v; }
class M {
    static void main() {
        G.instance = new G();
        G g = G.instance;
        g.v = 1;
    }
}`
	prog, res := analyze(t, src)
	main := prog.FuncByName("M.main")
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPutField && in.Field.Name == "v" {
				got := classNames(res.VarPts(main, in.Src[0]))
				if got["G"] != 1 {
					t.Errorf("static flow lost: %v", got)
				}
			}
		}
	}
}

func TestSingleInstance(t *testing.T) {
	src := `
class A { int v; }
class M {
    static A once() { return new A(); }
    static A many() { return new A(); }
    static void main() {
        A a = once();            // single-instance site (one call, no loop)
        for (int i = 0; i < 3; i++) {
            A b = many();        // called from a loop: multi-instance
            b.v = i;
        }
        a.v = 9;
    }
}`
	prog, res := analyze(t, src)
	onceFn := prog.FuncByName("M.once")
	manyFn := prog.FuncByName("M.many")
	if !res.singleFn[onceFn] {
		t.Error("once() must be single-instance")
	}
	if res.singleFn[manyFn] {
		t.Error("many() is called from a loop: not single-instance")
	}
	// MustPts: the receiver of a.v write must be a must pointer.
	main := prog.FuncByName("M.main")
	var aWrite, bWrite *ir.Instr
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPutField && in.Field.Name == "v" {
				if in.Value == 0 { // disambiguate by checking operand counts later
				}
				// The write of 9 is a.v; the loop write is b.v.
				if len(res.VarPts(main, in.Src[0])) == 1 {
					for o := range res.VarPts(main, in.Src[0]) {
						if o.SingleInstance {
							aWrite = in
						} else {
							bWrite = in
						}
					}
				}
			}
		}
	}
	if aWrite == nil {
		t.Fatal("no single-instance write found")
	}
	if res.MustPts(main, aWrite.Src[0]) == nil {
		t.Error("a's receiver should be a must points-to")
	}
	if bWrite != nil && res.MustPts(main, bWrite.Src[0]) != nil {
		t.Error("loop-allocated object must not be a must points-to")
	}
}

func TestRecursionIsNotSingleInstance(t *testing.T) {
	src := `
class M {
    static int f(int n) {
        if (n <= 0) { return 0; }
        return f(n - 1) + 1;
    }
    static void main() { print(f(3)); }
}`
	prog, res := analyze(t, src)
	f := prog.FuncByName("M.f")
	if res.singleFn[f] {
		t.Error("recursive function cannot be single-instance")
	}
}

func TestLoopyBlocks(t *testing.T) {
	src := `
class M {
    static void main() {
        int before = 1;
        for (int i = 0; i < 3; i++) { before = before + i; }
        print(before);
    }
}`
	prog, res := analyze(t, src)
	main := prog.FuncByName("M.main")
	loopy, straight := 0, 0
	for _, b := range main.ReachableBlocks() {
		if res.loopy[b] {
			loopy++
		} else {
			straight++
		}
	}
	if loopy == 0 || straight == 0 {
		t.Errorf("loopy=%d straight=%d; both kinds expected", loopy, straight)
	}
}

func TestClassObjectsAndMainObj(t *testing.T) {
	src := `class M { static void main() { } }`
	prog, res := analyze(t, src)
	if res.MainObj() == nil || !res.MainObj().SingleInstance {
		t.Error("main thread object must exist and be single-instance")
	}
	mcl := prog.Sem.Classes["M"]
	if res.ClassObj(mcl) == nil || !res.ClassObj(mcl).SingleInstance {
		t.Error("class objects must exist and be single-instance")
	}
}
