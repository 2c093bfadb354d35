package interp

import (
	"strings"
	"testing"

	"racedet/internal/lang/parser"
	"racedet/internal/lang/sem"
	"racedet/internal/lower"
	"racedet/internal/rt/event"
)

// runSrc executes src and returns its print output.
func runSrc(t *testing.T, src string, opts Options) (string, Result) {
	t.Helper()
	out, res, err := tryRun(t, src, opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out, res
}

func tryRun(t *testing.T, src string, opts Options) (string, Result, error) {
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
	var buf strings.Builder
	opts.Out = &buf
	m := New(Decode(low.Prog), opts)
	res, err := m.Run()
	return buf.String(), res, err
}

func TestArithmeticAndControlFlow(t *testing.T) {
	out, _ := runSrc(t, `
class M {
    static void main() {
        int sum = 0;
        for (int i = 1; i <= 10; i++) { sum += i; }
        print(sum);                    // 55
        print(7 / 2);                  // 3
        print(-7 / 2);                 // -3 (truncating)
        print(7 % 3);                  // 1
        print(2 * 3 - 4);              // 2
        int x = 5;
        if (x > 3 && x < 10) { print(100); } else { print(200); }
        boolean b = !(x == 5) || x >= 5;
        print(b);
        print('A');                    // 65
        print("hello");
    }
}`, Options{})
	want := "55\n3\n-3\n1\n2\n100\ntrue\n65\nhello\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestWhileBreakContinue(t *testing.T) {
	out, _ := runSrc(t, `
class M {
    static void main() {
        int i = 0;
        int sum = 0;
        while (true) {
            i++;
            if (i % 2 == 0) { continue; }
            if (i > 9) { break; }
            sum += i;
        }
        print(sum); // 1+3+5+7+9 = 25
    }
}`, Options{})
	if strings.TrimSpace(out) != "25" {
		t.Errorf("output = %q", out)
	}
}

func TestObjectsAndVirtualDispatch(t *testing.T) {
	out, _ := runSrc(t, `
class Shape { int area() { return 0; } }
class Square extends Shape {
    int side;
    Square(int s) { side = s; }
    int area() { return side * side; }
}
class Rect extends Square {
    int h;
    Rect(int w, int hh) { side = w; h = hh; }
    int area() { return side * h; }
}
class M {
    static void main() {
        Shape[] shapes = new Shape[3];
        shapes[0] = new Shape();
        shapes[1] = new Square(4);
        shapes[2] = new Rect(3, 5);
        int total = 0;
        for (int i = 0; i < shapes.length; i++) {
            total += shapes[i].area();
        }
        print(total); // 0 + 16 + 15
    }
}`, Options{})
	if strings.TrimSpace(out) != "31" {
		t.Errorf("output = %q", out)
	}
}

func TestRecursion(t *testing.T) {
	out, _ := runSrc(t, `
class M {
    static int fib(int n) {
        if (n < 2) { return n; }
        return fib(n - 1) + fib(n - 2);
    }
    static void main() { print(fib(15)); }
}`, Options{})
	if strings.TrimSpace(out) != "610" {
		t.Errorf("fib(15) = %q, want 610", out)
	}
}

func TestFieldsDefaultValues(t *testing.T) {
	out, _ := runSrc(t, `
class A { int i; boolean b; A next; int[] arr; }
class M {
    static void main() {
        A a = new A();
        print(a.i);
        print(a.b);
        print(a.next == null);
        print(a.arr == null);
        int[] fresh = new int[3];
        print(fresh[1]);
    }
}`, Options{})
	want := "0\nfalse\ntrue\ntrue\n0\n"
	if out != want {
		t.Errorf("output = %q, want %q", out, want)
	}
}

func TestThreadsAndJoin(t *testing.T) {
	out, _ := runSrc(t, `
class Counter { int n; }
class W extends Thread {
    Counter c;
    int times;
    W(Counter c0, int k) { c = c0; times = k; }
    void run() {
        for (int i = 0; i < times; i++) {
            synchronized (c) { c.n = c.n + 1; }
        }
    }
}
class M {
    static void main() {
        Counter c = new Counter();
        W a = new W(c, 100);
        W b = new W(c, 50);
        a.start();
        b.start();
        a.join();
        b.join();
        print(c.n);
    }
}`, Options{})
	if strings.TrimSpace(out) != "150" {
		t.Errorf("output = %q, want 150", out)
	}
}

func TestMonitorsAreReentrant(t *testing.T) {
	out, _ := runSrc(t, `
class A {
    int f;
    synchronized void outer() { inner(); }
    synchronized void inner() { synchronized (this) { f = 42; } }
}
class M {
    static void main() {
        A a = new A();
        a.outer();
        print(a.f);
    }
}`, Options{})
	if strings.TrimSpace(out) != "42" {
		t.Errorf("output = %q", out)
	}
}

func TestMonitorMutualExclusion(t *testing.T) {
	// Two threads increment a counter 500 times each under a lock;
	// the total must be exact under every quantum and seed.
	src := `
class Counter { int n; }
class W extends Thread {
    Counter c;
    W(Counter c0) { c = c0; }
    void run() {
        for (int i = 0; i < 500; i++) {
            synchronized (c) {
                int v = c.n;
                c.n = v + 1;
            }
        }
    }
}
class M {
    static void main() {
        Counter c = new Counter();
        W a = new W(c);
        W b = new W(c);
        a.start(); b.start(); a.join(); b.join();
        print(c.n);
    }
}`
	for _, o := range []Options{{}, {Quantum: 1}, {Quantum: 7}, {Seed: 3}, {Seed: 99, Quantum: 13}} {
		out, _ := runSrc(t, src, o)
		if strings.TrimSpace(out) != "1000" {
			t.Errorf("opts %+v: output %q, want 1000", o, out)
		}
	}
}

func TestUnsynchronizedLostUpdateIsPossible(t *testing.T) {
	// Same program without the lock: with a small quantum, updates
	// interleave and some are lost. This demonstrates the interpreter
	// actually interleaves threads mid-read-modify-write.
	src := `
class Counter { int n; }
class W extends Thread {
    Counter c;
    W(Counter c0) { c = c0; }
    void run() {
        for (int i = 0; i < 500; i++) {
            int v = c.n;
            c.n = v + 1;
        }
    }
}
class M {
    static void main() {
        Counter c = new Counter();
        W a = new W(c);
        W b = new W(c);
        a.start(); b.start(); a.join(); b.join();
        print(c.n);
    }
}`
	out, _ := runSrc(t, src, Options{Quantum: 3})
	if strings.TrimSpace(out) == "1000" {
		t.Errorf("expected lost updates with quantum 3, got exact 1000")
	}
}

func TestDeterminism(t *testing.T) {
	src := `
class W extends Thread {
    int id; int acc;
    W(int i) { id = i; acc = 0; }
    void run() { for (int i = 0; i < 100; i++) { acc = acc + id * i; } }
}
class M {
    static void main() {
        W a = new W(1); W b = new W(2);
        a.start(); b.start(); a.join(); b.join();
        print(a.acc + b.acc);
    }
}`
	_, res1 := runSrc(t, src, Options{Seed: 42})
	_, res2 := runSrc(t, src, Options{Seed: 42})
	if res1.Steps != res2.Steps || res1.ContextSwaps != res2.ContextSwaps {
		t.Errorf("same seed differs: %+v vs %+v", res1, res2)
	}
	_, res3 := runSrc(t, src, Options{Seed: 43})
	if res3.ContextSwaps == res1.ContextSwaps && res3.Steps == res1.Steps {
		t.Logf("note: different seeds produced identical schedules (possible but unusual)")
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"null field", `
class A { int f; }
class M { static void main() { A a = null; a.f = 1; } }`, "null pointer"},
		{"null array", `
class M { static void main() { int[] a = null; a[0] = 1; } }`, "null pointer"},
		{"bounds", `
class M { static void main() { int[] a = new int[2]; a[2] = 1; } }`, "out of bounds"},
		{"negative index", `
class M { static void main() { int[] a = new int[2]; a[0 - 1] = 1; } }`, "out of bounds"},
		{"div zero", `
class M { static void main() { int z = 0; print(1 / z); } }`, "division by zero"},
		{"mod zero", `
class M { static void main() { int z = 0; print(1 % z); } }`, "division by zero"},
		{"negative array size", `
class M { static void main() { int n = 0 - 3; int[] a = new int[n]; } }`, "negative array size"},
		{"double start", `
class W extends Thread { void run() { } }
class M { static void main() { W w = new W(); w.start(); w.join(); w.start(); } }`, "started twice"},
		{"stack overflow", `
class M {
    static int boom(int x) { return boom(x + 1); }
    static void main() { print(boom(0)); }
}`, "stack overflow"},
		{"deadlock", `
class A { int f; }
class W extends Thread {
    A p; A q;
    W(A p0, A q0) { p = p0; q = q0; }
    void run() {
        for (int i = 0; i < 50; i++) {
            synchronized (p) { synchronized (q) { p.f = p.f + 1; } }
        }
    }
}
class M {
    static void main() {
        A x = new A(); A y = new A();
        W w1 = new W(x, y);
        W w2 = new W(y, x);
        w1.start(); w2.start(); w1.join(); w2.join();
    }
}`, "deadlock"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := Options{Quantum: 3}
			_, _, err := tryRun(t, c.src, opts)
			if err == nil {
				t.Fatalf("want runtime error containing %q, got nil", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err.Error(), c.want)
			}
		})
	}
}

func TestJoinBeforeStartIsNoop(t *testing.T) {
	out, _ := runSrc(t, `
class W extends Thread { void run() { } }
class M {
    static void main() {
        W w = new W();
        w.join();
        print(1);
    }
}`, Options{})
	if strings.TrimSpace(out) != "1" {
		t.Errorf("output = %q", out)
	}
}

func TestThreadWithDefaultRunFinishesImmediately(t *testing.T) {
	out, _ := runSrc(t, `
class W extends Thread { }
class M {
    static void main() {
        W w = new W();
        w.start();
        w.join();
        print(2);
    }
}`, Options{})
	if strings.TrimSpace(out) != "2" {
		t.Errorf("output = %q", out)
	}
}

// recordingSink captures the event stream for assertions.
type recordingSink struct {
	started  []event.ThreadID
	finished []event.ThreadID
	joins    [][2]event.ThreadID
	enters   int
	exits    int
	accesses int
}

func (r *recordingSink) ThreadStarted(c, p event.ThreadID) { r.started = append(r.started, c) }
func (r *recordingSink) ThreadFinished(t event.ThreadID)   { r.finished = append(r.finished, t) }
func (r *recordingSink) Joined(a, b event.ThreadID) {
	r.joins = append(r.joins, [2]event.ThreadID{a, b})
}
func (r *recordingSink) MonitorEnter(t event.ThreadID, l event.ObjID, d int) {
	if d == 1 {
		r.enters++
	}
}
func (r *recordingSink) MonitorExit(t event.ThreadID, l event.ObjID, d int) {
	if d == 0 {
		r.exits++
	}
}
func (r *recordingSink) Access(a event.Access) { r.accesses++ }

func TestSinkEventStream(t *testing.T) {
	src := `
class W extends Thread {
    int n;
    void run() { synchronized (this) { n = 1; } }
}
class M {
    static void main() {
        W w1 = new W();
        W w2 = new W();
        w1.start(); w2.start();
        w1.join(); w2.join();
    }
}`
	prog, _ := parser.Parse("t.mj", src)
	sp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	low := lower.Lower(sp)
	sink := &recordingSink{}
	m := New(Decode(low.Prog), Options{Sink: sink})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sink.started) != 3 { // main + two workers
		t.Errorf("started = %v", sink.started)
	}
	if len(sink.finished) != 3 {
		t.Errorf("finished = %v", sink.finished)
	}
	if len(sink.joins) != 2 {
		t.Errorf("joins = %v", sink.joins)
	}
	if sink.enters != sink.exits || sink.enters != 2 {
		t.Errorf("enters/exits = %d/%d, want 2/2", sink.enters, sink.exits)
	}
	// No instrumentation inserted, so no access events.
	if sink.accesses != 0 {
		t.Errorf("accesses = %d, want 0 without instrumentation", sink.accesses)
	}
}

func TestObjectIdentityAndDescribe(t *testing.T) {
	src := `
class A { int f; }
class M { static void main() { A a = new A(); a.f = 1; } }`
	prog, _ := parser.Parse("t.mj", src)
	sp, err := sem.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	low := lower.Lower(sp)
	m := New(Decode(low.Prog), Options{})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	obj := m.ObjectByID(1)
	if obj == nil || obj.Class == nil || obj.Class.Name != "A" {
		t.Fatalf("object 1 = %+v", obj)
	}
	if !strings.Contains(m.DescribeObj(1), "A#1") {
		t.Errorf("describe = %q", m.DescribeObj(1))
	}
	if m.ObjectByID(999) != nil {
		t.Error("out-of-range ID should be nil")
	}
	if !strings.Contains(m.DescribeObj(event.PseudoLock(2)), "S2") {
		t.Errorf("pseudolock describe = %q", m.DescribeObj(event.PseudoLock(2)))
	}
}

func TestStepBudget(t *testing.T) {
	src := `
class M { static void main() { while (true) { } } }`
	_, _, err := tryRun(t, src, Options{MaxSteps: 1000})
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("want step-budget error, got %v", err)
	}
}
