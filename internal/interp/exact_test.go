package interp

import (
	"errors"
	"testing"
)

// abbaSrc deadlocks under small quanta: two threads take the same two
// monitors in opposite orders.
const abbaSrc = `
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
}`

// lostWakeSrc waits for a notify that never comes, so the dump shows a
// thread in the wait set.
const lostWakeSrc = `
class Box { int v; }
class Waiter extends Thread {
    Box b;
    Waiter(Box b0) { b = b0; }
    void run() { synchronized (b) { b.wait(); } }
}
class M {
    static void main() {
        Box b = new Box();
        Waiter w = new Waiter(b);
        w.start();
        w.join();
    }
}`

// nestedSpinSrc spins two calls deep after its child thread finished,
// so the dump shows a callee frame and a finished thread.
const nestedSpinSrc = `
class Flag { int go; }
class Quick extends Thread { Flag f; Quick(Flag f0) { f = f0; } void run() { f.go = 0; } }
class Main {
    static int poll(Flag f) { return f.go; }
    static boolean idle(Flag f) { return poll(f) == 0; }
    static void main() {
        Flag f = new Flag();
        Quick q = new Quick(f);
        q.start();
        q.join();
        while (idle(f)) { }
    }
}`

// faultSrc dereferences null three calls deep.
const faultSrc = `
class Node { Node next; int v; }
class Main {
    static int depth(Node n, int k) { if (k == 0) { return n.v; } return depth(n.next, k - 1); }
    static void main() {
        Node a = new Node();
        a.next = new Node();
        print(depth(a, 3));
    }
}`

// TestRuntimeErrorExact pins every scheduler-level error byte for
// byte: the kind, the step count it fired at, and the rendered error
// with its thread dump ("[tN state steps=S at fn bB pcP Op]"). A step
// budget must fire after exactly MaxSteps instructions, on the thread
// that executed the last one.
func TestRuntimeErrorExact(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		opts  Options
		kind  ErrKind
		steps uint64
		swaps uint64
		err   string
	}{
		{"deadlock", abbaSrc, Options{Quantum: 3}, ErrDeadlock, 39, 15,
			"-: runtime error in T0: deadlock: thread is blocked and no thread can run; threads: [T0 joining steps=19 at M.main b0 pc12 join] [T1 blocked steps=10 at W.run b2 pc3 monenter] [T2 blocked steps=10 at W.run b2 pc3 monenter] "},
		{"deadlock-seed1", abbaSrc, Options{Seed: 1, Quantum: 3}, ErrDeadlock, 355, 119,
			"-: runtime error in T0: deadlock: thread is blocked and no thread can run; threads: [T0 joining steps=19 at M.main b0 pc12 join] [T1 blocked steps=228 at W.run b2 pc3 monenter] [T2 blocked steps=108 at W.run b2 pc3 monenter] "},
		{"deadlock-wait", lostWakeSrc, Options{}, ErrDeadlock, 13, 2,
			"-: runtime error in T0: deadlock: thread is blocked and no thread can run; threads: [T0 joining steps=9 at M.main b0 pc6 join] [T1 waiting steps=4 at Waiter.run b0 pc3 wait] "},
		{"livelock", spinSrc, Options{LivelockWindow: 200}, ErrLivelock, 8009, 201,
			"-: runtime error in T1: livelock suspected: no thread made progress for 200 consecutive slices; threads: [T0 joining steps=9 at Main.main b0 pc6 join] [T1 runnable steps=8000 at Spinner.run b2 pc2 jump] "},
		{"livelock-seed7", spinSrc, Options{LivelockWindow: 50, Seed: 7}, ErrLivelock, 2013, 51,
			"-: runtime error in T1: livelock suspected: no thread made progress for 50 consecutive slices; threads: [T0 joining steps=9 at Main.main b0 pc6 join] [T1 runnable steps=2004 at Spinner.run b1 pc3 bin] "},
		{"livelock-nested", nestedSpinSrc, Options{LivelockWindow: 30}, ErrLivelock, 1213, 32,
			"-: runtime error in T0: livelock suspected: no thread made progress for 30 consecutive slices; threads: [T0 runnable steps=1209 at Main.idle b0 pc0 call] [T1 finished steps=4 at -] "},
		{"budget", spinSrc, Options{MaxSteps: 10_000}, ErrStepBudget, 10_000, 250,
			"-: runtime error in T1: step budget exhausted after 10000 instructions (possible livelock); threads: [T0 joining steps=9 at Main.main b0 pc6 join] [T1 runnable steps=9991 at Spinner.run b2 pc1 move] "},
		{"budget-seed7", spinSrc, Options{MaxSteps: 12_345, Seed: 7}, ErrStepBudget, 12_345, 309,
			"-: runtime error in T1: step budget exhausted after 12345 instructions (possible livelock); threads: [T0 joining steps=9 at Main.main b0 pc6 join] [T1 runnable steps=12336 at Spinner.run b2 pc2 jump] "},
		{"budget-first-step", abbaSrc, Options{MaxSteps: 1}, ErrStepBudget, 1, 0,
			"-: runtime error in T0: step budget exhausted after 1 instructions (possible livelock); threads: [T0 runnable steps=1 at M.main b0 pc1 move] "},
		{"budget-before-return", nestedSpinSrc, Options{MaxSteps: 5003, Seed: 7}, ErrStepBudget, 5003, 127,
			"-: runtime error in T0: step budget exhausted after 5003 instructions (possible livelock); threads: [T0 runnable steps=4999 at Main.poll b0 pc0 getfield] [T1 finished steps=4 at -] "},
		{"budget-at-return", nestedSpinSrc, Options{MaxSteps: 5004, Seed: 7}, ErrStepBudget, 5004, 127,
			"-: runtime error in T0: step budget exhausted after 5004 instructions (possible livelock); threads: [T0 runnable steps=5000 at Main.poll b0 pc1 return] [T1 finished steps=4 at -] "},
		{"budget-after-return", nestedSpinSrc, Options{MaxSteps: 5005, Seed: 7}, ErrStepBudget, 5005, 127,
			"-: runtime error in T0: step budget exhausted after 5005 instructions (possible livelock); threads: [T0 runnable steps=5001 at Main.idle b0 pc1 const] [T1 finished steps=4 at -] "},
		{"budget-not-reached", abbaSrc, Options{MaxSteps: 777, Seed: 7}, ErrDeadlock, 98, 9,
			"-: runtime error in T0: deadlock: thread is blocked and no thread can run; threads: [T0 joining steps=19 at M.main b0 pc12 join] [T1 blocked steps=12 at W.run b2 pc3 monenter] [T2 blocked steps=67 at W.run b2 pc3 monenter] "},
		{"fault", faultSrc, Options{}, ErrFault, 24, 0,
			"t.mj:4:80: runtime error in T0: null pointer dereference (read of Node.next)"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, res, err := tryRun(t, c.src, c.opts)
			var re *RuntimeError
			if !errors.As(err, &re) {
				t.Fatalf("want RuntimeError, got %v", err)
			}
			if re.Kind != c.kind {
				t.Errorf("kind = %s, want %s", re.Kind, c.kind)
			}
			if res.Steps != c.steps || res.ContextSwaps != c.swaps {
				t.Errorf("steps=%d swaps=%d, want steps=%d swaps=%d", res.Steps, res.ContextSwaps, c.steps, c.swaps)
			}
			if got := re.Error(); got != c.err {
				t.Errorf("error text changed:\n got %q\nwant %q", got, c.err)
			}
		})
	}
}
