package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildCLI compiles the racedet binary once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "racedet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

const racyProg = `
class Data { int f; }
class Worker extends Thread {
    Data d;
    Worker(Data d0) { d = d0; }
    void run() { d.f = d.f + 1; }
}
class Main {
    static void main() {
        Data x = new Data();
        x.f = 0;
        Worker a = new Worker(x);
        Worker b = new Worker(x);
        a.start(); b.start(); a.join(); b.join();
        print(x.f);
    }
}`

func writeProg(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.mj")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	prog := writeProg(t, racyProg)

	// Racy program: exit code 1, report on stdout.
	out, err := exec.Command(bin, "-q", "-stats", prog).CombinedOutput()
	if err == nil {
		t.Fatalf("racy program should exit non-zero\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("exit = %v, want 1\n%s", err, out)
	}
	text := string(out)
	if !strings.Contains(text, "datarace on Data.f") {
		t.Errorf("missing race report:\n%s", text)
	}
	if !strings.Contains(text, "stats:") || !strings.Contains(text, "static:") {
		t.Errorf("missing -stats output:\n%s", text)
	}

	// Baseline detector flag.
	out, _ = exec.Command(bin, "-q", "-detector", "eraser", prog).CombinedOutput()
	if !strings.Contains(string(out), "ERASER RACE") {
		t.Errorf("eraser flag broken:\n%s", out)
	}

	// Unknown detector: usage error.
	if err := exec.Command(bin, "-detector", "bogus", prog).Run(); err == nil {
		t.Error("unknown detector must fail")
	}

	// Quiet, race-free program: exit 0.
	quiet := writeProg(t, strings.Replace(racyProg,
		"void run() { d.f = d.f + 1; }",
		"void run() { synchronized (d) { d.f = d.f + 1; } }", 1))
	if out, err := exec.Command(bin, "-q", quiet).CombinedOutput(); err != nil {
		t.Fatalf("quiet program should exit 0: %v\n%s", err, out)
	}
}

// lockCycleProg takes two locks in opposite orders in two threads that
// never overlap: a potential deadlock that never happens.
const lockCycleProg = `
class Lock { int pad; }
class W extends Thread {
    Lock p; Lock q; int n;
    W(Lock p0, Lock q0) { p = p0; q = q0; }
    void run() {
        synchronized (p) { synchronized (q) { n = n + 1; } }
    }
}
class Main {
    static void main() {
        Lock a = new Lock();
        Lock b = new Lock();
        W w1 = new W(a, b);
        W w2 = new W(b, a);
        w1.start(); w1.join();
        w2.start(); w2.join();
        print(w1.n + w2.n);
    }
}`

func TestCLIDeadlockFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	prog := writeProg(t, lockCycleProg)
	out, _ := exec.Command(bin, "-q", "-deadlock", prog).CombinedOutput()
	if !strings.Contains(string(out), "POTENTIAL DEADLOCK") {
		t.Errorf("deadlock flag broken:\n%s", out)
	}
}
