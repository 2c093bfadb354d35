package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// run executes the built CLI and returns combined output + exit code.
func run(t *testing.T, bin string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("racedet %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out), ee.ExitCode()
}

// stripStaticHints drops the "may race with code at ..." lines, which
// come from the compile-time static analysis and are deliberately not
// part of the recorded event trace.
func stripStaticHints(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "may race with code at") {
			continue
		}
		keep = append(keep, line)
	}
	return strings.Join(keep, "\n")
}

// TestCLITraceRoundTrip is the record-once/analyze-many contract at
// the CLI level: -record prog.mjtrace captures the run, and
// -replay-trace reproduces its race reports byte for byte (modulo
// static hints), with sequential and parallel decode, plus an -ablate
// sweep, all without re-running the program.
func TestCLITraceRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	prog := writeProg(t, racyProg)
	tracePath := filepath.Join(t.TempDir(), "run.mjtrace")

	liveOut, liveCode := run(t, bin, "-q", "-record", tracePath, prog)
	if liveCode != exitRaces {
		t.Fatalf("live run exit = %d, want %d\n%s", liveCode, exitRaces, liveOut)
	}
	if st, err := os.Stat(tracePath); err != nil || st.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}
	want := stripStaticHints(liveOut)

	for _, extra := range [][]string{
		nil,
		{"-replay-workers", "2"},
	} {
		args := append([]string{"-replay-trace", tracePath}, extra...)
		got, code := run(t, bin, args...)
		if code != exitRaces {
			t.Fatalf("%v: exit = %d, want %d\n%s", extra, code, exitRaces, got)
		}
		if got != want {
			t.Errorf("%v: replay output differs from live:\n--- live\n%s\n--- replay\n%s", extra, want, got)
		}
	}

	// Ablation sweep: one process, several configurations.
	got, code := run(t, bin, "-replay-trace", tracePath, "-ablate", "Full,NoCache,NoPseudoLocks")
	if code != exitRaces {
		t.Fatalf("-ablate exit = %d, want %d\n%s", code, exitRaces, got)
	}
	for _, marker := range []string{"== Full ==", "== NoCache ==", "== NoPseudoLocks =="} {
		if !strings.Contains(got, marker) {
			t.Errorf("-ablate output missing %q:\n%s", marker, got)
		}
	}
	if strings.Count(got, "datarace on Data.f") != 3 {
		t.Errorf("-ablate should report the race in all three configs:\n%s", got)
	}

	// Unknown ablation name: usage error.
	got, code = run(t, bin, "-replay-trace", tracePath, "-ablate", "NoSuchConfig")
	if code != exitInternal || !strings.Contains(got, "unknown ablation") {
		t.Errorf("bad ablation: exit = %d, out:\n%s", code, got)
	}
}

// immutProg publishes Cfg.k before the workers start and then only
// reads it, while the workers write Data.f: one observed-immutable and
// one mutable shared field.
const immutProg = `
class Cfg { int k; }
class Data { int f; }
class Worker extends Thread {
    Data d; Cfg c;
    Worker(Data d0, Cfg c0) { d = d0; c = c0; }
    void run() { d.f = d.f + c.k; }
}
class Main {
    static void main() {
        Cfg g = new Cfg();
        g.k = 2;
        Data x = new Data();
        Worker a = new Worker(x, g);
        Worker b = new Worker(x, g);
        a.start(); b.start(); a.join(); b.join();
        print(x.f);
    }
}`

// TestCLIReplayExtraAnalyses: -replay-trace with -deadlock and
// -immutability prints the same POTENTIAL DEADLOCK and
// OBSERVED-IMMUTABLE/MUTABLE-SHARED lines as the live run at the
// recording seed.
func TestCLIReplayExtraAnalyses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	analysisLines := func(out string) []string {
		var keep []string
		for _, line := range strings.Split(out, "\n") {
			for _, p := range []string{"POTENTIAL DEADLOCK", "OBSERVED-IMMUTABLE", "MUTABLE-SHARED"} {
				if strings.HasPrefix(line, p) {
					keep = append(keep, line)
				}
			}
		}
		return keep
	}
	for name, src := range map[string]string{"immut": immutProg, "lockcycle": lockCycleProg} {
		prog := writeProg(t, src)
		tracePath := filepath.Join(t.TempDir(), name+".mjtrace")
		liveOut, liveCode := run(t, bin, "-q", "-seed", "3", "-deadlock", "-immutability", "-record", tracePath, prog)
		if liveCode != exitClean {
			t.Fatalf("%s: live run exit = %d\n%s", name, liveCode, liveOut)
		}
		want := analysisLines(liveOut)
		if len(want) < 2 {
			t.Fatalf("%s: live run printed too few analysis lines:\n%s", name, liveOut)
		}
		got, code := run(t, bin, "-replay-trace", tracePath, "-deadlock", "-immutability")
		if code != exitClean {
			t.Fatalf("%s: replay exit = %d\n%s", name, code, got)
		}
		if g := analysisLines(got); strings.Join(g, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: replay analysis lines differ from live:\n--- live\n%s\n--- replay\n%s",
				name, strings.Join(want, "\n"), strings.Join(g, "\n"))
		}
	}
}

// TestCLIFullRace: -record writes a trace whatever the file's
// extension, and -replay-trace -fullrace reconstructs the racing pairs
// from it — printed pair by pair, exit 1 when any exist. A text event
// log is not a trace and fails like any other corrupt input.
func TestCLIFullRace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	prog := "../../internal/corpus/testdata/double_checked_locking.mj"
	tracePath := filepath.Join(dir, "run.log")

	if out, code := run(t, bin, "-q", "-record", tracePath, prog); code != exitRaces {
		t.Fatalf("live run exit = %d, want %d\n%s", code, exitRaces, out)
	}
	if out, code := run(t, bin, "-replay-trace", tracePath); code != exitRaces {
		t.Fatalf("-replay-trace of a -record run.log: exit = %d, want %d\n%s", code, exitRaces, out)
	}
	out, code := run(t, bin, "-replay-trace", tracePath, "-fullrace")
	if code != exitRaces {
		t.Fatalf("-fullrace exit = %d, want %d\n%s", code, exitRaces, out)
	}
	if !strings.Contains(out, "\n  <races with>\n") || !strings.Contains(out, "racing pair(s) reconstructed") {
		t.Errorf("-fullrace printed no pairs:\n%s", out)
	}

	textLog := filepath.Join(dir, "text.log")
	if err := os.WriteFile(textLog, []byte("S 0 -1\nS 1 0\n"+strings.Repeat("A 1 10 0 W Data.f prog.mj:3:5\n", 4)), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := run(t, bin, "-replay-trace", textLog, "-fullrace"); code != exitInternal || !strings.Contains(out, "not a .mjtrace file") {
		t.Errorf("-fullrace on a text log: exit = %d, want %d\n%s", code, exitInternal, out)
	}
}

// TestCLITraceCorrupt pins the hardening contract end to end: a
// missing, truncated, or not-a-trace file fed to -replay-trace is a
// clean structured failure with exit 3 — never a panic, never a bogus
// verdict.
func TestCLITraceCorrupt(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	prog := writeProg(t, racyProg)
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "run.mjtrace")
	if out, code := run(t, bin, "-q", "-record", tracePath, prog); code != exitRaces {
		t.Fatalf("recording run exit = %d\n%s", code, out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name  string
		bytes []byte
		want  string
	}{
		{"truncated", data[:len(data)/2], "truncated or unfinalized"},
		{"bad magic", []byte(strings.Repeat("this is not a trace file. ", 4)), "bad magic"},
		{"empty", nil, "too small"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, tc.name)
			if err := os.WriteFile(p, tc.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			out, code := run(t, bin, "-replay-trace", p)
			if code != exitInternal {
				t.Fatalf("exit = %d, want %d\n%s", code, exitInternal, out)
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, out)
			}
			if strings.Contains(out, "panic") {
				t.Errorf("corrupt trace caused a panic:\n%s", out)
			}
		})
	}

	if out, code := run(t, bin, "-replay-trace", filepath.Join(dir, "missing.mjtrace")); code != exitInternal {
		t.Errorf("missing file: exit = %d, want %d\n%s", code, exitInternal, out)
	}
}
