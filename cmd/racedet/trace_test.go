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
