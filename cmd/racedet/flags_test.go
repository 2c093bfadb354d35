package main

import (
	"os/exec"
	"strings"
	"testing"
)

// TestCLIFlagValidation pins the usage-error contract: explicit
// nonsense values for the back-end flags are rejected up front with a
// clear message on stderr and exit code 3, before any compilation or
// execution happens.
func TestCLIFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	prog := writeProg(t, racyProg)

	cases := []struct {
		name string
		args []string
		want string // substring required on stderr
	}{
		{"batch zero", []string{"-batch", "0", prog}, "-batch must be >= 1"},
		{"batch negative", []string{"-batch", "-8", prog}, "-batch must be >= 1"},
		{"unknown flag", []string{"-no-such-flag", prog}, "flag"},
		{"shards flag removed", []string{"-shards", "2", prog}, "flag provided but not defined"},
		{"record and replay-trace", []string{"-record", "t.mjtrace", "-replay-trace", "t.mjtrace"}, "-record and -replay-trace are mutually exclusive"},
		{"replay and replay-trace", []string{"-replay", "t.log", "-replay-trace", "t.mjtrace"}, "-replay and -replay-trace are mutually exclusive"},
		{"fuzz and replay-trace", []string{"-fuzz", "4", "-replay-trace", "t.mjtrace"}, "-fuzz explores live schedules"},
		{"fullrace and replay-trace", []string{"-fullrace", "-replay-trace", "t.mjtrace"}, "-fullrace works on text event logs"},
		{"ablate without replay-trace", []string{"-ablate", "Full,NoCache", prog}, "-ablate requires -replay-trace"},
		{"replay-workers zero", []string{"-replay-workers", "0", "-replay-trace", "t.mjtrace"}, "-replay-workers must be >= 1"},
		{"replay-workers negative", []string{"-replay-workers", "-2", "-replay-trace", "t.mjtrace"}, "-replay-workers must be >= 1"},
		{"sample-k zero", []string{"-sample-k", "0", prog}, "-sample-k must be >= 1"},
		{"sample-k negative", []string{"-sample-k", "-4", prog}, "-sample-k must be >= 1"},
		{"sample-budget zero", []string{"-sample-budget", "0", prog}, "-sample-budget must be in (0, 1]"},
		{"sample-budget negative", []string{"-sample-budget", "-0.5", prog}, "-sample-budget must be in (0, 1]"},
		{"sample-budget over one", []string{"-sample-budget", "1.5", prog}, "-sample-budget must be in (0, 1]"},
		{"sampling without ownership", []string{"-sample-k", "4", "-noownership", prog}, "require the ownership filter"},
		{"sampling and ablate", []string{"-sample-k", "4", "-replay-trace", "t.mjtrace", "-ablate", "Full"}, "cannot be combined with -sample-k"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected a usage failure, got err=%v\n%s", err, out)
			}
			if ee.ExitCode() != exitInternal {
				t.Fatalf("exit = %d, want %d (usage error)\n%s", ee.ExitCode(), exitInternal, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, out)
			}
		})
	}

	// Defaults stay legal: not passing the flags at all must not trip
	// the explicit-value validation.
	if out, err := exec.Command(bin, "-q", prog).CombinedOutput(); err != nil {
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != exitRaces {
			t.Fatalf("default flags: exit = %v, want %d\n%s", err, exitRaces, out)
		}
	}
}

// TestCLISamplingSmoke runs adaptive throttling end to end: the racy
// program is still reported with sampling on (unbatched and batched),
// and -stats surfaces the sampling counters.
func TestCLISamplingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildCLI(t)
	prog := writeProg(t, racyProg)

	for _, args := range [][]string{
		{"-q", "-stats", "-sample-k", "4", prog},
		{"-q", "-stats", "-sample-budget", "0.25", prog},
		{"-q", "-stats", "-sample-k", "4", "-batch", "64", prog},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != exitRaces {
			t.Fatalf("%v: exit = %v, want %d\n%s", args, err, exitRaces, out)
		}
		text := string(out)
		if !strings.Contains(text, "datarace on Data.f") {
			t.Errorf("%v: sampled run lost the race report:\n%s", args, text)
		}
		if !strings.Contains(text, "sampling: shipped=") {
			t.Errorf("%v: -stats missing the sampling line:\n%s", args, text)
		}
	}
}
