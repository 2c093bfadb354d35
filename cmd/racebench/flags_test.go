package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchFlagValidation pins racebench's usage-error contract,
// mirroring racedet's: explicit nonsense values exit 3 with a message
// on stderr, before any (expensive) benchmarking starts.
func TestBenchFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "racebench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cases := []struct {
		name string
		args []string
		want string
	}{
		{"runs zero", []string{"-runs", "0"}, "-runs must be >= 1"},
		{"benchreps zero", []string{"-benchreps", "0"}, "-benchreps must be >= 1"},
		{"unknown flag", []string{"-no-such-flag"}, "flag"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			ee, ok := err.(*exec.ExitError)
			if !ok {
				t.Fatalf("expected a usage failure, got err=%v\n%s", err, out)
			}
			if ee.ExitCode() != 3 {
				t.Fatalf("exit = %d, want 3 (usage error)\n%s", ee.ExitCode(), out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, out)
			}
		})
	}
}
