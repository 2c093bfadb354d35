package main

import (
	"os/exec"
	"strings"
	"testing"
)

// exitCode extracts the subprocess exit code from exec's error.
func exitCode(t *testing.T, err error) int {
	t.Helper()
	if err == nil {
		return 0
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode()
	}
	t.Fatalf("not an exit error: %v", err)
	return -1
}

// TestFlagValidation: every usage error must exit 3 (distinct from
// drain outcomes 0/2 and forced exit 4) with a diagnostic on stderr.
func TestFlagValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := buildDaemon(t)

	cases := []struct {
		name string
		args []string
		want string // stderr fragment
	}{
		{"unknown flag", []string{"-definitely-not-a-flag"}, "flag provided but not defined"},
		{"bad inject spec", []string{"-inject", "session-panic:job=banana"}, "-inject"},
		{"unknown fault kind", []string{"-inject", "meteor-strike:shard=1"}, "-inject"},
		{"detector worker fault", []string{"-inject", "panic:shard=1,event=5"}, "-inject"},
		{"positional arg", []string{"prog.mj"}, "unexpected argument"},
		{"bad listen address", []string{"-listen", "127.0.0.1:notaport"}, "listen"},
		{"bad duration", []string{"-job-timeout", "fast"}, "invalid value"},
		{"bad max-trace-bytes", []string{"-max-trace-bytes", "lots"}, "invalid value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(bin, tc.args...).CombinedOutput()
			if code := exitCode(t, err); code != 3 {
				t.Fatalf("exit = %d, want 3\n%s", code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Errorf("stderr missing %q:\n%s", tc.want, out)
			}
		})
	}
}
