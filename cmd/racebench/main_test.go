package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestRacebenchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "racebench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-table", "1").CombinedOutput()
	if err != nil {
		t.Fatalf("-table 1: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Table 1") || !strings.Contains(string(out), "hedc") {
		t.Errorf("table 1 output wrong:\n%s", out)
	}
	out, err = exec.Command(bin, "-table", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("-table 3: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "NoOwnership") {
		t.Errorf("table 3 output wrong:\n%s", out)
	}
	err = exec.Command(bin, "-table", "9").Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Errorf("-table 9: err = %v, want exit 3 (usage error)", err)
	}
}
