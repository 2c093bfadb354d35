package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateCompileGolden = flag.Bool("update", false, "rewrite testdata/compile.golden")

// compileGoldenPath pins every output of a cold Full compile of the
// five paper programs and the corpus programs: the instrumented IR,
// the lock-discipline report, the static and instrumentation stats
// (wall time zeroed) and the weaker-than elimination report. A change
// that only makes the compile cheaper must leave it byte-identical.
const compileGoldenPath = "testdata/compile.golden"

// compileGoldenSources lists the pinned programs in a fixed order:
// the paper benchmarks, then the corpus, each sorted by file name.
func compileGoldenSources(t testing.TB) (names, srcs []string) {
	t.Helper()
	for _, dir := range []string{"../bench/testdata", "../corpus/testdata"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.mj"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no programs under %s: %v", dir, err)
		}
		sort.Strings(files)
		for _, f := range files {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, filepath.Base(f))
			srcs = append(srcs, string(data))
		}
	}
	return names, srcs
}

// renderCompile renders one program's compile outputs.
func renderCompile(t *testing.T, name, src string) string {
	t.Helper()
	p, err := Compile(name, src, Full())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s\n--- ir\n", name)
	for _, fn := range p.Prog.Funcs {
		b.WriteString(fn.String())
		b.WriteString("\n")
	}
	b.WriteString("--- discipline\n")
	b.WriteString(p.DisciplineReport())
	st := p.StaticStats
	st.AnalysisNs = 0
	fmt.Fprintf(&b, "--- stats\nstatic %+v\ninstr %+v\n--- eliminations\n", st, p.InstrStats)
	for _, e := range p.ElimReport.Elims {
		fmt.Fprintf(&b, "%s %s %v %s %s by %s %s\n", e.Fn, e.Name, e.Access, e.Pos, e.Kind, e.ByFn, e.ByPos)
	}
	return b.String()
}

// TestCompileGolden compares the rendered compile outputs against the
// checked-in file. Regenerate with:
//
//	go test ./internal/core -run TestCompileGolden -update
func TestCompileGolden(t *testing.T) {
	names, srcs := compileGoldenSources(t)
	var b strings.Builder
	for i := range names {
		b.WriteString(renderCompile(t, names[i], srcs[i]))
	}
	got := b.String()
	if *updateCompileGolden {
		if err := os.WriteFile(compileGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(compileGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("compile output changed at line %d (regenerate with -update if intended):\n--- golden ---\n%s\n--- got ---\n%s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("compile output changed: %d lines, golden has %d (regenerate with -update if intended)", len(gl), len(wl))
	}
}
