package main

import (
	"reflect"
	"testing"

	"racedet/internal/core"
	"racedet/internal/static/factcache"
)

// The traced compile must be the compile the untraced run measures:
// same counters, same traced instructions in every function, same
// discipline report.
func TestReplicaMatchesCompile(t *testing.T) {
	progs, err := loadPrograms()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		pipe, err := core.Compile(p.file, p.source, core.Full())
		if err != nil {
			t.Fatal(err)
		}
		rep, err := compileReplica(p.file, p.source, core.Full(), runBare)
		if err != nil {
			t.Fatal(err)
		}
		want, got := summarizePipeline(pipe), rep.summary()
		if got.instr != want.instr {
			t.Errorf("%s: InstrStats %+v, core.Compile %+v", p.name, got.instr, want.instr)
		}
		if got.static != want.static {
			t.Errorf("%s: StaticStats %+v, core.Compile %+v", p.name, got.static, want.static)
		}
		if got.discipline != want.discipline {
			t.Errorf("%s: discipline report differs from core.Compile's", p.name)
		}
		if len(rep.prog.Funcs) != len(pipe.Prog.Funcs) {
			t.Fatalf("%s: %d functions, core.Compile %d", p.name, len(rep.prog.Funcs), len(pipe.Prog.Funcs))
		}
		for i, fn := range pipe.Prog.Funcs {
			rfn := rep.prog.Funcs[i]
			if rfn.Name != fn.Name {
				t.Fatalf("%s: function %d is %s, core.Compile %s", p.name, i, rfn.Name, fn.Name)
			}
			if w, g := factcache.TracedSet(fn), factcache.TracedSet(rfn); !reflect.DeepEqual(g, w) {
				t.Errorf("%s.%s: traced instructions %v, core.Compile %v", p.name, fn.Name, g, w)
			}
		}
	}
}

// The phase spans of a traced compile cover every phase exactly where
// core.Compile runs it.
func TestReplicaRunsEveryPhase(t *testing.T) {
	progs, err := loadPrograms()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	if _, err := compileReplica(progs[0].file, progs[0].source, core.Full(), func(name string, fn func()) {
		seen[name]++
		fn()
	}); err != nil {
		t.Fatal(err)
	}
	for _, ph := range compilePhases {
		if seen[ph] == 0 {
			t.Errorf("phase %s never ran", ph)
		}
	}
	if len(seen) != len(compilePhases) {
		t.Errorf("phases run: %v, want exactly %v", seen, compilePhases)
	}
}
