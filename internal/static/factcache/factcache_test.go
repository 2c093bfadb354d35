package factcache

import (
	"os"
	"path/filepath"
	"testing"

	"racedet/internal/instrument"
	"racedet/internal/ir"
	"racedet/internal/lang/parser"
	"racedet/internal/lang/sem"
	"racedet/internal/lower"
)

func build(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := parser.Parse("t.mj", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return lower.Lower(sp).Prog
}

const roundtripSrc = `
class A { int f; int g; }
class B {
    void m(A s) {
        s.f = 1;
        int x = s.f;
        s.g = x;
        int y = s.g;
    }
}
class M { static void main() { B b = new B(); A a = new A(); b.m(a); } }`

func TestFingerprintDistinguishesConfigs(t *testing.T) {
	base := Fingerprint(true, true, true, true, true)
	if base != Fingerprint(true, true, true, true, true) {
		t.Error("fingerprint not stable")
	}
	seen := map[string]bool{base: true}
	for i := 0; i < 5; i++ {
		knobs := [5]bool{true, true, true, true, true}
		knobs[i] = false
		fp := Fingerprint(knobs[0], knobs[1], knobs[2], knobs[3], knobs[4])
		if seen[fp] {
			t.Errorf("flipping knob %d did not change the fingerprint", i)
		}
		seen[fp] = true
	}
}

// TracedSet on an instrumented+eliminated function replays exactly on a
// fresh lowering of the same source.
func TestTracedSetReplayRoundtrip(t *testing.T) {
	prog := build(t, roundtripSrc)
	m := prog.FuncByName("B.m")
	instrument.InsertTraces(m, nil)
	if n, _ := instrument.EliminateProgramWith(prog, nil, nil); n == 0 {
		t.Fatal("expected eliminations in B.m")
	}
	traced := TracedSet(m)
	if len(traced) == 0 {
		t.Fatal("no surviving traces")
	}

	fresh := build(t, roundtripSrc).FuncByName("B.m")
	replay, ok := ReplayFilter(fresh, traced)
	if !ok {
		t.Fatal("replay filter did not resolve")
	}
	instrument.InsertTraces(fresh, replay)
	if got, want := fresh.String(), m.String(); got != want {
		t.Errorf("replayed function differs:\n%s\nvs\n%s", got, want)
	}
}

func TestReplayFilterRejectsStaleKeys(t *testing.T) {
	fn := build(t, roundtripSrc).FuncByName("B.m")
	if _, ok := ReplayFilter(fn, []InstrKey{{Block: 0, Index: 9999}}); ok {
		t.Error("out-of-range key must be stale")
	}
	if _, ok := ReplayFilter(fn, []InstrKey{{Block: 0, Index: 0}}); ok {
		t.Error("key addressing a non-access instruction must be stale")
	}
}

func TestDirty(t *testing.T) {
	f := func(name string) *ir.Func { return &ir.Func{Name: name} }
	a, b, c, d := f("a"), f("b"), f("c"), f("d")
	fns := []*ir.Func{a, b, c, d}
	sem := map[*ir.Func]string{a: "1", b: "2", c: "3", d: "4"}
	prior := &Entry{StableDigest: "s", Fns: []FnEntry{
		{Name: "a", Digest: "1"}, {Name: "b", Digest: "2"},
		{Name: "c", Digest: "changed"}, {Name: "d", Digest: "4"},
	}}
	// a—b—c one component, d isolated; c's digest differs.
	edges := map[*ir.Func][]*ir.Func{a: {b}, b: {a, c}, c: {b}}

	dirty := Dirty(prior, "s", fns, sem, edges)
	for fn, want := range map[*ir.Func]bool{a: true, b: true, c: true, d: false} {
		if dirty[fn] != want {
			t.Errorf("dirty[%s] = %v, want %v", fn.Name, dirty[fn], want)
		}
	}

	// Without edges only the changed function is dirty.
	dirty = Dirty(prior, "s", fns, sem, nil)
	for fn, want := range map[*ir.Func]bool{a: false, b: false, c: true, d: false} {
		if dirty[fn] != want {
			t.Errorf("no-edges dirty[%s] = %v, want %v", fn.Name, dirty[fn], want)
		}
	}

	// Stable-field drift or a missing prior dirties everything.
	for _, dirty := range []map[*ir.Func]bool{
		Dirty(prior, "other", fns, sem, edges),
		Dirty(nil, "s", fns, sem, edges),
	} {
		for _, fn := range fns {
			if !dirty[fn] {
				t.Errorf("dirty[%s] = false, want all dirty", fn.Name)
			}
		}
	}
}

func TestStoreLookupLatest(t *testing.T) {
	prog := build(t, roundtripSrc)
	dir := t.TempDir()
	c := Open(dir, Fingerprint(true, true, true, true, true))
	pd := c.ProgramDigest(prog)

	if _, ok := c.Lookup(pd); ok {
		t.Fatal("lookup on empty cache hit")
	}
	c.Store(pd, &Entry{StableDigest: "s", Fns: []FnEntry{{Name: "B.m", Digest: "d"}}})

	e, ok := c.Lookup(pd)
	if !ok || !c.Stats.ProgramHit {
		t.Fatal("lookup after store missed")
	}
	if e.StableDigest != "s" || len(e.Fns) != 1 {
		t.Errorf("entry roundtrip mangled: %+v", e)
	}
	if _, ok := c.Latest(); !ok {
		t.Error("latest pointer missing")
	}

	// A different configuration must not see the entry.
	c2 := Open(dir, Fingerprint(true, false, true, true, true))
	if _, ok := c2.Lookup(c2.ProgramDigest(prog)); ok {
		t.Error("lookup across configurations hit")
	}
	if _, ok := c2.Latest(); ok {
		t.Error("latest across configurations hit")
	}

	// Corrupt entries are misses, not errors.
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	for _, f := range files {
		if err := os.WriteFile(f, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c3 := Open(dir, Fingerprint(true, true, true, true, true))
	if _, ok := c3.Lookup(pd); ok {
		t.Error("corrupt entry treated as hit")
	}
}

func TestStoreFailureDegradesToCacheOff(t *testing.T) {
	// Point the cache at a path that is a regular file: MkdirAll fails
	// for root and non-root alike, exercising the degradation path.
	blocked := filepath.Join(t.TempDir(), "cache")
	if err := os.WriteFile(blocked, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := Open(blocked, Fingerprint(true, true, true, true, true))

	c.Store("pd", &Entry{StableDigest: "s"})
	if c.Stats.WriteErrors != 1 {
		t.Fatalf("WriteErrors = %d after failed store, want 1", c.Stats.WriteErrors)
	}

	// Degraded means cache-off, not repeated failures: later stores are
	// silent no-ops and the error stays counted exactly once.
	c.Store("pd2", &Entry{StableDigest: "s"})
	if c.Stats.WriteErrors != 1 {
		t.Errorf("WriteErrors = %d after degraded store, want still 1", c.Stats.WriteErrors)
	}
	if _, ok := c.Lookup("pd"); ok {
		t.Error("lookup hit on a cache that never persisted anything")
	}
}

func TestStoreLeavesNoTempFiles(t *testing.T) {
	prog := build(t, roundtripSrc)
	dir := t.TempDir()
	c := Open(dir, Fingerprint(true, true, true, true, true))
	c.Store(c.ProgramDigest(prog), &Entry{StableDigest: "s"})
	if c.Stats.WriteErrors != 0 {
		t.Fatalf("clean store counted WriteErrors = %d", c.Stats.WriteErrors)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Errorf("temp file %s left behind after a clean store", e.Name())
		}
	}
}
