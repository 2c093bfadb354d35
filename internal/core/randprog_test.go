package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"racedet/internal/rt/detector"
	"racedet/internal/rt/event"
	"racedet/internal/rt/postmortem"
	"racedet/internal/rt/trace"
)

// progGen emits random well-formed MJ programs: a few shared objects,
// a few locks, worker threads whose bodies mix locked and unlocked
// field accesses, loops, conditionals, and helper calls. The generator
// is seeded, so every failure is reproducible.
type progGen struct {
	rng     *rand.Rand
	sb      strings.Builder
	nShared int
	nLocks  int
	depth   int
}

func generateProgram(seed int64) string {
	g := &progGen{rng: rand.New(rand.NewSource(seed))}
	g.nShared = 2 + g.rng.Intn(2)
	g.nLocks = 1 + g.rng.Intn(2)
	g.emit()
	return g.sb.String()
}

func (g *progGen) pf(format string, args ...interface{}) {
	fmt.Fprintf(&g.sb, format, args...)
}

func (g *progGen) emit() {
	g.pf("class Shared { int f0; int f1; int f2; static int counter; }\n")
	g.pf("class Lock { int pad; }\n")
	g.pf("class Worker extends Thread {\n")
	for i := 0; i < g.nShared; i++ {
		g.pf("    Shared s%d;\n", i)
	}
	for i := 0; i < g.nLocks; i++ {
		g.pf("    Lock l%d;\n", i)
	}
	g.pf("    int[] buf;\n")
	g.pf("    int acc;\n")
	// Constructor wiring every shared object and lock.
	g.pf("    Worker(")
	var params []string
	for i := 0; i < g.nShared; i++ {
		params = append(params, fmt.Sprintf("Shared a%d", i))
	}
	for i := 0; i < g.nLocks; i++ {
		params = append(params, fmt.Sprintf("Lock b%d", i))
	}
	params = append(params, "int[] bb")
	g.pf("%s) {\n", strings.Join(params, ", "))
	for i := 0; i < g.nShared; i++ {
		g.pf("        s%d = a%d;\n", i, i)
	}
	for i := 0; i < g.nLocks; i++ {
		g.pf("        l%d = b%d;\n", i, i)
	}
	g.pf("        buf = bb;\n")
	g.pf("        acc = 0;\n    }\n")

	// A helper method with its own accesses (exercises call edges in
	// the static analyses and call barriers in the elimination).
	g.pf("    int probe(Shared s) {\n")
	g.pf("        return s.f%d + 1;\n", g.rng.Intn(3))
	g.pf("    }\n")

	g.pf("    void run() {\n")
	g.depth = 0
	n := 3 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		g.stmt(2)
	}
	g.pf("    }\n")
	g.pf("}\n")

	// Main: build the world, start 2-3 workers, join them.
	workers := 2 + g.rng.Intn(2)
	g.pf("class Main {\n    static void main() {\n")
	var args []string
	for i := 0; i < g.nShared; i++ {
		g.pf("        Shared s%d = new Shared();\n", i)
		g.pf("        s%d.f0 = %d;\n", i, g.rng.Intn(10))
		args = append(args, fmt.Sprintf("s%d", i))
	}
	for i := 0; i < g.nLocks; i++ {
		g.pf("        Lock l%d = new Lock();\n", i)
		args = append(args, fmt.Sprintf("l%d", i))
	}
	g.pf("        int[] shared = new int[8];\n")
	g.pf("        shared[0] = 1;\n")
	args = append(args, "shared")
	for w := 0; w < workers; w++ {
		g.pf("        Worker w%d = new Worker(%s);\n", w, strings.Join(args, ", "))
	}
	for w := 0; w < workers; w++ {
		g.pf("        w%d.start();\n", w)
	}
	for w := 0; w < workers; w++ {
		g.pf("        w%d.join();\n", w)
	}
	g.pf("        int total = 0;\n")
	for w := 0; w < workers; w++ {
		g.pf("        total = total + w%d.acc;\n", w)
	}
	g.pf("        print(total);\n    }\n}\n")
}

// stmt emits one random statement at the given remaining nesting depth.
func (g *progGen) stmt(depth int) {
	ind := strings.Repeat("    ", 2+g.depth)
	s := g.rng.Intn(10)
	sh := g.rng.Intn(g.nShared)
	fl := g.rng.Intn(3)
	switch {
	case s < 3 && depth > 0: // synchronized block
		g.pf("%ssynchronized (l%d) {\n", ind, g.rng.Intn(g.nLocks))
		g.depth++
		for i := 0; i < 1+g.rng.Intn(2); i++ {
			g.stmt(depth - 1)
		}
		g.depth--
		g.pf("%s}\n", ind)
	case s < 5 && depth > 0: // loop
		g.pf("%sfor (int i%d = 0; i%d < %d; i%d++) {\n", ind, g.depth, g.depth, 2+g.rng.Intn(4), g.depth)
		g.depth++
		for i := 0; i < 1+g.rng.Intn(2); i++ {
			g.stmt(depth - 1)
		}
		g.depth--
		g.pf("%s}\n", ind)
	case s < 6 && depth > 0: // conditional on shared state
		g.pf("%sif (s%d.f%d %% 2 == 0) {\n", ind, sh, fl)
		g.depth++
		g.stmt(depth - 1)
		g.depth--
		g.pf("%s}\n", ind)
	case s < 7: // shared field write
		g.pf("%ss%d.f%d = s%d.f%d + %d;\n", ind, sh, fl, sh, g.rng.Intn(3), 1+g.rng.Intn(5))
	case s < 8:
		switch g.rng.Intn(3) {
		case 0: // shared array traffic (one location per array)
			g.pf("%sbuf[%d] = buf[%d] + 1;\n", ind, g.rng.Intn(8), g.rng.Intn(8))
		case 1: // static field traffic
			g.pf("%sShared.counter = Shared.counter + 1;\n", ind)
		default:
			g.pf("%sacc = acc + buf[%d];\n", ind, g.rng.Intn(8))
		}
	case s < 9: // shared read into acc
		g.pf("%sacc = acc + s%d.f%d;\n", ind, sh, fl)
	default: // helper call
		g.pf("%sacc = acc + probe(s%d);\n", ind, sh)
	}
}

// TestRandomProgramsConfigAgreement is the §7.2 soundness net at
// scale. Trace pseudo-instructions do not consume scheduler quantum,
// so every configuration observes the same program schedule and the
// reports are comparable. Two tiers of guarantee:
//
//   - NoStatic, NoCache, and the packed trie must match Full exactly
//     (they are pure representation/filter changes);
//   - NoDominators and NoPeeling must report a SUPERSET of Full: the
//     compile-time weaker-than elimination can, in combination with
//     the ownership model, suppress a race (§7.2's acknowledged
//     unsoundness — internal/corpus/testdata/unsafe_publish.mj is a
//     concrete instance), but it can never add one.
func TestRandomProgramsConfigAgreement(t *testing.T) {
	run := func(seed int64, src string, name string, cfg Config) map[string]bool {
		res, err := RunSource("rand.mj", src, cfg)
		if err != nil {
			t.Fatalf("seed %d %s: %v\n--- program ---\n%s", seed, name, err, src)
		}
		if res.Err != nil {
			t.Fatalf("seed %d %s: runtime: %v\n--- program ---\n%s", seed, name, res.Err, src)
		}
		out := map[string]bool{}
		for _, o := range res.RacyObjects {
			out[o.String()] = true
		}
		return out
	}
	equal := func(a, b map[string]bool) bool {
		if len(a) != len(b) {
			return false
		}
		for k := range a {
			if !b[k] {
				return false
			}
		}
		return true
	}
	superset := func(sup, sub map[string]bool) bool {
		for k := range sub {
			if !sup[k] {
				return false
			}
		}
		return true
	}
	for seed := int64(0); seed < 30; seed++ {
		src := generateProgram(seed)
		full := run(seed, src, "Full", Full())
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"NoStatic", Full().NoStatic()},
			{"NoCache", Full().NoCache()},
		} {
			if got := run(seed, src, c.name, c.cfg); !equal(got, full) {
				t.Fatalf("seed %d: %s reports %v, Full reported %v\n--- program ---\n%s",
					seed, c.name, got, full, src)
			}
		}
		for _, c := range []struct {
			name string
			cfg  Config
		}{
			{"NoDominators", Full().NoDominators()},
			{"NoPeeling", Full().NoPeeling()},
		} {
			if got := run(seed, src, c.name, c.cfg); !superset(got, full) {
				t.Fatalf("seed %d: %s (%v) dropped races that Full reported (%v)\n--- program ---\n%s",
					seed, c.name, got, full, src)
			}
		}
	}
}

// TestRandomProgramsDeterminism: identical config + seed reproduce the
// execution exactly.
func TestRandomProgramsDeterminism(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		src := generateProgram(seed)
		r1, err := RunSource("rand.mj", src, Full().WithSeed(seed))
		if err != nil || r1.Err != nil {
			t.Fatalf("seed %d: %v/%v", seed, err, r1.Err)
		}
		r2, err := RunSource("rand.mj", src, Full().WithSeed(seed))
		if err != nil || r2.Err != nil {
			t.Fatalf("seed %d: %v/%v", seed, err, r2.Err)
		}
		if r1.Output != r2.Output || r1.Interp.Steps != r2.Interp.Steps {
			t.Fatalf("seed %d: nondeterministic execution", seed)
		}
	}
}

// TestRandomProgramsSoundVsFullRace cross-validates the on-the-fly
// detector against ground truth: for every random program, under every
// filter configuration and under a replay of the Full recording, each
// location the detector reports must have at least one racing pair in
// the FullRace set reconstructed from that run's recorded trace under
// the raw §2.4 definition. (The converse need not hold: the ownership
// model deliberately absorbs initialization hand-offs, and sampling
// may drop a race.)
func TestRandomProgramsSoundVsFullRace(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"full", Full()},
		{"sampled", func(c Config) Config { c.SampleK, c.SampleBudget = 2, 0.25; return c }(Full())},
		{"noownership", Full().NoOwnership()},
		{"nocache", Full().NoCache()},
	}
	check := func(seed int64, name string, reports []detector.Report, tr *trace.Reader, src string) {
		t.Helper()
		pairs, err := postmortem.FullRace(tr, 0)
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, name, err)
		}
		truth := map[event.Loc]bool{}
		for _, p := range pairs {
			truth[p.First.Loc] = true
		}
		for _, r := range reports {
			if !truth[r.Access.Loc] {
				t.Fatalf("seed %d %s: detector reported %v but FullRace has no pair there\n--- program ---\n%s",
					seed, name, r.Access.Loc, src)
			}
		}
	}
	for seed := int64(0); seed < 50; seed++ {
		src := generateProgram(seed)
		p, err := Compile("rand.mj", src, Full())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, c := range configs {
			res, tr := runRecorded(t, p, c.cfg)
			if res.Err != nil {
				t.Fatalf("seed %d %s: %v", seed, c.name, res.Err)
			}
			check(seed, c.name, res.Reports, tr, src)
			if c.name == "full" {
				replay, err := ReplayTrace(tr, Full(), 1)
				if err != nil {
					t.Fatalf("seed %d replay: %v", seed, err)
				}
				check(seed, "replay", replay.Reports, tr, src)
			}
		}
	}
}

// TestRandomProgramsBaselinesSuperset: Eraser and object-granularity
// detection report supersets of the trie detector's racy objects on
// every random program (the paper's §9 claim).
func TestRandomProgramsBaselinesSuperset(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		src := generateProgram(seed)
		full, err := RunSource("rand.mj", src, Full())
		if err != nil || full.Err != nil {
			t.Fatalf("seed %d: %v/%v", seed, err, full.Err)
		}
		ours := map[string]bool{}
		for _, o := range full.RacyObjects {
			ours[o.String()] = true
		}
		for _, det := range []DetectorKind{DetEraser, DetObjectRace} {
			res, err := RunSource("rand.mj", src, Full().WithDetector(det))
			if err != nil || res.Err != nil {
				t.Fatalf("seed %d %v: %v/%v", seed, det, err, res.Err)
			}
			theirs := map[string]bool{}
			for _, o := range res.RacyObjects {
				theirs[o.String()] = true
			}
			for o := range ours {
				if !theirs[o] {
					t.Fatalf("seed %d: %v missed object %s that the trie detector reports\n--- program ---\n%s",
						seed, det, o, src)
				}
			}
		}
	}
}
