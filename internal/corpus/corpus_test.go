// Package corpus is an idiom regression suite: each testdata program
// is a realistic concurrency pattern annotated with its expected
// verdict (EXPECT-CLEAN, or EXPECT-RACY with the racy fields). The
// suite runs every program under several scheduler seeds and under
// every optimization configuration, pinning both the detector's
// precision (clean idioms stay clean) and its coverage (buggy idioms
// are caught on every schedule) — plus the paper's known-spurious
// class (lock-free hand-off, see handoff_pipeline.mj).
package corpus

import (
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"racedet/internal/core"
)

var (
	expectCleanRE     = regexp.MustCompile(`(?m)^// EXPECT-CLEAN`)
	expectRacyRE      = regexp.MustCompile(`(?m)^// EXPECT-RACY: (.+)$`)
	expectNoDomOnlyRE = regexp.MustCompile(`(?m)^// EXPECT-RACY-NODOM-ONLY: (.+)$`)
	expectSchedDepRE  = regexp.MustCompile(`(?m)^// EXPECT-SCHED-DEP: (.+)$`)
)

type entry struct {
	name   string
	src    string
	clean  bool
	fields []string // expected racy field names (subset match)
	// nodomOnly marks the §7.2 counterexample: the full pipeline
	// misses the race (compile-time weaker-than × ownership), the
	// NoDominators configuration reports it.
	nodomOnly bool
	// schedDep marks races that only some schedules expose: the fixed
	// round-robin schedule (seed 0) must miss them, a seed sweep must
	// find them. These are the fuzzing harness's reason to exist.
	schedDep bool
}

func loadCorpus(t *testing.T) []entry {
	t.Helper()
	files, err := filepath.Glob("testdata/*.mj")
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	sort.Strings(files)
	var out []entry
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src := string(data)
		e := entry{name: strings.TrimSuffix(filepath.Base(f), ".mj"), src: src}
		switch {
		case expectCleanRE.MatchString(src):
			e.clean = true
		case expectNoDomOnlyRE.MatchString(src):
			e.nodomOnly = true
			m := expectNoDomOnlyRE.FindStringSubmatch(src)
			for _, f := range strings.Split(m[1], ",") {
				e.fields = append(e.fields, strings.TrimSpace(f))
			}
		case expectSchedDepRE.MatchString(src):
			e.schedDep = true
			m := expectSchedDepRE.FindStringSubmatch(src)
			for _, f := range strings.Split(m[1], ",") {
				e.fields = append(e.fields, strings.TrimSpace(f))
			}
		case expectRacyRE.MatchString(src):
			m := expectRacyRE.FindStringSubmatch(src)
			for _, f := range strings.Split(m[1], ",") {
				e.fields = append(e.fields, strings.TrimSpace(f))
			}
		default:
			t.Fatalf("%s: missing EXPECT annotation", f)
		}
		out = append(out, e)
	}
	return out
}

func racyFields(res *core.RunResult) map[string]bool {
	out := map[string]bool{}
	for _, r := range res.Reports {
		out[r.Access.FieldName] = true
	}
	return out
}

// TestCorpusVerdicts runs every idiom under five seeds with the full
// pipeline.
func TestCorpusVerdicts(t *testing.T) {
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			if e.schedDep {
				// Schedule-dependent races: the fixed round-robin
				// schedule must miss them (else they belong in
				// EXPECT-RACY), and a 16-seed sweep must find them.
				union := map[string]bool{}
				for seed := int64(0); seed < 16; seed++ {
					res, err := core.RunSource(e.name+".mj", e.src, core.Full().WithSeed(seed))
					if err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
					if res.Err != nil {
						t.Fatalf("seed %d: runtime: %v", seed, res.Err)
					}
					got := racyFields(res)
					for f := range got {
						union[f] = true
					}
					if seed == 0 {
						for _, want := range e.fields {
							if got[want] {
								t.Errorf("seed 0 already reports %s — race is not schedule-dependent (update the annotation!)", want)
							}
						}
					}
				}
				for _, want := range e.fields {
					if !union[want] {
						t.Errorf("16-seed sweep never exposed %s, union = %v", want, keys(union))
					}
				}
				return
			}
			for _, seed := range []int64{0, 1, 2, 3, 4} {
				res, err := core.RunSource(e.name+".mj", e.src, core.Full().WithSeed(seed))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res.Err != nil {
					t.Fatalf("seed %d: runtime: %v", seed, res.Err)
				}
				got := racyFields(res)
				switch {
				case e.clean:
					if len(got) != 0 {
						t.Errorf("seed %d: expected clean, reported %v", seed, keys(got))
					}
				case e.nodomOnly:
					// The §7.2 counterexample: Full misses the race...
					for _, want := range e.fields {
						if got[want] {
							t.Errorf("seed %d: full pipeline now reports %s — the §7.2 counterexample no longer reproduces (update the annotation!)", seed, want)
						}
					}
					// ...and NoDominators reports it.
					nd, err := core.RunSource(e.name+".mj", e.src, core.Full().NoDominators().WithSeed(seed))
					if err != nil || nd.Err != nil {
						t.Fatalf("seed %d nodom: %v/%v", seed, err, nd.Err)
					}
					ndGot := racyFields(nd)
					for _, want := range e.fields {
						if !ndGot[want] {
							t.Errorf("seed %d: NoDominators misses %s too, reported %v", seed, want, keys(ndGot))
						}
					}
				default:
					for _, want := range e.fields {
						if !got[want] {
							t.Errorf("seed %d: expected race on %s, reported %v", seed, want, keys(got))
						}
					}
				}
			}
		})
	}
}

// TestCorpusConfigStability checks the §7.2 claim over the corpus:
// NoStatic/NoCache must match Full exactly; NoDominators must
// report a superset (it can recover races the compile-time
// weaker-than × ownership interaction suppresses — see
// unsafe_publish.mj — but never lose one).
func TestCorpusConfigStability(t *testing.T) {
	equalConfigs := []struct {
		name string
		cfg  core.Config
	}{
		{"NoStatic", core.Full().NoStatic()},
		{"NoCache", core.Full().NoCache()},
	}
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			base, err := core.RunSource(e.name+".mj", e.src, core.Full())
			if err != nil || base.Err != nil {
				t.Fatalf("%v/%v", err, base.Err)
			}
			want := racyFields(base)
			for _, c := range equalConfigs {
				res, err := core.RunSource(e.name+".mj", e.src, c.cfg)
				if err != nil || res.Err != nil {
					t.Fatalf("%s: %v/%v", c.name, err, res.Err)
				}
				got := racyFields(res)
				if strings.Join(keys(got), ",") != strings.Join(keys(want), ",") {
					t.Errorf("%s reports %v, Full reports %v", c.name, keys(got), keys(want))
				}
			}
			nd, err := core.RunSource(e.name+".mj", e.src, core.Full().NoDominators())
			if err != nil || nd.Err != nil {
				t.Fatalf("NoDominators: %v/%v", err, nd.Err)
			}
			ndGot := racyFields(nd)
			for f := range want {
				if !ndGot[f] {
					t.Errorf("NoDominators dropped %s that Full reports", f)
				}
			}
		})
	}
}

// TestCorpusOutputsDeterministic pins each program's output under the
// default schedule, catching interpreter regressions.
func TestCorpusOutputsDeterministic(t *testing.T) {
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			r1, err := core.RunSource(e.name+".mj", e.src, core.Full())
			if err != nil || r1.Err != nil {
				t.Fatalf("%v/%v", err, r1.Err)
			}
			r2, err := core.RunSource(e.name+".mj", e.src, core.Full())
			if err != nil || r2.Err != nil {
				t.Fatalf("%v/%v", err, r2.Err)
			}
			if r1.Output != r2.Output {
				t.Errorf("nondeterministic output: %q vs %q", r1.Output, r2.Output)
			}
		})
	}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
