package corpus

import (
	"bytes"
	"testing"

	"racedet/internal/core"
	"racedet/internal/rt/trace"
)

// priorsVariants is the matrix the prior-seeded coverage contract is
// checked over: the adaptive controller with discipline priors on,
// plus the inverted-prior ablation, which deliberately points the
// budget at the wrong sites and must still keep stable races thanks to
// the re-arm web.
func priorsVariants(base core.Config) []struct {
	name string
	cfg  core.Config
} {
	var out []struct {
		name string
		cfg  core.Config
	}
	add := func(name string, cfg core.Config) {
		out = append(out, struct {
			name string
			cfg  core.Config
		}{name, cfg})
	}
	on := base
	on.SampleK = 2
	on.SampleBudget = 0.25
	on.Priors = "on"
	add("priors=on", on)
	inv := on
	inv.Priors = "invert"
	add("priors=invert", inv)
	return out
}

// TestCorpusPriorsKeepCoverage is the coverage differential for
// prior-seeded sampling: on every corpus program, under ten harness
// seeds, every priors variant must report exactly the racy-field set
// of the unsampled Full run — priors redirect the sampling budget,
// they must never change the verdict.
func TestCorpusPriorsKeepCoverage(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 2
	}
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				base, err := core.RunSource(e.name+".mj", e.src, core.Full().WithSeed(seed))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if base.Err != nil {
					t.Fatalf("seed %d: runtime: %v", seed, base.Err)
				}
				want := racyFields(base)

				for _, v := range priorsVariants(core.Full().WithSeed(seed)) {
					res, err := core.RunSource(e.name+".mj", e.src, v.cfg)
					if err != nil {
						t.Fatalf("seed %d %s: %v", seed, v.name, err)
					}
					if res.Err != nil {
						t.Fatalf("seed %d %s: runtime: %v", seed, v.name, res.Err)
					}
					got := racyFields(res)
					for f := range got {
						if !want[f] {
							t.Errorf("seed %d %s: priors run invented a race on %s (unsampled reported %v)",
								seed, v.name, f, keys(want))
						}
					}
					for f := range want {
						if !got[f] {
							t.Errorf("seed %d %s: priors run lost the stable race on %s (reported %v)",
								seed, v.name, f, keys(got))
						}
					}
					ds := res.DetectorStats
					if ds.Accesses != ds.Shipped+ds.CacheHits+ds.OwnerSkips+ds.Sample.Suppressed {
						t.Errorf("seed %d %s: accounting broken: %d observed != %d shipped + %d cache + %d owner + %d suppressed",
							seed, v.name, ds.Accesses, ds.Shipped, ds.CacheHits, ds.OwnerSkips, ds.Sample.Suppressed)
					}
				}
			}
		})
	}
}

// TestCorpusPriorsReplayMatchesLive pins that priors live in the
// detector's sampling filter, never the recorder: a trace recorded
// with sampling off replayed with priors on reproduces a live
// priors-on run byte for byte. Replay has no
// compiled pipeline to derive priors from, so the test carries them
// explicitly via Config.SitePriors — the same hand-off a daemon replay
// job performs.
func TestCorpusPriorsReplayMatchesLive(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 2
	}
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()

			// One compile supplies the discipline priors for every
			// replay below (the tier map is schedule-independent).
			pipe, err := core.Compile(e.name+".mj", e.src, core.Full())
			if err != nil {
				t.Fatal(err)
			}
			priors := pipe.SitePriors()

			for seed := int64(0); seed < seeds; seed++ {
				var buf bytes.Buffer
				rec := core.Full().WithSeed(seed)
				rec.TraceTo = &buf
				live, err := core.RunSource(e.name+".mj", e.src, rec)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if live.Err != nil {
					t.Fatalf("seed %d: runtime: %v", seed, live.Err)
				}

				sampled := core.Full().WithSeed(seed)
				sampled.SampleK = 2
				sampled.SampleBudget = 0.25
				sampled.Priors = "on"
				ref, err := core.RunSource(e.name+".mj", e.src, sampled)
				if err != nil || ref.Err != nil {
					t.Fatalf("seed %d live priors: %v/%v", seed, err, ref.Err)
				}
				want := renderReports(ref)

				rd, err := trace.NewReader(buf.Bytes())
				if err != nil {
					t.Fatalf("seed %d: reading trace: %v", seed, err)
				}
				cfg := sampled
				cfg.SitePriors = priors
				res, err := core.ReplayTrace(rd, cfg, 1)
				if err != nil {
					t.Fatalf("seed %d replay: %v", seed, err)
				}
				if res.Err != nil {
					t.Fatalf("seed %d replay: runtime: %v", seed, res.Err)
				}
				if got := renderReports(res); got != want {
					t.Errorf("seed %d priors replay diverges from live:\n--- live ---\n%s\n--- replay ---\n%s",
						seed, want, got)
				}
			}
		})
	}
}

// TestDisciplineReportDeterministic pins the byte-stability contract
// of the ranked lock-discipline report: two cold compiles agree, and a
// warm fact-cache compile (every function replayed from the cache)
// reproduces the cold report byte for byte.
func TestDisciplineReportDeterministic(t *testing.T) {
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			p1, err := core.Compile(e.name+".mj", e.src, core.Full())
			if err != nil {
				t.Fatal(err)
			}
			p2, err := core.Compile(e.name+".mj", e.src, core.Full())
			if err != nil {
				t.Fatal(err)
			}
			cold := p1.DisciplineReport()
			if cold != p2.DisciplineReport() {
				t.Errorf("discipline report differs across cold compiles:\n--- first ---\n%s\n--- second ---\n%s",
					cold, p2.DisciplineReport())
			}

			dir := t.TempDir()
			cfg := core.Full()
			cfg.FactCacheDir = dir
			seed, err := core.Compile(e.name+".mj", e.src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := seed.DisciplineReport(); got != cold {
				t.Errorf("cache-seeding compile diverges from cold:\n--- cold ---\n%s\n--- seeding ---\n%s", cold, got)
			}
			warm, err := core.Compile(e.name+".mj", e.src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !warm.CacheStats.ProgramHit && warm.CacheStats.FnHits == 0 {
				t.Fatalf("second compile took no cache hits (misses=%d) — warm path untested", warm.CacheStats.FnMisses)
			}
			if got := warm.DisciplineReport(); got != cold {
				t.Errorf("warm cache compile diverges from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold, got)
			}
		})
	}
}
