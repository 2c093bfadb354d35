package corpus

import (
	"bytes"
	"testing"

	"racedet/internal/core"
	"racedet/internal/rt/trace"
)

// samplingVariants is the matrix the throttling coverage contract is
// checked over: a small fixed K (fast demotion, the aggressive end)
// and the adaptive controller.
func samplingVariants(base core.Config) []struct {
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
	k4 := base
	k4.SampleK = 4
	add("sample-k=4", k4)
	ad := base
	ad.SampleK = 4
	ad.SampleBudget = 0.25
	add("sample-k=4,budget=0.25", ad)
	return out
}

// TestCorpusSamplingKeepsStableRaces is the coverage differential for
// adaptive throttling: on every corpus program, under ten harness
// seeds, every sampled variant must report a subset of the unsampled
// run's racy fields (throttling can only suppress, never invent) and
// must keep every field the unsampled run reported — the corpus races
// are all stable (recurring) ones, exactly the class the re-arm web
// guarantees to keep. Clean idioms staying clean falls out of the
// subset direction.
func TestCorpusSamplingKeepsStableRaces(t *testing.T) {
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

				for _, v := range samplingVariants(core.Full().WithSeed(seed)) {
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
							t.Errorf("seed %d %s: sampled run invented a race on %s (unsampled reported %v)",
								seed, v.name, f, keys(want))
						}
					}
					for f := range want {
						if !got[f] {
							t.Errorf("seed %d %s: sampled run lost the stable race on %s (reported %v)",
								seed, v.name, f, keys(got))
						}
					}
					// Shipped accounting: every observed event lands in
					// exactly one filter bucket.
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

// TestCorpusSampledReplayMatchesLiveSampled pins that sampling lives
// in the detector's filter, never the recorder: a trace recorded with
// sampling OFF carries the full event stream, and replaying it with
// sampling ON reproduces a live sampled run byte for byte. (Recording always captures the full stream because the
// tee sink disables the source-level fast path, exactly like sampling
// itself does.)
func TestCorpusSampledReplayMatchesLiveSampled(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 2
	}
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				// Record with sampling off.
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

				// The live sampled run is the reference verdict.
				sampled := core.Full().WithSeed(seed)
				sampled.SampleK = 4
				ref, err := core.RunSource(e.name+".mj", e.src, sampled)
				if err != nil || ref.Err != nil {
					t.Fatalf("seed %d live sampled: %v/%v", seed, err, ref.Err)
				}
				want := renderReports(ref)

				rd, err := trace.NewReader(buf.Bytes())
				if err != nil {
					t.Fatalf("seed %d: reading trace: %v", seed, err)
				}
				res, err := core.ReplayTrace(rd, sampled, 1)
				if err != nil {
					t.Fatalf("seed %d replay: %v", seed, err)
				}
				if res.Err != nil {
					t.Fatalf("seed %d replay: runtime: %v", seed, res.Err)
				}
				if got := renderReports(res); got != want {
					t.Errorf("seed %d sampled replay diverges from live sampled:\n--- live ---\n%s\n--- replay ---\n%s",
						seed, want, got)
				}
			}
		})
	}
}
