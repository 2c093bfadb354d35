package corpus

import (
	"bytes"
	"testing"

	"racedet/internal/core"
	"racedet/internal/rt/trace"
)

// replayVariants is the matrix the record/replay equivalence contract
// is checked over: sequential and parallel segment decode.
func replayVariants(base core.Config) []struct {
	name    string
	cfg     core.Config
	workers int
} {
	var out []struct {
		name    string
		cfg     core.Config
		workers int
	}
	add := func(name string, cfg core.Config, workers int) {
		out = append(out, struct {
			name    string
			cfg     core.Config
			workers int
		}{name, cfg, workers})
	}
	add("workers=1", base, 1)
	add("workers=4", base, 4)
	return out
}

// TestCorpusReplayMatchesLive is the record-once/analyze-many
// differential test: on every corpus program, under ten harness seeds,
// the run is recorded as a binary trace while the serial detector
// analyzes it live, and then every replay variant — sequential and
// parallel segment decode — must reproduce the live run's ordered race reports and racy-object set
// from the trace alone, byte for byte.
func TestCorpusReplayMatchesLive(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 2
	}
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < seeds; seed++ {
				var buf bytes.Buffer
				cfg := core.Full().WithSeed(seed)
				cfg.TraceTo = &buf
				live, err := core.RunSource(e.name+".mj", e.src, cfg)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if live.Err != nil {
					t.Fatalf("seed %d: runtime: %v", seed, live.Err)
				}
				want := renderReports(live)

				rd, err := trace.NewReader(buf.Bytes())
				if err != nil {
					t.Fatalf("seed %d: reading trace: %v", seed, err)
				}
				for _, v := range replayVariants(core.Full().WithSeed(seed)) {
					res, err := core.ReplayTrace(rd, v.cfg, v.workers)
					if err != nil {
						t.Fatalf("seed %d %s: %v", seed, v.name, err)
					}
					if res.Err != nil {
						t.Fatalf("seed %d %s: runtime: %v", seed, v.name, res.Err)
					}
					if got := renderReports(res); got != want {
						t.Errorf("seed %d %s replay diverges from live:\n--- live ---\n%s\n--- %s ---\n%s",
							seed, v.name, want, v.name, got)
					}
				}
			}
		})
	}
}
