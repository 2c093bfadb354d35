package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"text/tabwriter"

	"racedet/internal/core"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/counters.golden")

// namedConfig is an element of Table2Configs.
type namedConfig = struct {
	Name string
	Cfg  core.Config
}

// countersConfigs are the golden file's rows for each benchmark: the
// Table 2 configurations, then adaptive sampling (SampleK 2, budget
// 0.25), plain and seeded with the static lock-discipline priors.
func countersConfigs() []namedConfig {
	sampled := core.Full()
	sampled.SampleK = 2
	sampled.SampleBudget = 0.25
	priors := sampled
	priors.Priors = "on"
	return append(Table2Configs(), namedConfig{"FullSampledAdaptive", sampled}, namedConfig{"FullSampledPriors", priors})
}

// countersTable runs every benchmark under every counters
// configuration at the default seed and renders the deterministic
// counters of each run, one row per (benchmark, configuration). Wall
// times and allocations depend on the host and are left out.
func countersTable() (string, error) {
	var sb strings.Builder
	tw := tabwriter.NewWriter(&sb, 1, 0, 1, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "bench\tconfig\tsteps\ttrace_events\tcache_hits\towner_skips\tshipped\tsuppressed\ttrie_events\ttrie_nodes\tracy_objects\ttraces_inserted\ttraces_eliminated\tprior_high\tprior_low\t")
	for _, b := range All() {
		for _, c := range countersConfigs() {
			pipe, err := core.Compile(b.Name+".mj", b.Source(), c.Cfg)
			if err != nil {
				return "", fmt.Errorf("%s/%s: %w", b.Name, c.Name, err)
			}
			res, err := pipe.Run()
			if err != nil {
				return "", fmt.Errorf("%s/%s: %w", b.Name, c.Name, err)
			}
			if res.Err != nil {
				return "", fmt.Errorf("%s/%s: runtime: %w", b.Name, c.Name, res.Err)
			}
			d := res.DetectorStats
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
				b.Name, c.Name, res.Interp.Steps, res.Interp.TraceEvents, d.CacheHits, d.OwnerSkips,
				d.Shipped, d.Sample.Suppressed, d.Trie.Events, res.TrieNodes, len(res.RacyObjects),
				pipe.InstrStats.Inserted, pipe.InstrStats.Eliminated, d.Sample.PriorHighSites, d.Sample.PriorLowSites)
		}
	}
	if err := tw.Flush(); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// TestCountersGolden pins the deterministic work counters of every
// (benchmark, configuration) cell byte for byte, so a change to any one
// counter of any cell fails it. Regenerate with:
//
//	go test ./internal/bench -run TestCountersGolden -update
func TestCountersGolden(t *testing.T) {
	got, err := countersTable()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "counters.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("counters changed (regenerate with -update if intended):\n--- golden ---\n%s\n--- got ---\n%s", want, got)
	}
}
