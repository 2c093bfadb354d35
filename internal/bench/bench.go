// Package bench holds the MJ translations of the paper's five
// benchmark programs and the harness that regenerates the evaluation
// tables (§8: Tables 1, 2, and 3).
//
// The programs preserve the sharing and locking structure of the
// originals — which is what Table 2's per-benchmark optimization
// sensitivities and Table 3's race-object counts are consequences of —
// while being small enough to interpret deterministically. DESIGN.md
// documents every substitution.
package bench

import (
	"embed"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"racedet/internal/core"
)

//go:embed testdata/*.mj
var sources embed.FS

// Benchmark describes one paper benchmark.
type Benchmark struct {
	Name        string
	File        string
	Threads     int // dynamic threads, as in Table 1
	Description string
	// CPUBound selects the programs Table 2 reports performance for
	// (elevator and hedc are interactive in the paper and excluded).
	CPUBound bool
}

// All lists the paper's benchmarks in Table 1 order.
func All() []Benchmark {
	return []Benchmark{
		{"mtrt", "testdata/mtrt.mj", 3, "MultiThreaded Ray Tracer analogue (SPECJVM98)", true},
		{"tsp", "testdata/tsp.mj", 5, "Traveling Salesman Problem solver analogue (ETH)", true},
		{"sor2", "testdata/sor2.mj", 4, "Modified Successive Over-Relaxation analogue (ETH)", true},
		{"elevator", "testdata/elevator.mj", 5, "Real-time discrete event elevator simulator analogue", false},
		{"hedc", "testdata/hedc.mj", 8, "Web-crawler application kernel analogue (ETH)", false},
	}
}

// ByName returns the named benchmark.
func ByName(name string) (Benchmark, error) {
	for _, b := range All() {
		if b.Name == name {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("bench: unknown benchmark %q", name)
}

// Source returns the MJ source text of the benchmark.
func (b Benchmark) Source() string {
	data, err := sources.ReadFile(b.File)
	if err != nil {
		panic("bench: missing embedded source " + b.File)
	}
	return string(data)
}

// LineCount returns the benchmark's lines of code (Table 1 column).
func (b Benchmark) LineCount() int {
	return strings.Count(b.Source(), "\n")
}

// Run compiles and executes the benchmark under cfg.
func (b Benchmark) Run(cfg core.Config) (*core.RunResult, error) {
	res, err := core.RunSource(b.Name+".mj", b.Source(), cfg)
	if err != nil {
		return nil, fmt.Errorf("bench %s: %w", b.Name, err)
	}
	if res.Err != nil {
		return res, fmt.Errorf("bench %s: runtime: %w", b.Name, res.Err)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Table 1

// Table1 prints the benchmark characteristics table.
func Table1(w io.Writer) {
	fmt.Fprintf(w, "Table 1: Benchmark programs and their characteristics\n")
	fmt.Fprintf(w, "%-10s %8s %9s  %s\n", "Example", "LoC(MJ)", "Threads", "Description")
	for _, b := range All() {
		fmt.Fprintf(w, "%-10s %8d %9d  %s\n", b.Name, b.LineCount(), b.Threads, b.Description)
	}
}

// ---------------------------------------------------------------------------
// Table 2

// Table2Row is the measurement of one benchmark under one
// configuration: wall time plus deterministic work counters. Wall time
// is environment-sensitive; the deterministic Work and DetWork columns
// are the reproducible shape witnesses (see EXPERIMENTS.md).
type Table2Row struct {
	Config      string
	Duration    time.Duration
	Steps       uint64 // interpreted instructions (includes traces)
	TraceEvents uint64
	CacheHits   uint64
	SlowPath    uint64 // events past the cache (miss or no cache)
	TrieEvents  uint64 // events that reached the trie layer
	TrieNodes   int
	TrackedLocs int // locations in the ownership table (memory growth)

	OverheadPct  float64 // vs Base, wall time
	WorkOverhead float64 // vs Base, interpreted instructions
	// DetWork models the detector cost deterministically:
	// instructions + 2·slow-path events + 10·trie events (weights from
	// the micro-benchmarks in bench_test.go; a cache hit costs about
	// one interpreted instruction, a trie traversal about ten).
	DetWork         uint64
	DetWorkOverhead float64 // vs Base, DetWork
}

// Table2Configs lists the paper's Table 2 configurations in order.
func Table2Configs() []struct {
	Name string
	Cfg  core.Config
} {
	return []struct {
		Name string
		Cfg  core.Config
	}{
		{"Base", core.Base()},
		{"Full", core.Full()},
		{"NoStatic", core.Full().NoStatic()},
		{"NoDominators", core.Full().NoDominators()},
		{"NoPeeling", core.Full().NoPeeling()},
		{"NoInterproc", core.Full().NoInterproc()},
		{"NoCache", core.Full().NoCache()},
	}
}

// Table2Bench measures one benchmark under every Table 2
// configuration, running each config `runs` times and keeping the
// best wall time (the paper ran five times and reported the best).
func Table2Bench(b Benchmark, runs int) ([]Table2Row, error) {
	if runs <= 0 {
		runs = 1
	}
	var rows []Table2Row
	var base Table2Row
	for _, c := range Table2Configs() {
		pipe, err := core.Compile(b.Name+".mj", b.Source(), c.Cfg)
		if err != nil {
			return nil, fmt.Errorf("bench %s/%s: %w", b.Name, c.Name, err)
		}
		var best *core.RunResult
		for r := 0; r < runs; r++ {
			runtime.GC() // comparable heap state across timed runs
			res, err := pipe.Run()
			if err != nil {
				return nil, fmt.Errorf("bench %s/%s: %w", b.Name, c.Name, err)
			}
			if res.Err != nil {
				return nil, fmt.Errorf("bench %s/%s: runtime: %w", b.Name, c.Name, res.Err)
			}
			if best == nil || res.Duration < best.Duration {
				best = res
			}
		}
		row := Table2Row{
			Config:      c.Name,
			Duration:    best.Duration,
			Steps:       best.Interp.Steps,
			TraceEvents: best.Interp.TraceEvents,
			CacheHits:   best.DetectorStats.CacheHits,
			SlowPath:    best.DetectorStats.Accesses - best.DetectorStats.CacheHits,
			TrieEvents:  best.DetectorStats.Trie.Events,
			TrieNodes:   best.TrieNodes,
			TrackedLocs: best.DetectorStats.OwnerLocations,
		}
		row.DetWork = row.Steps + 2*row.SlowPath + 10*row.TrieEvents
		if c.Name == "Base" {
			base = row
		}
		if base.Duration > 0 {
			row.OverheadPct = 100 * (float64(row.Duration) - float64(base.Duration)) / float64(base.Duration)
		}
		if base.Steps > 0 {
			row.WorkOverhead = 100 * (float64(row.Steps) - float64(base.Steps)) / float64(base.Steps)
			row.DetWorkOverhead = 100 * (float64(row.DetWork) - float64(base.DetWork)) / float64(base.DetWork)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2 prints the runtime-performance table for the CPU-bound
// benchmarks.
func Table2(w io.Writer, runs int) error {
	fmt.Fprintf(w, "Table 2: Runtime Performance (wall time, best of %d; DetWork = instructions + 2*slow-path + 10*trie)\n", runs)
	fmt.Fprintf(w, "%-10s %-13s %12s %9s %12s %10s %10s %9s %10s %10s\n",
		"Example", "Config", "Time", "Ovhd%", "TraceEvents", "SlowPath", "TrieEvents", "Locs", "DetWork", "DetOvhd%")
	for _, b := range All() {
		if !b.CPUBound {
			continue
		}
		rows, err := Table2Bench(b, runs)
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s %-13s %12s %8.0f%% %12d %10d %10d %9d %10d %9.0f%%\n",
				b.Name, r.Config, r.Duration.Round(time.Microsecond), r.OverheadPct,
				r.TraceEvents, r.SlowPath, r.TrieEvents, r.TrackedLocs, r.DetWork, r.DetWorkOverhead)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Table 3

// Table3Row is one benchmark's racy-object counts under the accuracy
// variants.
type Table3Row struct {
	Name         string
	Full         int
	FieldsMerged int
	NoOwnership  int
}

// Table3Bench computes one benchmark's Table 3 row.
func Table3Bench(b Benchmark) (Table3Row, error) {
	row := Table3Row{Name: b.Name}
	for _, v := range []struct {
		cfg core.Config
		dst *int
	}{
		{core.Full(), &row.Full},
		{core.Full().MergedFields(), &row.FieldsMerged},
		{core.Full().NoOwnership(), &row.NoOwnership},
	} {
		res, err := b.Run(v.cfg)
		if err != nil {
			return row, err
		}
		*v.dst = len(res.RacyObjects)
	}
	return row, nil
}

// Table3 prints the accuracy table for all benchmarks.
func Table3(w io.Writer) error {
	fmt.Fprintf(w, "Table 3: Number of Objects With Dataraces Reported\n")
	fmt.Fprintf(w, "%-10s %6s %14s %13s\n", "Example", "Full", "FieldsMerged", "NoOwnership")
	for _, b := range All() {
		row, err := Table3Bench(b)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %6d %14d %13d\n", row.Name, row.Full, row.FieldsMerged, row.NoOwnership)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Detector comparison (§8.3 / §9)

// CompareRow holds racy-object counts per detector for one benchmark.
type CompareRow struct {
	Name       string
	Trie       int
	NoPseudo   int
	Eraser     int
	ObjectRace int
	VClock     int
}

// CompareDetectors runs every benchmark under the paper's detector,
// the paper's detector without join pseudolocks, and the three
// baselines, reporting racy-object counts.
func CompareDetectors(w io.Writer) error {
	fmt.Fprintf(w, "Detector comparison (racy objects; §8.3/§9)\n")
	fmt.Fprintf(w, "%-10s %6s %10s %8s %12s %8s\n", "Example", "Trie", "NoPseudo", "Eraser", "ObjectRace", "VClock")
	for _, b := range All() {
		row := CompareRow{Name: b.Name}
		for _, v := range []struct {
			cfg core.Config
			dst *int
		}{
			{core.Full(), &row.Trie},
			{func() core.Config { c := core.Full(); c.PseudoLocks = false; return c }(), &row.NoPseudo},
			{core.Full().WithDetector(core.DetEraser), &row.Eraser},
			{core.Full().WithDetector(core.DetObjectRace), &row.ObjectRace},
			{core.Full().WithDetector(core.DetVClock), &row.VClock},
		} {
			res, err := b.Run(v.cfg)
			if err != nil {
				return err
			}
			*v.dst = len(res.RacyObjects)
		}
		fmt.Fprintf(w, "%-10s %6d %10d %8d %12d %8d\n",
			row.Name, row.Trie, row.NoPseudo, row.Eraser, row.ObjectRace, row.VClock)
	}
	return nil
}
