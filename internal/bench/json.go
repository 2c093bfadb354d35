package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"testing"

	"racedet/internal/core"
	"racedet/internal/rt/detector"
)

// JSONResult is one (benchmark, configuration) measurement in the
// machine-readable report: the Go benchmark metrics plus the detection
// outcome, so a performance regression and a precision regression are
// both visible from the same artifact.
type JSONResult struct {
	Benchmark string `json:"benchmark"`
	Config    string `json:"config"`
	// NsPerOp is the median over Reps independent measurements (the
	// reps are interleaved across configurations so load drift on the
	// host hits every configuration equally); NsMin/NsMax give the
	// spread. With Reps <= 1 it is the single measurement and the
	// spread fields are omitted.
	NsPerOp     int64 `json:"ns_per_op"`
	Reps        int   `json:"reps,omitempty"`
	NsMin       int64 `json:"ns_min,omitempty"`
	NsMax       int64 `json:"ns_max,omitempty"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	RacyObjects int   `json:"racy_objects"`

	// Replay-throughput axis. EventsPerSec is the detection rate
	// derived from the median ns/op (present on the Replay* rows and
	// on live rows that count trace events, so the replay-vs-live
	// speedup is one division away); TraceBytes is the size of the
	// recorded binary trace a Replay* row streams.
	EventsPerSec int64 `json:"events_per_sec,omitempty"`
	TraceBytes   int   `json:"trace_bytes,omitempty"`

	// Static-phase outcome of the cell's compile (identical across
	// reps): wall time of the analyses and the emitted-trace budget.
	// TracesEmitted = TracesInserted - TracesEliminated is the count
	// the NoInterproc-vs-Full comparison gates on.
	StaticAnalysisNs int64 `json:"static_analysis_ns,omitempty"`
	TracesInserted   int   `json:"traces_inserted,omitempty"`
	TracesEliminated int   `json:"traces_eliminated,omitempty"`
	TracesEmitted    int   `json:"traces_emitted,omitempty"`
	ElimInterproc    int   `json:"elim_interproc,omitempty"`

	// Adaptive-throttling axis (last run of the measurement). Every
	// observed event lands in exactly one filter bucket, so
	// EventsObserved == EventsShipped + cache hits + owner skips +
	// EventsSuppressed; the FullSampled* rows are compared against
	// Full's EventsShipped to quantify the trie work saved.
	// EventsShipped is present on every row (Full rows too) —
	// EventsSuppressed and the site counters only where throttling ran.
	EventsObserved   uint64 `json:"events_observed,omitempty"`
	EventsShipped    uint64 `json:"events_shipped,omitempty"`
	EventsSuppressed uint64 `json:"events_suppressed,omitempty"`
	SitesDemoted     uint64 `json:"sites_demoted,omitempty"`
	SitesRearmed     uint64 `json:"sites_rearmed,omitempty"`

	// Discipline-prior axis (FullSampledPriors rows only): sites
	// pinned / fast-demoting by static tier, and demotions that fired
	// earlier than the adaptive K thanks to a low prior.
	PriorHighSites     int    `json:"prior_high_sites,omitempty"`
	PriorLowSites      int    `json:"prior_low_sites,omitempty"`
	PriorFastDemotions uint64 `json:"prior_fast_demotions,omitempty"`
}

// JSONReport is the top-level structure of the bench JSON artifact
// (BENCH_PR2.json and successors).
type JSONReport struct {
	Note    string       `json:"note"`
	Results []JSONResult `json:"results"`
}

// ReadJSON parses a report previously written by WriteJSON, so tools
// downstream of the artifact (the CI perf gate) share the schema with
// the writer instead of re-declaring it.
func ReadJSON(r io.Reader) (*JSONReport, error) {
	var rep JSONReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("parsing bench report: %w", err)
	}
	if len(rep.Results) == 0 {
		return nil, fmt.Errorf("parsing bench report: no results")
	}
	return &rep, nil
}

// JSONOptions parameterizes the measurement. The zero value selects
// one measurement rep.
type JSONOptions struct {
	// BenchReps is how many times each (benchmark, config) cell is
	// measured. The reps are interleaved — every cell is measured once
	// before any cell is measured twice — so slow phases of a noisy
	// host spread across all configurations instead of biasing whichever
	// one they landed on; the report carries the median and the spread.
	BenchReps int
}

func (o JSONOptions) withDefaults() JSONOptions {
	if o.BenchReps <= 0 {
		o.BenchReps = 1
	}
	return o
}

// jsonConfigs is the measured matrix: the paper's Table 2 ablations
// plus the sampling sweep.
func jsonConfigs() []struct {
	Name string
	Cfg  core.Config
} {
	configs := Table2Configs()
	sampled := func(k int, budget float64) core.Config {
		c := core.Full()
		c.SampleK = k
		c.SampleBudget = budget
		return c
	}
	sampledPriors := func(k int, budget float64) core.Config {
		c := sampled(k, budget)
		c.Priors = "on"
		return c
	}
	add := func(name string, cfg core.Config) struct {
		Name string
		Cfg  core.Config
	} {
		return struct {
			Name string
			Cfg  core.Config
		}{name, cfg}
	}
	return append(configs,
		// The throttling sweep: fixed K at three demotion speeds plus
		// the adaptive controller.
		add("FullSampled4", sampled(4, 0)),
		add("FullSampled16", sampled(16, 0)),
		add("FullSampled64", sampled(64, 0)),
		add("FullSampledAdaptive", sampled(2, 0.25)),
		// The adaptive controller again, but seeded with the static
		// lock-discipline tiers as per-site priors: guarded-consistent
		// sites demote early, unguarded ones stay pinned.
		add("FullSampledPriors", sampledPriors(2, 0.25)),
	)
}

// measureStaticAnalysis adds one "StaticAnalysis" pseudo-configuration
// row per benchmark: ns/op of the whole compile phase (parse through
// instrumentation) under the Full configuration, so the perf gate can
// watch static-analysis wall time alongside the runtime columns.
func measureStaticAnalysis(o JSONOptions) ([]JSONResult, error) {
	var out []JSONResult
	for _, b := range All() {
		var ns, allocs, bytes []int64
		var pipe *core.Pipeline
		for rep := 0; rep < o.BenchReps; rep++ {
			var compErr error
			br := testing.Benchmark(func(tb *testing.B) {
				tb.ReportAllocs()
				for i := 0; i < tb.N; i++ {
					p, err := core.Compile(b.Name+".mj", b.Source(), core.Full())
					if err != nil {
						compErr = err
						tb.FailNow()
					}
					pipe = p
				}
			})
			if compErr != nil {
				return nil, fmt.Errorf("bench %s/StaticAnalysis: %w", b.Name, compErr)
			}
			ns = append(ns, br.NsPerOp())
			allocs = append(allocs, br.AllocsPerOp())
			bytes = append(bytes, br.AllocedBytesPerOp())
		}
		r := JSONResult{
			Benchmark:        b.Name,
			Config:           "StaticAnalysis",
			NsPerOp:          median(ns),
			AllocsPerOp:      median(allocs),
			BytesPerOp:       median(bytes),
			StaticAnalysisNs: pipe.StaticStats.AnalysisNs,
			TracesInserted:   pipe.InstrStats.Inserted,
			TracesEliminated: pipe.InstrStats.Eliminated,
			TracesEmitted:    pipe.InstrStats.Inserted - pipe.InstrStats.Eliminated,
			ElimInterproc:    pipe.StaticStats.ElimInterproc,
		}
		if o.BenchReps > 1 {
			r.Reps = o.BenchReps
			r.NsMin, r.NsMax = minMax(ns)
		}
		out = append(out, r)
	}
	return out, nil
}

// median returns the middle element of the samples (the lower middle
// for even counts, so the result is always an observed value).
func median(xs []int64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)/2]
}

func minMax(xs []int64) (lo, hi int64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// jsonCell is one (benchmark, configuration) measurement target: the
// pipeline is compiled once and re-measured on every rep.
type jsonCell struct {
	bench   string
	cfgName string
	cfg     core.Config
	pipe    *core.Pipeline

	ns, allocs, bytes []int64
	racy              int
	events            uint64
	det               detector.Stats
}

func (cl *jsonCell) measure() error {
	var runErr error
	br := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			rr, err := cl.pipe.RunConfig(cl.cfg)
			if err != nil {
				runErr = err
				tb.FailNow()
			}
			if rr.Err != nil {
				runErr = rr.Err
				tb.FailNow()
			}
			cl.racy = len(rr.RacyObjects)
			cl.events = rr.Interp.TraceEvents
			cl.det = rr.DetectorStats
		}
	})
	if runErr != nil {
		return fmt.Errorf("bench %s/%s: %w", cl.bench, cl.cfgName, runErr)
	}
	cl.ns = append(cl.ns, br.NsPerOp())
	cl.allocs = append(cl.allocs, br.AllocsPerOp())
	cl.bytes = append(cl.bytes, br.AllocedBytesPerOp())
	return nil
}

// WriteJSON measures all five paper benchmarks under the JSON config
// matrix with the testing package's benchmark driver and writes the
// report to w. With BenchReps > 1 every cell is measured that many
// times, reps interleaved across cells, and the report carries the
// median with min/max spread.
func WriteJSON(w io.Writer, opts JSONOptions) error {
	o := opts.withDefaults()
	var cells []*jsonCell
	for _, b := range All() {
		for _, c := range jsonConfigs() {
			pipe, err := core.Compile(b.Name+".mj", b.Source(), c.Cfg)
			if err != nil {
				return fmt.Errorf("bench %s/%s: %w", b.Name, c.Name, err)
			}
			cells = append(cells, &jsonCell{bench: b.Name, cfgName: c.Name, cfg: c.Cfg, pipe: pipe})
		}
	}
	rcells, err := replayCells()
	if err != nil {
		return err
	}
	for rep := 0; rep < o.BenchReps; rep++ {
		for _, cl := range cells {
			if err := cl.measure(); err != nil {
				return err
			}
		}
		for _, cl := range rcells {
			if err := cl.measure(); err != nil {
				return err
			}
		}
	}

	rep := JSONReport{
		Note: "racebench machine-readable results; regenerate with: racebench -json <path>",
	}
	for _, cl := range cells {
		r := JSONResult{
			Benchmark:        cl.bench,
			Config:           cl.cfgName,
			NsPerOp:          median(cl.ns),
			AllocsPerOp:      median(cl.allocs),
			BytesPerOp:       median(cl.bytes),
			RacyObjects:      cl.racy,
			StaticAnalysisNs: cl.pipe.StaticStats.AnalysisNs,
			TracesInserted:   cl.pipe.InstrStats.Inserted,
			TracesEliminated: cl.pipe.InstrStats.Eliminated,
			TracesEmitted:    cl.pipe.InstrStats.Inserted - cl.pipe.InstrStats.Eliminated,
			ElimInterproc:    cl.pipe.StaticStats.ElimInterproc,
			EventsPerSec:     eventsPerSec(cl.events, median(cl.ns)),
			EventsObserved:   cl.det.Accesses,
			EventsShipped:    cl.det.Shipped,
			EventsSuppressed: cl.det.Sample.Suppressed,
			SitesDemoted:     cl.det.Sample.Demotions,
			SitesRearmed:     cl.det.Sample.Rearms,

			PriorHighSites:     cl.det.Sample.PriorHighSites,
			PriorLowSites:      cl.det.Sample.PriorLowSites,
			PriorFastDemotions: cl.det.Sample.PriorFastDemotions,
		}
		if o.BenchReps > 1 {
			r.Reps = o.BenchReps
			r.NsMin, r.NsMax = minMax(cl.ns)
		}
		rep.Results = append(rep.Results, r)
	}
	for _, cl := range rcells {
		r := JSONResult{
			Benchmark:    cl.bench,
			Config:       cl.cfgName,
			NsPerOp:      median(cl.ns),
			AllocsPerOp:  median(cl.allocs),
			BytesPerOp:   median(cl.bytes),
			RacyObjects:  cl.racy,
			EventsPerSec: eventsPerSec(cl.events, median(cl.ns)),
			TraceBytes:   cl.traceBytes,
		}
		if o.BenchReps > 1 {
			r.Reps = o.BenchReps
			r.NsMin, r.NsMax = minMax(cl.ns)
		}
		rep.Results = append(rep.Results, r)
	}
	static, err := measureStaticAnalysis(o)
	if err != nil {
		return err
	}
	rep.Results = append(rep.Results, static...)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
