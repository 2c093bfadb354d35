// Command benchmark measures racedet end to end on one named workload
// and checks the verdict of every operation it runs.
//
//	benchmark -workload live -seed 1 -seconds 15
//
// The workload seed generates every input the code under test
// receives. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced (-trace 0, the default) it carries the end-to-end metrics;
// traced (-trace 1, or -trace FILE) it carries the per-layer metrics,
// and the spans of the run are written to FILE (default
// <out-dir>/spans-<workload>-<seed>.json). README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"racedet/internal/core"
)

// workloads lists the workload names in the order README.md and
// BENCHMARK.json give them.
var workloads = []string{"live", "live-sampled", "replay", "compile", "daemon"}

// runConfig is one invocation.
type runConfig struct {
	workload  string
	seed      int64
	duration  time.Duration
	traced    bool
	spansPath string
	outDir    string
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// probeReps is how many times the traced run's layer probe times
	// each step on each program.
	probeReps int
	// warmup is how long the workload runs, unmeasured, before timing.
	warmup time.Duration
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 15, "measured time in seconds")
	traceArg := fs.String("trace", "0", `"0" untraced; "1" or a file name for the traced run`)
	outDir := fs.String("out-dir", ".bench_build", "directory for spans and scratch state")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rc := runConfig{
		workload:  *workload,
		seed:      *seed,
		duration:  time.Duration(*seconds * float64(time.Second)),
		outDir:    *outDir,
		setupReps: 5,
		probeReps: 7,
		warmup:    time.Second,
	}
	switch *traceArg {
	case "0", "":
	case "1":
		rc.traced = true
		rc.spansPath = filepath.Join(*outDir, fmt.Sprintf("spans-%s-%d.json", rc.workload, rc.seed))
	default:
		rc.traced = true
		rc.spansPath = *traceArg
	}
	if !slices.Contains(workloads, rc.workload) {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", rc.workload, strings.Join(workloads, ", "))
		return 2
	}
	if rc.duration <= 0 {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}

	res, err := execute(rc, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printMetrics(stderr, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// count folds a measured phase's op counts into the result.
func (r *result) count(o *outcome, log io.Writer) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	for _, e := range o.errs {
		fmt.Fprintln(log, "benchmark: failed op:", e)
	}
}

// runtimeConfig is the detector configuration the workload runs.
func runtimeConfig(workload string) core.Config {
	if workload == "live-sampled" {
		return sampledConfig()
	}
	return core.Full()
}

func setupWorkload(rc runConfig, progs []program) (state, error) {
	switch rc.workload {
	case "live", "live-sampled":
		return setupLive(rc.seed, progs, runtimeConfig(rc.workload))
	case "replay":
		return setupReplay(rc.seed, progs)
	case "compile":
		return setupCompile(rc.seed, progs)
	case "daemon":
		return setupDaemon(rc.seed, progs, rc.outDir)
	}
	return nil, fmt.Errorf("unknown workload %q", rc.workload)
}

// execute sets the workload up rc.setupReps times (keeping the last
// state) and measures it.
func execute(rc runConfig, log io.Writer) (*result, error) {
	progs, err := loadPrograms()
	if err != nil {
		return nil, err
	}
	var st state
	var setupS []float64
	for i := 0; i < rc.setupReps; i++ {
		if st != nil {
			st.close()
		}
		t0 := time.Now()
		if st, err = setupWorkload(rc, progs); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer st.close()

	res := &result{Metrics: map[string]metric{}}
	// Warm up (heap growth, caches, the daemon's first connections)
	// before anything is timed; the warm-up's ops are checked too.
	res.count(st.run(rc.warmup, nil), log)
	runtime.GC()
	if !rc.traced {
		out := st.run(rc.duration, nil)
		res.count(out, log)
		res.set("setup_s", median(setupS), "s")
		res.set("best_op_ms_geomean", out.bestOpMsGeomean(), "ms")
	} else if err := traced(rc, progs, st, res, log); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// traced is the traced run: half the time untraced and half traced,
// for the tracing overhead, then the layer probe. The loop and daemon
// metrics come from the untraced half.
func traced(rc runConfig, progs []program, st state, res *result, log io.Writer) error {
	tr := newTracer(rc.workload)
	plain := st.run(rc.duration/2, nil)
	res.count(plain, log)
	withSpans := st.run(rc.duration/2, tr)
	res.count(withSpans, log)
	rss := peakRSSMB()

	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(rc.outDir, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	pr := &probe{progs: progs, cfg: runtimeConfig(rc.workload), reps: rc.probeReps, dir: dir, tr: tr, out: newOutcome(nil)}
	if err := pr.run(rc.seed); err != nil {
		return fmt.Errorf("layer probe: %w", err)
	}
	res.count(pr.out, log)

	spans := tr.all()
	for name, v := range pr.metrics() {
		res.set(name, v, unitOf(name))
	}
	for name, v := range phaseMetrics(spans) {
		res.set(name, v, unitOf(name))
	}
	overhead := 0.0
	if t := withSpans.opsPerS(); t > 0 {
		overhead = (plain.opsPerS()/t - 1) * 100
	}
	res.set("tracing.overhead_pct", overhead, "%")
	res.set("pass_ms_p90", quantile(plain.passMs, 0.9), "ms")
	perOp := 0.0
	if plain.attempted > 0 {
		perOp = float64(plain.allocBytes) / 1024 / float64(plain.attempted)
	}
	res.set("alloc_kb_per_op", perOp, "kb")
	res.set("process.peak_rss_mb", rss, "mb")
	res.set("ops_per_s", plain.opsPerS(), "1/s")
	res.set("op_ms_geomean", plain.opMsGeomean(), "ms")

	svc := plain.service
	if svc == nil {
		svc = &serviceOutcome{verdictMs: newSamples()}
	}
	res.set("service.session_ms", median(svc.sessionMs), "ms")
	res.set("service.overhead_ms", median(svc.overheadMs), "ms")
	res.set("service.verdict_ms_geomean", geomean(svc.verdictMs.quantiles(0.5)), "ms")
	res.set("service.verdict_ms_p99", quantile(svc.verdictMs.all(), 0.99), "ms")
	res.set("service.queue_high_water", float64(svc.queueHighWater), "count")
	res.set("loadgen.late_ms_p99", quantile(svc.lateMs, 0.99), "ms")
	res.set("factcache.hit_ratio", svc.factHitRatio, "ratio")

	fmt.Fprintf(log, "tracing overhead: untraced %.2f ops/s, traced %.2f ops/s (%+.1f%%)\n",
		plain.opsPerS(), withSpans.opsPerS(), overhead)
	pr.printAttribution(log)
	printSpanSummary(log, spans)
	if err := writeSpans(rc.spansPath, spans); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(log, "spans: %d written to %s\n", len(spans), rc.spansPath)
	return nil
}

// unitOf derives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "ms"):
		return "ms"
	case strings.HasSuffix(name, "alloc_kb"):
		return "kb"
	case strings.HasSuffix(name, "ratio"):
		return "ratio"
	}
	return "count"
}

// peakRSSMB reads the process's peak resident set size (VmHWM); 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func printMetrics(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-34s %16.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d, correct %v\n", res.Attempted, res.Failed, res.Correct)
}
