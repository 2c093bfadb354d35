package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"strings"

	"racedet/internal/core"
	"racedet/internal/rt/trace"
	"racedet/internal/static/factcache"
)

// The traced run attributes runtime cost by differencing: it times the
// same program through stacks with one layer switched on or off, back
// to back within each rep so the differences pair up, and reports the
// median over reps of the per-rep sums over the five programs. The
// detector's own cost is attributed two independent ways — live
// (Full run minus the DetNone run) and replayed (replay minus bare
// decode) — and the two are printed side by side.

// probeTarget is one program prepared for the probe.
type probeTarget struct {
	full, base *core.Pipeline
	seed       int64 // schedule seed of the live runs and the recording
	trace      *trace.Reader
	summary    compileSummary
	facts      *factcache.Cache // warm: holds this program's entry
}

// probe is the per-layer measurement shared by every workload's traced
// run. cfg is the workload's runtime configuration (Full, or
// FullSampledAdaptive on live-sampled).
type probe struct {
	progs []program
	cfg   core.Config
	reps  int
	dir   string // scratch space for fact caches
	tr    *tracer

	out *outcome // probe ops count as attempted ops

	// totals holds, per timed step, one value per rep: the step's time
	// summed over the programs.
	totals map[string][]float64
	counts map[string]float64
}

func (pr *probe) workloadReplay() string {
	if pr.cfg.SampleK > 0 || pr.cfg.SampleBudget > 0 {
		return "replay.sampled"
	}
	return "replay.full"
}

func (pr *probe) prepare(seed int64) ([]probeTarget, error) {
	r := newStream(seed, "probe")
	targets := make([]probeTarget, len(pr.progs))
	for i, p := range pr.progs {
		t := &targets[i]
		var err error
		if t.full, err = core.Compile(p.file, p.source, core.Full()); err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.name, err)
		}
		if t.base, err = core.Compile(p.file, p.source, core.Base()); err != nil {
			return nil, fmt.Errorf("compile %s (Base): %w", p.name, err)
		}
		t.summary = summarizePipeline(t.full)

		t.seed = scheduleSeed(r)
		var buf bytes.Buffer
		cfg := core.Full().WithSeed(t.seed)
		cfg.TraceTo = &buf
		rr, err := t.full.RunConfig(cfg)
		if err != nil {
			return nil, err
		}
		if err := p.checkRun(rr); err != nil {
			return nil, fmt.Errorf("probe recording: %w", err)
		}
		if t.trace, err = trace.NewReader(buf.Bytes()); err != nil {
			return nil, err
		}

		warm := core.Full()
		warm.FactCacheDir = filepath.Join(pr.dir, "warm", p.name)
		if _, err := core.Compile(p.file, p.source, warm); err != nil {
			return nil, err
		}
		t.facts = factcache.Open(warm.FactCacheDir, factcacheFingerprint(warm))
	}
	return targets, nil
}

func factcacheFingerprint(c core.Config) string {
	return factcache.Fingerprint(c.Instrument, c.Static, c.Dominators, c.Peeling, c.Interproc)
}

// run times every step reps times on every program.
func (pr *probe) run(seed int64) error {
	targets, err := pr.prepare(seed)
	if err != nil {
		return err
	}
	pr.totals = map[string][]float64{}
	pr.counts = map[string]float64{}
	for rep := 0; rep < pr.reps; rep++ {
		sums := map[string]float64{}
		for i := range targets {
			op := pr.tr.nextOp()
			pr.out.count(pr.step(rep, op, pr.progs[i], &targets[i], sums))
		}
		for k, v := range sums {
			pr.totals[k] = append(pr.totals[k], v)
		}
	}
	return nil
}

// step runs every timed step once on one program.
func (pr *probe) step(rep int, op int64, p program, t *probeTarget, sums map[string]float64) error {
	var errs []string
	note := func(err error) {
		if err != nil {
			errs = append(errs, err.Error())
		}
	}
	timed := func(name string, fn func()) {
		// Collect first, so one step's garbage is not charged to the next.
		runtime.GC()
		s := pr.tr.timed(name, p.name, op, 0, fn)
		sums[name] += ms(s.dur())
	}

	// Compile phases: the replica's spans are the phase timings.
	cs := pr.tr.start("probe.compile", p.name, op, 0)
	rep1, err := compileReplica(p.file, p.source, core.Full(), func(name string, fn func()) {
		pr.tr.timed(name, p.name, op, cs.id(), fn)
	})
	cs.end()
	switch {
	case err != nil:
		note(err)
	case rep1.summary() != t.summary:
		note(fmt.Errorf("%s: traced compile differs from core.Compile", p.name))
	case rep == 0:
		pr.counts["lower.ir_instrs"] += float64(rep1.irInstrs)
		pr.counts["racestatic.pairs"] += float64(rep1.pairs)
		pr.counts["instrument.traces_emitted"] += float64(t.summary.tracesEmitted())
	}

	// Fact cache: digest and warm lookup of this program's entry, and
	// a cold store of it into an empty directory.
	if low, _, err := lowerReplica(p.file, p.source, core.Full(), runBare); err != nil {
		note(err)
	} else {
		var digest string
		var entry *factcache.Entry
		var hit bool
		timed("factcache.digest", func() { digest = t.facts.ProgramDigest(low.Prog) })
		timed("factcache.lookup", func() { entry, hit = t.facts.Lookup(digest) })
		if hit {
			cold := factcache.Open(filepath.Join(pr.dir, "cold", fmt.Sprint(rep), p.name), factcacheFingerprint(core.Full()))
			timed("factcache.store", func() { cold.Store(digest, entry) })
			if cold.Stats.WriteErrors > 0 {
				note(fmt.Errorf("%s: fact cache store failed", p.name))
			}
		} else {
			note(fmt.Errorf("%s: warm fact cache lookup missed", p.name))
		}
	}

	// Interpreter and live detector.
	run := func(name string, pipe *core.Pipeline, cfg core.Config, verdict bool) *core.RunResult {
		var rr *core.RunResult
		var err error
		timed(name, func() { rr, err = pipe.RunConfig(cfg.WithSeed(t.seed)) })
		switch {
		case err != nil:
			note(err)
		case verdict:
			note(p.checkRun(rr))
		case rr.Err != nil:
			note(fmt.Errorf("%s: %s: %w", p.name, name, rr.Err))
		}
		return rr
	}
	run("interp.base", t.base, core.Base(), false)
	run("interp.detnone", t.full, core.Full().WithDetector(core.DetNone), false)
	if rr := run("probe.live", t.full, pr.cfg, true); rep == 0 && rr != nil {
		s := rr.DetectorStats
		pr.counts["detector.accesses"] += float64(s.Accesses)
		pr.counts["cache.hits"] += float64(s.CacheHits)
		pr.counts["ownership.skips"] += float64(s.OwnerSkips)
		pr.counts["detector.shipped"] += float64(s.Shipped)
		pr.counts["sitestate.suppressed"] += float64(s.Sample.Suppressed)
		pr.counts["trie.nodes"] += float64(rr.TrieNodes)
		pr.counts["interp.steps"] += float64(rr.Interp.Steps)
	}

	// Replay differencing on the program's recorded trace.
	replay := func(name string, cfg core.Config, verdict bool) {
		var rr *core.RunResult
		var err error
		timed(name, func() { rr, err = core.ReplayTrace(t.trace, cfg, 1) })
		switch {
		case err != nil:
			note(err)
		case verdict:
			note(p.checkRun(rr))
		default:
			note(checkAccounting(rr.DetectorStats))
		}
	}
	sharded := core.Full()
	sharded.Shards, sharded.BatchSize = 2, 64
	journaled := sharded
	journaled.JournalCap = 4096
	replay("trace.decode", core.Full().WithDetector(core.DetNone), false)
	replay("replay.full", core.Full(), true)
	replay("replay.nocache", core.Full().NoCache(), true)
	replay("replay.noownership", core.Full().NoOwnership(), false) // reports more, by design
	replay("replay.sampled", sampledConfig(), true)
	replay("replay.sharded", sharded, true)
	replay("replay.journal", journaled, true)

	if len(errs) > 0 {
		return fmt.Errorf("%s", strings.Join(errs, "; "))
	}
	return nil
}

// diff is the per-rep difference of two steps' totals.
func (pr *probe) diff(a, b string) []float64 {
	xa, xb := pr.totals[a], pr.totals[b]
	n := min(len(xa), len(xb))
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = xa[i] - xb[i]
	}
	return out
}

// metrics derives the probe's per-layer metrics.
func (pr *probe) metrics() map[string]float64 {
	m := map[string]float64{}
	for k, v := range pr.counts {
		m[k] = v
	}
	ratio := func(num, den string) float64 {
		if pr.counts[den] == 0 {
			return 0
		}
		return pr.counts[num] / pr.counts[den]
	}
	m["cache.hit_ratio"] = ratio("cache.hits", "detector.accesses")
	m["ownership.skip_ratio"] = ratio("ownership.skips", "detector.accesses")
	m["detector.ship_ratio"] = ratio("detector.shipped", "detector.accesses")

	m["factcache.digest_ms"] = median(pr.totals["factcache.digest"])
	m["factcache.lookup_ms"] = median(pr.totals["factcache.lookup"])
	m["factcache.store_ms"] = median(pr.totals["factcache.store"])

	m["interp.base_ms"] = median(pr.totals["interp.base"])
	m["interp.ms"] = median(pr.totals["interp.detnone"])
	m["instrument.runtime_ms"] = median(pr.diff("interp.detnone", "interp.base"))
	m["detector.ms"] = median(pr.diff("probe.live", "interp.detnone"))
	m["trace.decode_ms"] = median(pr.totals["trace.decode"])
	m["detector.replay_ms"] = median(pr.diff(pr.workloadReplay(), "trace.decode"))

	m["cache.saved_ms"] = median(pr.diff("replay.nocache", "replay.full"))
	m["ownership.saved_ms"] = median(pr.diff("replay.noownership", "replay.full"))
	m["sitestate.cost_ms"] = median(pr.diff("replay.sampled", "replay.full"))
	m["detector.router_ms"] = median(pr.diff("replay.sharded", "replay.full"))
	m["journal.cost_ms"] = median(pr.diff("replay.journal", "replay.sharded"))
	return m
}

// printAttribution prints the detector's cost as attributed live and
// by replay, and flags them when they differ by more than their spreads.
func (pr *probe) printAttribution(w io.Writer) {
	live := pr.diff("probe.live", "interp.detnone")
	replayed := pr.diff(pr.workloadReplay(), "trace.decode")
	ml, mr := median(live), median(replayed)
	spread := iqr(live) + iqr(replayed)
	verdict := "agree"
	if math.Abs(ml-mr) > spread {
		verdict = "DIFFER"
	}
	fmt.Fprintf(w, "detector attribution: live %.3f ms (IQR %.3f)  replay %.3f ms (IQR %.3f)  gap %.3f ms > spread %.3f? %s\n",
		ml, iqr(live), mr, iqr(replayed), ml-mr, spread, verdict)
}

// phaseMetrics turns the compile-phase spans of a run into per-layer
// metrics: for each phase, the sum over programs of the median over
// compiles of that phase's time (and allocation) in one compile.
func phaseMetrics(spans []span) map[string]float64 {
	type key struct {
		phase string
		op    int64
	}
	type total struct {
		program string
		ns      int64
		alloc   uint64
	}
	isPhase := map[string]bool{}
	for _, ph := range compilePhases {
		isPhase[ph] = true
	}
	perOp := map[key]*total{}
	var order []key
	for _, s := range spans {
		if !isPhase[s.Name] {
			continue
		}
		k := key{s.Name, s.Op}
		t, ok := perOp[k]
		if !ok {
			t = &total{program: s.Program}
			perOp[k] = t
			order = append(order, k)
		}
		t.ns += s.EndNs - s.StartNs
		t.alloc += s.AllocBytes
	}
	times := map[string]*samples{}
	allocs := map[string]*samples{}
	for _, ph := range compilePhases {
		times[ph], allocs[ph] = newSamples(), newSamples()
	}
	for _, k := range order {
		t := perOp[k]
		times[k.phase].add(t.program, float64(t.ns)/1e6)
		allocs[k.phase].add(t.program, float64(t.alloc)/1024)
	}
	m := map[string]float64{}
	for _, ph := range compilePhases {
		m[phaseMetricName(ph, "ms")] = times[ph].medianSum()
		m[phaseMetricName(ph, "alloc_kb")] = allocs[ph].medianSum()
	}
	return m
}

// phaseMetricName names a phase metric: "parser.ms", but
// "instrument.peel_ms" for a phase that already has a dotted name.
func phaseMetricName(phase, suffix string) string {
	if strings.Contains(phase, ".") {
		return phase + "_" + suffix
	}
	return phase + "." + suffix
}
