// Package core orchestrates the full pipeline of Figure 1: static
// datarace analysis → optimized instrumentation → execution with the
// runtime optimizer and runtime detector. Every configuration knob of
// the paper's evaluation (Table 2's Base/Full/NoStatic/NoDominators/
// NoPeeling/NoCache and Table 3's Full/FieldsMerged/NoOwnership) is a
// field of Config, and the baseline detectors plug in through the same
// event stream.
package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"racedet/internal/escape"
	"racedet/internal/icfg"
	"racedet/internal/instrument"
	"racedet/internal/interp"
	"racedet/internal/ir"
	"racedet/internal/lang/ast"
	"racedet/internal/lang/parser"
	"racedet/internal/lang/sem"
	"racedet/internal/lower"
	"racedet/internal/pointsto"
	"racedet/internal/racestatic"
	"racedet/internal/rt/deadlock"
	"racedet/internal/rt/detector"
	"racedet/internal/rt/eraser"
	"racedet/internal/rt/event"
	"racedet/internal/rt/immutable"
	"racedet/internal/rt/objectrace"
	"racedet/internal/rt/postmortem"
	"racedet/internal/rt/sitestate"
	"racedet/internal/rt/trace"
	"racedet/internal/rt/vclock"
	"racedet/internal/static/factcache"
	"racedet/internal/static/lockdiscipline"
)

// DetectorKind selects the runtime detector.
type DetectorKind int

// Detector kinds.
const (
	DetTrie       DetectorKind = iota // the paper's detector
	DetEraser                         // Eraser lockset baseline
	DetObjectRace                     // Praun-Gross object-granularity baseline
	DetVClock                         // vector-clock happens-before baseline
	DetNone                           // no detector (Base measurements)
)

func (k DetectorKind) String() string {
	switch k {
	case DetTrie:
		return "trie"
	case DetEraser:
		return "eraser"
	case DetObjectRace:
		return "objectrace"
	case DetVClock:
		return "vclock"
	case DetNone:
		return "none"
	}
	return "?"
}

// Config selects pipeline phases and detector options. Use Full() or
// Base() and the With* helpers rather than constructing it literally.
type Config struct {
	// Instrument inserts trace pseudo-instructions (false = the
	// paper's "Base": uninstrumented execution).
	Instrument bool
	// Static runs the §5 static datarace analysis and instruments only
	// the static datarace set (false = "NoStatic": trace everything).
	Static bool
	// Dominators enables the §6.1 static weaker-than elimination
	// (false = "NoDominators"; implies no peeling, as in the paper).
	Dominators bool
	// Peeling enables §6.3 loop peeling (false = "NoPeeling").
	Peeling bool
	// Cache enables the §4 runtime optimizer (false = "NoCache").
	Cache bool
	// Interproc enables the interprocedural strengthenings of the
	// static phase: the flow-sensitive must-held-lockset dataflow
	// backing MustCommonSync, and the cross-call weaker-than
	// elimination (relaxed barriers, stable fields, MustTrace
	// summaries). False = "NoInterproc": exactly the per-function
	// analysis, for the ablation column.
	Interproc bool
	// PtsWorkers > 0 runs the Andersen points-to solver on that many
	// parallel workers (same fixed point, see pointsto.AnalyzeParallel);
	// 0 keeps the serial solver.
	PtsWorkers int
	// FactCacheDir, when non-empty, persists per-function static
	// analysis results keyed by content digests under this directory
	// and reuses them for unchanged functions on later compiles.
	FactCacheDir string
	// Ownership enables the §7 ownership filter (false =
	// "NoOwnership").
	Ownership bool
	// FieldsMerged collapses instance fields per object (Table 3).
	FieldsMerged bool
	// PseudoLocks models join via dummy locks (§2.3); disabling shows
	// the single-common-lock false positive of §8.3.
	PseudoLocks bool
	// ReportAll reports every racing access, not one per location.
	ReportAll bool
	// Detector selects the runtime algorithm.
	Detector DetectorKind

	// Seed/Quantum/MaxSteps configure the deterministic scheduler.
	Seed     int64
	Quantum  int
	MaxSteps uint64

	// RecordSchedule captures the scheduler's decision sequence in
	// RunResult.Schedule, turning any run — in particular one exposing
	// a schedule-dependent race — into a replayable artifact.
	RecordSchedule bool
	// ReplaySchedule re-executes a recorded decision sequence instead
	// of scheduling live; Seed is ignored and Quantum is taken from the
	// trace. Replay of a trace on the program that produced it is
	// deterministic down to every detector event.
	ReplaySchedule *interp.ScheduleTrace

	// Timeout bounds the execution's wall-clock time (0 = none); on
	// expiry the run fails with a watchdog RuntimeError carrying a
	// thread dump.
	Timeout time.Duration
	// LivelockWindow terminates runs making no heap progress for this
	// many consecutive scheduler slices (0 = disabled). It catches
	// spinning programs in O(window·quantum) steps instead of burning
	// the whole step budget.
	LivelockWindow int

	// MaxTrieNodes/MaxCacheThreads/MaxOwnerLocations bound detector
	// memory (0 = unbounded). Degradation is graceful and strictly
	// over-reporting; see detector.Options.
	MaxTrieNodes      int
	MaxCacheThreads   int
	MaxOwnerLocations int

	// Out receives the program's print output; nil discards.
	Out io.Writer

	// RecordTo, when non-nil, also streams the runtime event log to
	// this writer for post-mortem analysis (§1/§2.6): replay it with
	// ReplayLog or reconstruct FullRace with postmortem.FullRace.
	RecordTo io.Writer

	// TraceTo, when non-nil, additionally records the run as a compact
	// binary event trace (internal/rt/trace): delta-encoded, interned,
	// segment-indexed, replayable into any detector configuration with
	// ReplayTrace — record once, analyze many. The writer is finalized
	// when the run ends, even on a runtime error, so a failed run still
	// leaves a valid partial trace.
	TraceTo io.Writer

	// DetectDeadlocks additionally runs the lock-order-graph
	// potential-deadlock analysis (the paper's §10 future work).
	DetectDeadlocks bool

	// AnalyzeImmutability additionally runs the dynamic immutability
	// analysis (the other §10 future-work item): per shared field,
	// whether it was only written before cross-thread publication.
	AnalyzeImmutability bool

	// PackedTrie selects the §8.2 multi-location trie representation
	// (one trie per object instead of per location).
	PackedTrie bool

	// Shards is ignored: detection always runs serially. The field
	// remains so that existing callers keep compiling.
	Shards int
	// BatchSize, when > 0, batches access events per thread: the
	// interpreter buffers up to this many accesses before calling into
	// the sink chain. Event order — and therefore detection — is
	// unchanged; see interp.Options.BatchSize.
	BatchSize int
	// JournalCap is ignored, like Shards.
	JournalCap int

	// SampleK > 0 enables adaptive per-site throttling (-sample-k): a
	// static access site demotes to a counting-only stub after K
	// consecutive clean observations and re-arms on ownership
	// contact; stub suppression is per-location and write-aware, so
	// stable (recurring) races still ship. Applies to live runs and
	// trace replays alike — sampling lives in the detector's filter,
	// never in the recorder. Requires the ownership filter.
	SampleK int
	// SampleBudget > 0 enables the target-overhead controller
	// (-sample-budget): K adapts each window to hold the events-shipped
	// ratio at the budget (0 < budget <= 1).
	SampleBudget float64

	// Priors seeds the sampler with per-site static lock-discipline
	// priors (-priors): "on" pins statically unguarded and
	// guarded-inconsistent sites armed and demotes guarded-consistent
	// sites early; "invert" swaps the two (the ablation mode); "" or
	// "off" ignores the tiers. Requires sampling and a compiled
	// pipeline with static analysis.
	Priors string
	// SitePriors supplies the per-site prior map explicitly. Leave it
	// nil for live runs — RunConfig fills it from the compiled
	// pipeline's discipline tiers; trace replays (ReplayTrace) have no
	// pipeline, so callers wanting priors there must set it, typically
	// from Pipeline.SitePriors of the program that produced the trace.
	SitePriors map[sitestate.Key]sitestate.Prior
}

// PriorsEnabled reports whether mode requests prior-seeded sampling
// ("on" or "invert"; "" and "off" do not).
func PriorsEnabled(mode string) bool { return mode == "on" || mode == "invert" }

// Full returns the paper's complete configuration.
func Full() Config {
	return Config{
		Instrument:  true,
		Static:      true,
		Dominators:  true,
		Peeling:     true,
		Cache:       true,
		Ownership:   true,
		PseudoLocks: true,
		Interproc:   true,
		Detector:    DetTrie,
	}
}

// Base returns the uninstrumented configuration (Table 2 "Base").
func Base() Config {
	c := Full()
	c.Instrument = false
	c.Detector = DetNone
	return c
}

// NoStatic disables static race analysis (Table 2 "NoStatic").
func (c Config) NoStatic() Config { c.Static = false; return c }

// NoDominators disables the static weaker-than elimination and loop
// peeling (Table 2 "NoDominators"; peeling is useless without it).
func (c Config) NoDominators() Config { c.Dominators = false; c.Peeling = false; return c }

// NoPeeling disables loop peeling only (Table 2 "NoPeeling").
func (c Config) NoPeeling() Config { c.Peeling = false; return c }

// NoCache disables the runtime optimizer (Table 2 "NoCache").
func (c Config) NoCache() Config { c.Cache = false; return c }

// NoInterproc disables the interprocedural static strengthenings
// (ablation column "NoInterproc": per-function analysis only).
func (c Config) NoInterproc() Config { c.Interproc = false; return c }

// NoOwnership disables the ownership filter (Table 3 "NoOwnership").
func (c Config) NoOwnership() Config { c.Ownership = false; return c }

// MergedFields enables object-granularity fields (Table 3
// "FieldsMerged").
func (c Config) MergedFields() Config { c.FieldsMerged = true; return c }

// WithDetector selects a runtime detector baseline.
func (c Config) WithDetector(k DetectorKind) Config { c.Detector = k; return c }

// WithSeed sets the scheduler seed (0 = fixed round-robin quantum).
func (c Config) WithSeed(seed int64) Config { c.Seed = seed; return c }

// StaticStats summarizes the static analysis phase.
type StaticStats struct {
	AccessSites       int
	RaceSetSize       int
	PairCount         int
	ThreadLocalPruned int
	SameThreadPruned  int
	CommonSyncPruned  int
	// FlowSyncPruned is the subset of CommonSyncPruned proven only by
	// the flow-sensitive must-held-lockset dataflow (0 without
	// Config.Interproc).
	FlowSyncPruned int
	// ElimIntra/ElimPeel/ElimInterproc split InstrStats.Eliminated by
	// what justified each kill (see instrument.ElimKind).
	ElimIntra     int
	ElimPeel      int
	ElimInterproc int
	// Tier* summarize the lock-discipline classification of the
	// surviving pairs and kept sites (see internal/static/lockdiscipline).
	TierUnguardedPairs    int
	TierInconsistentPairs int
	TierDemotedPairs      int
	TierUnguardedSites    int
	TierInconsistentSites int
	TierConsistentSites   int
	// AnalysisNs is the wall time of the static phase: points-to, call
	// graph, escape, race analysis, and trace insertion/elimination.
	AnalysisNs int64
}

// Pipeline is a compiled program plus everything the runtime needs.
type Pipeline struct {
	Config Config
	File   string

	AST    *ast.Program
	Sem    *sem.Program
	Lower  *lower.Result
	Prog   *ir.Program
	Static *racestatic.Result // nil when Config.Static is false
	Pts    *pointsto.Result
	ICG    *icfg.Graph
	Esc    *escape.Result

	// Discipline is the lock-discipline tier classification over the
	// static result (nil when Config.Static is false or on a fact-cache
	// program hit, which replays the rendered report and tier entries
	// instead of the live structure).
	Discipline *lockdiscipline.Result
	// disciplineReport is the rendered ranked pair report; tierEntries
	// is the portable per-site tier list — both survive program-level
	// cache hits verbatim, which is what keeps -static-report
	// byte-identical on warm compiles.
	disciplineReport string
	tierEntries      []factcache.TierEntry

	// ElimReport details every weaker-than elimination (nil unless
	// Config.Instrument && Config.Dominators).
	ElimReport *instrument.Report
	// CacheStats reports fact-cache hits/misses (zero value when
	// Config.FactCacheDir is empty).
	CacheStats factcache.Stats

	InstrStats  instrument.Stats
	StaticStats StaticStats

	// priorsOnce/sitePriors memoize the tier-derived sampling priors
	// (shared read-only by every run of this pipeline).
	priorsOnce sync.Once
	sitePriors map[sitestate.Key]sitestate.Prior

	// hintOnce/hintIndex memoize the static may-race partner index used
	// by staticHints: the pairs are fixed at compile time, but the index
	// used to be rebuilt on every run — a measurable share of per-run
	// allocations for fuzzing workloads that run one compiled program
	// thousands of times. sync.Once keeps RunConfig safe to call from
	// concurrent workers.
	hintOnce  sync.Once
	hintIndex map[string][]string
}

// Compile runs phases 1–2 of Figure 1 (static analysis and optimized
// instrumentation) on MJ source text.
func Compile(file, src string, cfg Config) (*Pipeline, error) {
	prog, err := parser.Parse(file, src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	sp, err := sem.Check(prog)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}

	p := &Pipeline{Config: cfg, File: file, AST: prog, Sem: sp}

	// Loop peeling rewrites the AST; re-check to annotate new nodes.
	if cfg.Instrument && cfg.Peeling && cfg.Dominators {
		isField := func(id *ast.Ident) bool {
			return sp.IdentRef[id].Kind == sem.RefField
		}
		p.InstrStats.LoopsPeeled = instrument.PeelLoops(prog, isField)
		sp, err = sem.Check(prog)
		if err != nil {
			return nil, fmt.Errorf("re-check after peeling: %w", err)
		}
		p.Sem = sp
	}

	p.Lower = lower.Lower(sp)
	p.Prog = p.Lower.Prog

	// Fact cache: when the whole-program digest matches a prior
	// compile, replay the traced-instruction sets and stats and skip
	// every analysis below.
	var cache *factcache.Cache
	var progDigest string
	if cfg.FactCacheDir != "" {
		cache = factcache.Open(cfg.FactCacheDir, factcache.Fingerprint(
			cfg.Instrument, cfg.Static, cfg.Dominators, cfg.Peeling, cfg.Interproc))
		// The digest must cover the pre-instrumentation lowering: Store
		// runs after InsertTraces has rewritten the IR.
		progDigest = cache.ProgramDigest(p.Prog)
		if ent, ok := cache.Lookup(progDigest); ok {
			if err := p.applyCached(ent); err == nil {
				p.CacheStats = cache.Stats
				return p, nil
			}
			// A stale or corrupt entry falls through to a full compile.
			cache.Stats.ProgramHit = false
		}
	}

	analysisStart := time.Now()

	// Whole-program analyses (needed for static race analysis; cheap
	// enough to run always so tools can inspect them).
	if cfg.PtsWorkers > 0 {
		p.Pts = pointsto.AnalyzeParallel(p.Prog, cfg.PtsWorkers)
	} else {
		p.Pts = pointsto.Analyze(p.Prog)
	}
	p.ICG = icfg.Build(p.Prog, p.Lower, p.Pts)
	p.Esc = escape.Analyze(p.Prog, p.Pts)

	var filter instrument.Filter
	if cfg.Static {
		var opt racestatic.Options
		if cfg.Interproc {
			opt.MustLock = icfg.BuildMustLock(p.ICG)
		}
		p.Static = racestatic.AnalyzeOpts(p.Prog, p.Pts, p.ICG, p.Esc, opt)
		filter = p.Static.Filter()
		p.Discipline = lockdiscipline.Analyze(p.Static, p.ICG, opt.MustLock, p.Esc, p.Pts)
		p.disciplineReport = p.Discipline.Report()
		for _, t := range p.Discipline.SiteTiers() {
			p.tierEntries = append(p.tierEntries, factcache.TierEntry{
				File: t.File, Line: t.Line, Col: t.Col, Write: t.Write, Tier: uint8(t.Tier),
			})
		}
		p.StaticStats = StaticStats{
			AccessSites:       len(p.Static.Sites),
			RaceSetSize:       len(p.Static.InRaceSet),
			PairCount:         len(p.Static.Pairs),
			ThreadLocalPruned: p.Static.PrunedThreadLocal,
			SameThreadPruned:  p.Static.PrunedSameThread,
			CommonSyncPruned:  p.Static.PrunedCommonSync,
			FlowSyncPruned:    p.Static.PrunedCommonSyncFlow,

			TierUnguardedPairs:    p.Discipline.UnguardedPairs,
			TierInconsistentPairs: p.Discipline.InconsistentPairs,
			TierDemotedPairs:      p.Discipline.DemotedPairs,
			TierUnguardedSites:    p.Discipline.UnguardedSites,
			TierInconsistentSites: p.Discipline.InconsistentSites,
			TierConsistentSites:   p.Discipline.ConsistentSites,
		}
	}

	if cfg.Instrument {
		var ip *instrument.Interproc
		if cfg.Dominators && cfg.Interproc {
			ip = instrument.BuildInterproc(p.Prog, p.Pts)
		}

		// Function-level cache: the latest entry for this configuration
		// lets clean call-graph components replay their traced sets and
		// skip the elimination sweep (see factcache.Dirty).
		var dirty map[*ir.Func]bool
		var semDigests map[*ir.Func]string
		var priorByName map[string]factcache.FnEntry
		var prior *factcache.Entry
		if cache != nil {
			prior, _ = cache.Latest()
			semDigests = p.semDigests(filter)
			stable := factcache.StableDigest(nil)
			if ip != nil {
				stable = factcache.StableDigest(ip.StableFields())
			}
			// Interprocedural facts couple a function's outcome to its
			// whole call-graph component; without them elimination is
			// strictly per-function, so a change dirties only itself.
			var edges map[*ir.Func][]*ir.Func
			if ip != nil {
				edges = factcache.UndirectedCallGraph(p.Prog, func(in *ir.Instr) []*ir.Func {
					return p.Pts.Callees[in]
				})
			}
			dirty = factcache.Dirty(prior, stable, p.Prog.Funcs, semDigests, edges)
			priorByName = make(map[string]factcache.FnEntry)
			if prior != nil {
				for _, fe := range prior.Fns {
					priorByName[fe.Name] = fe
				}
			}
		}

		perFnInserted := make(map[string]int, len(p.Prog.Funcs))
		for _, fn := range p.Prog.Funcs {
			if dirty != nil && !dirty[fn] {
				fe := priorByName[fn.Name]
				if replay, ok := factcache.ReplayFilter(fn, fe.Traced); ok {
					st := instrument.InsertTraces(fn, replay)
					p.InstrStats.Accesses += st.Accesses
					p.InstrStats.Inserted += fe.Inserted
					p.InstrStats.Eliminated += fe.Eliminated
					perFnInserted[fn.Name] = fe.Inserted
					cache.Stats.FnHits++
					continue
				}
				dirty[fn] = true // stale entry: recompute this function
			}
			st := instrument.InsertTraces(fn, filter)
			p.InstrStats.Accesses += st.Accesses
			p.InstrStats.Inserted += st.Inserted
			perFnInserted[fn.Name] = st.Inserted
			if cache != nil {
				cache.Stats.FnMisses++
			}
		}

		if cfg.Dominators {
			var skip func(*ir.Func) bool
			if dirty != nil {
				skip = func(fn *ir.Func) bool { return !dirty[fn] }
			}
			n, rep := instrument.EliminateProgramWith(p.Prog, ip, skip)
			p.InstrStats.Eliminated += n
			// Clean functions' eliminations are replayed from the prior
			// entry so the report stays complete.
			if prior != nil {
				for _, e := range prior.Elims {
					if fn := p.Prog.FuncByName(e.Fn); fn != nil && !dirty[fn] {
						rep.Elims = append(rep.Elims, e)
					}
				}
				rep.Sort()
			}
			p.ElimReport = rep
			p.StaticStats.ElimIntra, p.StaticStats.ElimPeel, p.StaticStats.ElimInterproc = rep.Counts()
		}

		if cache != nil {
			cache.Store(progDigest, p.cacheEntry(semDigests, perFnInserted, ip))
		}
	}
	p.StaticStats.AnalysisNs = time.Since(analysisStart).Nanoseconds()
	if cache != nil {
		p.CacheStats = cache.Stats
	}
	return p, nil
}

// semDigests computes every function's semantic digest: lowered IR
// content, per-access race-set bits, resolved callees per call site,
// and the thread-root bit (see factcache.SemDigest).
func (p *Pipeline) semDigests(filter instrument.Filter) map[*ir.Func]string {
	roots := make(map[*ir.Func]bool)
	if main := p.Prog.FuncOf[p.Prog.Sem.Main]; main != nil {
		roots[main] = true
	}
	for _, runs := range p.Pts.StartTargets {
		for _, f := range runs {
			roots[f] = true
		}
	}
	out := make(map[*ir.Func]string, len(p.Prog.Funcs))
	for _, fn := range p.Prog.Funcs {
		var bits []bool
		var tiers []uint8
		var callees []string
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.IsAccess() {
					bits = append(bits, filter == nil || filter(in))
					// The discipline tier is a semantic fact of the
					// access (0 = not in the race set, else tier+1), so
					// tier changes invalidate the function's entry like
					// race-set changes do.
					tb := uint8(0)
					if p.Discipline != nil {
						if t, ok := p.Discipline.Tier[in]; ok {
							tb = uint8(t) + 1
						}
					}
					tiers = append(tiers, tb)
				}
				if in.Op == ir.OpCall {
					names := make([]string, 0, len(p.Pts.Callees[in]))
					for _, c := range p.Pts.Callees[in] {
						names = append(names, c.Name)
					}
					callees = append(callees, strings.Join(names, "+"))
				}
			}
		}
		out[fn] = factcache.SemDigest(factcache.FnDigest(fn), bits, tiers, callees, roots[fn])
	}
	return out
}

// cacheEntry serializes the compile outcome for the fact cache.
func (p *Pipeline) cacheEntry(semDigests map[*ir.Func]string, perFnInserted map[string]int,
	ip *instrument.Interproc) *factcache.Entry {
	e := &factcache.Entry{StableDigest: factcache.StableDigest(nil)}
	if ip != nil {
		e.StableDigest = factcache.StableDigest(ip.StableFields())
	}
	elimsByFn := make(map[string]int)
	if p.ElimReport != nil {
		e.Elims = p.ElimReport.Elims
		for _, el := range p.ElimReport.Elims {
			elimsByFn[el.Fn]++
		}
	}
	for _, fn := range p.Prog.Funcs {
		accesses := 0
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.IsAccess() {
					accesses++
				}
			}
		}
		e.Fns = append(e.Fns, factcache.FnEntry{
			Name:       fn.Name,
			Digest:     semDigests[fn],
			Traced:     factcache.TracedSet(fn),
			Accesses:   accesses,
			Inserted:   perFnInserted[fn.Name],
			Eliminated: elimsByFn[fn.Name],
		})
	}
	if p.Static != nil {
		e.HintIndex = p.buildHintIndex()
	}
	e.Discipline = p.disciplineReport
	e.Tiers = p.tierEntries
	if raw, err := json.Marshal(p.StaticStats); err == nil {
		e.StaticStats = raw
	}
	return e
}

// applyCached replays a full program-level cache hit: trace sets,
// static hints, elimination report, and stats, with no analysis run.
// It validates everything before mutating the IR so a stale entry can
// fall back to a cold compile.
func (p *Pipeline) applyCached(e *factcache.Entry) error {
	byName := make(map[string]factcache.FnEntry, len(e.Fns))
	for _, fe := range e.Fns {
		byName[fe.Name] = fe
	}
	filters := make([]instrument.Filter, len(p.Prog.Funcs))
	for i, fn := range p.Prog.Funcs {
		fe, ok := byName[fn.Name]
		if !ok {
			return fmt.Errorf("factcache: no entry for %s", fn.Name)
		}
		if p.Config.Instrument {
			replay, ok := factcache.ReplayFilter(fn, fe.Traced)
			if !ok {
				return fmt.Errorf("factcache: stale trace set for %s", fn.Name)
			}
			filters[i] = replay
		}
	}
	for i, fn := range p.Prog.Funcs {
		fe := byName[fn.Name]
		if p.Config.Instrument {
			st := instrument.InsertTraces(fn, filters[i])
			p.InstrStats.Accesses += st.Accesses
			p.InstrStats.Inserted += fe.Inserted
			p.InstrStats.Eliminated += fe.Eliminated
		}
	}
	if len(e.StaticStats) > 0 {
		if err := json.Unmarshal(e.StaticStats, &p.StaticStats); err != nil {
			return err
		}
	}
	p.ElimReport = &instrument.Report{Elims: e.Elims}
	p.hintIndex = e.HintIndex
	p.disciplineReport = e.Discipline
	p.tierEntries = e.Tiers
	return nil
}

// DisciplineReport returns the rendered lock-discipline pair report
// ("" when static analysis was disabled). It is byte-identical across
// recompiles of the same program, including fact-cache program hits.
func (p *Pipeline) DisciplineReport() string { return p.disciplineReport }

// SitePriors derives the sampler's per-site prior map from the
// discipline tiers: unguarded and guarded-inconsistent sites get
// PriorHigh (pinned armed), guarded-consistent kept sites PriorLow
// (fast demotion). Sites outside the static race set are not
// instrumented and need no prior. The map is memoized and shared
// read-only by every run of the pipeline; nil when static analysis
// was disabled.
func (p *Pipeline) SitePriors() map[sitestate.Key]sitestate.Prior {
	p.priorsOnce.Do(func() {
		if len(p.tierEntries) == 0 {
			return
		}
		m := make(map[sitestate.Key]sitestate.Prior, len(p.tierEntries))
		for _, t := range p.tierEntries {
			kind := event.Read
			if t.Write {
				kind = event.Write
			}
			k := sitestate.Key{File: t.File, Line: t.Line, Col: t.Col, Kind: kind}
			if lockdiscipline.Tier(t.Tier) == lockdiscipline.GuardedConsistent {
				m[k] = sitestate.PriorLow
			} else {
				m[k] = sitestate.PriorHigh
			}
		}
		p.sitePriors = m
	})
	return p.sitePriors
}

// RunResult is one execution's outcome.
type RunResult struct {
	Config Config

	// Reports from the paper's detector (empty for baselines).
	Reports []detector.Report
	// StaticHints is aligned with Reports: for each reported race, the
	// source locations the static analysis identified as potential
	// racing partners of the reported access (§2.6's debugging
	// support). Empty when static analysis is disabled.
	StaticHints [][]string
	// BaselineReports renders baseline detectors' reports as strings.
	BaselineReports []string
	// DeadlockReports lists potential deadlocks (lock-order cycles)
	// when Config.DetectDeadlocks is set.
	DeadlockReports []string
	// ImmutabilityReports lists per-field mutability verdicts when
	// Config.AnalyzeImmutability is set.
	ImmutabilityReports []string
	// RacyObjects is the count Table 3 reports: distinct objects with
	// at least one reported race.
	RacyObjects []event.ObjID

	Interp        interp.Result
	DetectorStats detector.Stats
	TrieNodes     int
	TrieLocations int

	// Schedule is the recorded scheduling decision sequence (nil unless
	// Config.RecordSchedule was set).
	Schedule *interp.ScheduleTrace

	InstrStats  instrument.Stats
	StaticStats StaticStats
	// FactCache reports what the digest-keyed fact cache did for this
	// run's compile (zero value when Config.FactCacheDir is empty).
	// Long-running services aggregate it into their hit-rate metrics.
	FactCache factcache.Stats

	Output   string
	Duration time.Duration
	Err      error // runtime error (deadlock etc.), nil on clean exit
}

// Run executes the compiled program under the configured detector.
func (p *Pipeline) Run() (*RunResult, error) {
	return p.RunConfig(p.Config)
}

// RunConfig executes the compiled program under cfg, which may differ
// from the compile-time Config in runtime-only fields (seed, schedule,
// timeout, detector bounds...). It never mutates the Pipeline, so a
// compiled program can run many schedules concurrently — the fuzzing
// harness compiles once and calls RunConfig from its workers.
func (p *Pipeline) RunConfig(cfg Config) (*RunResult, error) {
	if tr := cfg.ReplaySchedule; tr != nil {
		// Replay fully determines the schedule; neutralize the live
		// scheduler's parameters so nothing else can perturb it.
		cfg.Seed = 0
		cfg.Quantum = tr.Quantum
	}
	if PriorsEnabled(cfg.Priors) && cfg.SitePriors == nil {
		cfg.SitePriors = p.SitePriors()
	}

	ds := newDetectorSinks(cfg)
	sink := ds.sink
	det := ds.det

	var recorder *postmortem.Recorder
	if cfg.RecordTo != nil {
		recorder = postmortem.NewRecorder(cfg.RecordTo)
		// The recorder must observe every event, including the ones
		// the detector's inlined fast path would absorb, so it wraps
		// the sink in a MultiSink (which has no fast path).
		sink = event.MultiSink{recorder, sink}
	}
	var tracer *trace.Writer
	if cfg.TraceTo != nil {
		tracer = trace.NewWriter(cfg.TraceTo)
		// Same fast-path consideration as the recorder: the binary trace
		// must capture the complete stream, so it too rides a MultiSink.
		sink = event.MultiSink{tracer, sink}
	}

	var out strings.Builder
	var w io.Writer = &out
	if cfg.Out != nil {
		w = io.MultiWriter(&out, cfg.Out)
	}
	iopts := interp.Options{
		Sink:           sink,
		Out:            w,
		Quantum:        cfg.Quantum,
		Seed:           cfg.Seed,
		MaxSteps:       cfg.MaxSteps,
		RecordSchedule: cfg.RecordSchedule,
		Replay:         cfg.ReplaySchedule,
		LivelockWindow: cfg.LivelockWindow,
		BatchSize:      cfg.BatchSize,
	}
	if cfg.Timeout > 0 {
		iopts.Deadline = time.Now().Add(cfg.Timeout)
	}
	machine := interp.New(p.Prog, iopts)
	if det != nil {
		det.SetDescribeObj(machine.DescribeObj)
	}

	start := time.Now()
	res, err := machine.Run()
	dur := time.Since(start)
	if recorder != nil {
		if ferr := recorder.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	if tracer != nil {
		// Capture object descriptions from the final heap — the one
		// report ingredient replay cannot re-derive from events — then
		// finalize unconditionally: a run cut short by a runtime error
		// still leaves a valid (partial) trace on disk.
		tracer.SetDescribeObj(machine.DescribeObj)
		if terr := tracer.Finalize(); terr != nil && err == nil {
			err = terr
		}
	}

	rr := &RunResult{
		Config:      cfg,
		Interp:      res,
		InstrStats:  p.InstrStats,
		StaticStats: p.StaticStats,
		FactCache:   p.CacheStats,
		Output:      out.String(),
		Duration:    dur,
		Err:         err,
		Schedule:    machine.Schedule(),
	}
	ds.harvest(rr)
	if ds.det != nil {
		rr.StaticHints = p.staticHints(rr.Reports)
	}
	return rr, nil
}

// detectorSinks bundles one run's detector stack — the configured
// back end plus any auxiliary analyses — so a live run (RunConfig) and
// an offline trace replay (ReplayTrace) construct and harvest exactly
// the same sinks.
type detectorSinks struct {
	sink event.Sink
	det  *detector.Detector
	era  *eraser.Detector
	obr  *objectrace.Detector
	vcl  *vclock.Detector
	dl   *deadlock.Detector
	imm  *immutable.Detector
}

func newDetectorSinks(cfg Config) *detectorSinks {
	ds := &detectorSinks{}
	switch cfg.Detector {
	case DetTrie:
		dopts := detector.Options{
			NoCache:           !cfg.Cache,
			NoOwnership:       !cfg.Ownership,
			FieldsMerged:      cfg.FieldsMerged,
			NoPseudoLocks:     !cfg.PseudoLocks,
			ReportAll:         cfg.ReportAll,
			PackedTrie:        cfg.PackedTrie,
			MaxTrieNodes:      cfg.MaxTrieNodes,
			MaxCacheThreads:   cfg.MaxCacheThreads,
			MaxOwnerLocations: cfg.MaxOwnerLocations,
			SampleK:           cfg.SampleK,
			SampleBudget:      cfg.SampleBudget,
		}
		if PriorsEnabled(cfg.Priors) {
			dopts.Priors = cfg.SitePriors
			dopts.InvertPriors = cfg.Priors == "invert"
		}
		ds.det = detector.New(dopts)
		ds.sink = ds.det
	case DetEraser:
		ds.era = eraser.New()
		ds.sink = ds.era
	case DetObjectRace:
		ds.obr = objectrace.New()
		ds.sink = ds.obr
	case DetVClock:
		ds.vcl = vclock.New()
		ds.sink = ds.vcl
	default:
		ds.sink = event.NullSink{}
	}
	if cfg.DetectDeadlocks {
		ds.dl = deadlock.New()
		ds.sink = event.MultiSink{ds.dl, ds.sink}
	}
	if cfg.AnalyzeImmutability {
		ds.imm = immutable.New()
		ds.sink = event.MultiSink{ds.imm, ds.sink}
	}
	return ds
}

// harvest collects the detector stack's verdicts into rr.
func (ds *detectorSinks) harvest(rr *RunResult) {
	if ds.dl != nil {
		for _, r := range ds.dl.Reports() {
			rr.DeadlockReports = append(rr.DeadlockReports, r.String())
		}
	}
	if ds.imm != nil {
		for _, r := range ds.imm.Reports() {
			rr.ImmutabilityReports = append(rr.ImmutabilityReports, r.String())
		}
	}
	switch {
	case ds.det != nil:
		rr.Reports = ds.det.Reports()
		rr.RacyObjects = ds.det.RacyObjects()
		rr.DetectorStats = ds.det.Stats()
		rr.TrieNodes = ds.det.TrieNodeCount()
		rr.TrieLocations = ds.det.TrieLocationCount()
	case ds.era != nil:
		for _, r := range ds.era.Reports() {
			rr.BaselineReports = append(rr.BaselineReports, r.String())
		}
		rr.RacyObjects = ds.era.RacyObjects()
	case ds.obr != nil:
		for _, r := range ds.obr.Reports() {
			rr.BaselineReports = append(rr.BaselineReports, r.String())
		}
		rr.RacyObjects = ds.obr.RacyObjects()
	case ds.vcl != nil:
		for _, r := range ds.vcl.Reports() {
			rr.BaselineReports = append(rr.BaselineReports, r.String())
		}
		rr.RacyObjects = ds.vcl.RacyObjects()
	}
}

// ReplayTrace streams a recorded binary trace (produced via
// Config.TraceTo) into a fresh detector stack configured by cfg, in
// any ablation, without compiling or interpreting anything. parallel
// bounds the segment-decode workers (<= 0 selects GOMAXPROCS);
// delivery is always in recorded order. The detectors
// reconstruct locksets from the replayed monitor events exactly as
// they do live, so at the recording configuration the verdicts are
// byte-identical to the live run's. A corrupt or truncated trace
// surfaces as a *trace.FormatError.
func ReplayTrace(tr *trace.Reader, cfg Config, parallel int) (*RunResult, error) {
	ds := newDetectorSinks(cfg)
	if ds.det != nil {
		ds.det.SetDescribeObj(tr.DescribeObj)
	}
	start := time.Now()
	stats, err := tr.Replay(ds.sink, parallel)
	if err != nil {
		return nil, err
	}
	rr := &RunResult{
		Config:   cfg,
		Duration: time.Since(start),
	}
	rr.Interp.TraceEvents = stats.Accesses
	ds.harvest(rr)
	return rr, nil
}

// staticHints maps each runtime report to the static may-race
// partners of the reported statement (§2.6): the statements whose
// execution could potentially race with the reported access, usually a
// small set that pinpoints the other side of the bug in the source.
func (p *Pipeline) staticHints(reports []detector.Report) [][]string {
	hints := make([][]string, len(reports))
	// Index the static pairs by each side's source position. The pairs
	// are fixed after Compile, so the index is built once per Pipeline;
	// a cache hit preloads it (applyCached) instead.
	p.hintOnce.Do(func() {
		if p.hintIndex == nil && p.Static != nil {
			p.hintIndex = p.buildHintIndex()
		}
	})
	if p.hintIndex == nil {
		return hints
	}
	for i, r := range reports {
		hints[i] = p.hintIndex[r.Access.Pos.String()]
	}
	return hints
}

// buildHintIndex maps each statically racy source position to its
// may-race partners' positions.
func (p *Pipeline) buildHintIndex() map[string][]string {
	partners := make(map[string][]string)
	add := func(at, other racestatic.AccessSite) {
		key := at.Instr.Pos.String()
		val := fmt.Sprintf("%s (%s)", other.Instr.Pos, other.Fn.Name)
		for _, existing := range partners[key] {
			if existing == val {
				return
			}
		}
		partners[key] = append(partners[key], val)
	}
	for _, pair := range p.Static.Pairs {
		add(pair[0], pair[1])
		add(pair[1], pair[0])
	}
	return partners
}

// RunSource compiles and runs in one step.
func RunSource(file, src string, cfg Config) (*RunResult, error) {
	p, err := Compile(file, src, cfg)
	if err != nil {
		return nil, err
	}
	return p.Run()
}

// ReplayLog performs post-mortem detection: it feeds a recorded event
// log (produced via Config.RecordTo) into a fresh detector stack built
// from cfg exactly as a live run builds it (newDetectorSinks), and
// harvests it the same way. The stack sees exactly the same event
// stream as the on-the-fly run, so at the recording configuration the
// verdicts and counters match (TestReplayLogMatchesLive).
func ReplayLog(r io.Reader, cfg Config) (*RunResult, error) {
	ds := newDetectorSinks(cfg)
	start := time.Now()
	if _, err := postmortem.Replay(r, ds.sink); err != nil {
		return nil, err
	}
	rr := &RunResult{
		Config:   cfg,
		Duration: time.Since(start),
	}
	ds.harvest(rr)
	rr.Interp.TraceEvents = rr.DetectorStats.Accesses
	return rr, nil
}
