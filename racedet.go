// Package racedet is the public API of a from-scratch reproduction of
//
//	Choi, Lee, Loginov, O'Callahan, Sarkar, Sridharan.
//	"Efficient and Precise Datarace Detection for Multithreaded
//	Object-Oriented Programs." PLDI 2002.
//
// The system detects dataraces in programs written in MJ, a small
// multithreaded object-oriented language with Java-style classes,
// synchronized methods and blocks, and Thread start/join. The pipeline
// mirrors Figure 1 of the paper:
//
//  1. static datarace analysis (points-to + interthread call graph +
//     escape analysis) computes the set of statements that may race;
//  2. optimized instrumentation inserts trace pseudo-instructions and
//     removes provably redundant ones with the static weaker-than
//     relation and loop peeling;
//  3. a runtime optimizer (per-thread access caches) filters redundant
//     access events;
//  4. the trie-based runtime detector applies the weaker-than relation
//     and reports at least one racing access per racy location.
//
// Quick start:
//
//	result, err := racedet.Detect("prog.mj", source, racedet.Options{})
//	for _, r := range result.Races {
//	    fmt.Println(r)
//	}
//
// The Options type exposes every configuration of the paper's
// evaluation (Table 2 performance ablations, Table 3 accuracy
// variants, and the baseline detectors of §8.3/§9).
package racedet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"racedet/internal/core"
	"racedet/internal/harness"
	"racedet/internal/interp"
	"racedet/internal/rt/detector"
	"racedet/internal/rt/postmortem"
	"racedet/internal/rt/trace"
)

// Detector selects the runtime race-detection algorithm.
type Detector int

// Detector algorithms.
const (
	// Trie is the paper's detector: ownership filter, per-thread
	// caches, and the trie-based weaker-than algorithm.
	Trie Detector = iota
	// Eraser is the classic lockset baseline (single common lock).
	Eraser
	// ObjectRace is the Praun-Gross object-granularity baseline.
	ObjectRace
	// HappensBefore is a vector-clock detector (Djit/TRaDe style).
	HappensBefore
)

// Options configures detection. The zero value is the paper's full
// configuration with the Trie detector.
type Options struct {
	// Detector selects the runtime algorithm (default Trie).
	Detector Detector

	// DisableStaticAnalysis skips the §5 static datarace analysis, so
	// every heap access is instrumented ("NoStatic").
	DisableStaticAnalysis bool
	// DisableWeakerThan skips the §6.1 compile-time redundant-trace
	// elimination and loop peeling ("NoDominators").
	DisableWeakerThan bool
	// DisablePeeling skips only the §6.3 loop peeling ("NoPeeling").
	DisablePeeling bool
	// DisableInterproc skips the interprocedural strengthenings of the
	// static phase — the flow-sensitive must-held-lockset dataflow and
	// the cross-call weaker-than elimination — leaving exactly the
	// per-function analysis ("NoInterproc").
	DisableInterproc bool
	// DisableCache skips the §4 runtime optimizer ("NoCache").
	DisableCache bool
	// DisableOwnership skips the §7 ownership filter ("NoOwnership").
	DisableOwnership bool
	// DisableJoinPseudoLocks skips the §2.3 join modeling; the
	// detector then behaves like a plain lockset checker across joins.
	DisableJoinPseudoLocks bool
	// MergeFields detects at object granularity ("FieldsMerged").
	MergeFields bool
	// ReportAllAccesses reports every racing access instead of one per
	// memory location.
	ReportAllAccesses bool
	// DetectDeadlocks additionally runs the lock-order-graph
	// potential-deadlock analysis (§10 future work, Goodlock-style).
	DetectDeadlocks bool
	// UsePackedTrie selects the §8.2 multi-location trie (one trie per
	// object with per-field entries) — same reports, smaller history.
	UsePackedTrie bool
	// AnalyzeImmutability additionally classifies every cross-thread
	// field as observed-immutable (written only before publication) or
	// mutable-shared (§10 future work).
	AnalyzeImmutability bool

	// PointsToWorkers > 0 runs the Andersen points-to solver on that
	// many parallel workers; the fixed point is identical to the
	// serial solver's (0 = serial).
	PointsToWorkers int
	// FactCacheDir, when non-empty, persists static-analysis results
	// keyed by content digests under this directory; recompiles of
	// unchanged functions replay them instead of re-analyzing.
	FactCacheDir string

	// Seed perturbs the deterministic scheduler (0 = fixed
	// round-robin quantum). Any seed detects the same lockset races on
	// well-formed programs; sweeping seeds exercises interleavings.
	Seed int64
	// Quantum is the preemption interval in interpreted instructions
	// (default 40).
	Quantum int
	// MaxSteps bounds execution (default 200M instructions).
	MaxSteps uint64
	// Stdout receives the program's print output (nil = captured
	// only in Result.Output).
	Stdout io.Writer
	// RecordTo, when non-nil, streams the runtime event log to this
	// writer for post-mortem analysis (replay with Replay, or
	// reconstruct all racing pairs with FullRace). See §1/§2.6 of the
	// paper.
	RecordTo io.Writer
	// TraceTo, when non-nil, additionally records the run as a compact
	// binary event trace (.mjtrace): delta-encoded, lockset-interned,
	// segment-indexed. Replay it into any detector configuration with
	// ReplayTrace — record once, analyze many. The trace is finalized
	// even when the run fails, so partial traces stay valid.
	TraceTo io.Writer

	// RecordSchedule captures the scheduler's decision sequence in
	// Result.Schedule (mjsched text). Feeding it back through
	// ReplaySchedule reproduces the run — and any race it reported —
	// deterministically.
	RecordSchedule bool
	// ReplaySchedule, when non-empty, replays a recorded schedule
	// trace (mjsched text) instead of scheduling live. Seed and
	// Quantum are taken from the trace.
	ReplaySchedule []byte

	// Timeout bounds the execution's wall-clock time (0 = none); on
	// expiry Detect fails with a *RuntimeError of kind "watchdog".
	Timeout time.Duration
	// LivelockWindow terminates executions that make no heap progress
	// for this many consecutive scheduler slices (0 = disabled),
	// failing with a *RuntimeError of kind "livelock". It catches
	// spinning programs long before the instruction budget would.
	LivelockWindow int

	// MaxTrieNodes, MaxCacheThreads, and MaxOwnerLocations bound the
	// memory of the trie history, the per-thread caches, and the
	// ownership table (0 = unbounded). Over budget the layers degrade
	// gracefully — strictly more reporting, never a silently dropped
	// race — and the degradation is quantified in Stats.
	MaxTrieNodes      int
	MaxCacheThreads   int
	MaxOwnerLocations int

	// BatchSize, when > 0, buffers access events per thread and hands
	// them to the detector in batches of up to this size; event order
	// and reports are unchanged.
	BatchSize int

	// SampleK > 0 enables adaptive per-site throttling: a static
	// access site that produces SampleK consecutive clean observations
	// demotes to a counting-only stub, and is re-armed the moment the
	// ownership table reports new-thread contact on a location the
	// site touched. Stub suppression is per-location and write-aware:
	// only traffic that provably cannot complete a race pair — against
	// either concurrently suppressed accesses or the trie's shipped
	// history — is dropped, plus all traffic on locations whose
	// shipped history already guarantees a race report. Stable
	// (recurring) races are therefore still reported; the residual
	// blind spot is a race whose only occurrence is a single access
	// at an already-demoted site.
	// Requires the ownership filter (ignored with DisableOwnership).
	// Sampling lives in the detector's filter, never the recorder:
	// traces recorded with TraceTo capture the full stream, and replay
	// with sampling on matches a live sampled run.
	SampleK int
	// SampleBudget, in (0, 1], targets a shipped-events ratio: the
	// throttle halves or doubles K per 4096-event window to keep
	// shipped/observed near the budget. Setting SampleBudget alone
	// implies SampleK = 16 as the starting point.
	SampleBudget float64
	// Priors seeds the sampler with the static lock-discipline tiers:
	// "on" pins statically unguarded and guarded-inconsistent sites
	// armed and demotes guarded-consistent sites at a quarter of K;
	// "invert" swaps the two (the ablation mode); "" or "off" ignores
	// the tiers. Requires sampling (SampleK/SampleBudget) and static
	// analysis; meaningless for trace replay, which has no compiled
	// pipeline to take tiers from.
	Priors string
}

func (o Options) config() core.Config {
	cfg := core.Full()
	cfg.Static = !o.DisableStaticAnalysis
	if o.DisableWeakerThan {
		cfg = cfg.NoDominators()
	}
	if o.DisablePeeling {
		cfg = cfg.NoPeeling()
	}
	cfg.Interproc = !o.DisableInterproc
	cfg.PtsWorkers = o.PointsToWorkers
	cfg.FactCacheDir = o.FactCacheDir
	cfg.Cache = !o.DisableCache
	cfg.Ownership = !o.DisableOwnership
	cfg.PseudoLocks = !o.DisableJoinPseudoLocks
	cfg.FieldsMerged = o.MergeFields
	cfg.ReportAll = o.ReportAllAccesses
	cfg.DetectDeadlocks = o.DetectDeadlocks
	cfg.PackedTrie = o.UsePackedTrie
	cfg.AnalyzeImmutability = o.AnalyzeImmutability
	cfg.Seed = o.Seed
	cfg.Quantum = o.Quantum
	cfg.MaxSteps = o.MaxSteps
	cfg.Out = o.Stdout
	cfg.RecordTo = o.RecordTo
	cfg.TraceTo = o.TraceTo
	cfg.RecordSchedule = o.RecordSchedule
	cfg.Timeout = o.Timeout
	cfg.LivelockWindow = o.LivelockWindow
	cfg.MaxTrieNodes = o.MaxTrieNodes
	cfg.MaxCacheThreads = o.MaxCacheThreads
	cfg.MaxOwnerLocations = o.MaxOwnerLocations
	cfg.BatchSize = o.BatchSize
	cfg.SampleK = o.SampleK
	cfg.SampleBudget = o.SampleBudget
	cfg.Priors = o.Priors
	switch o.Detector {
	case Eraser:
		cfg.Detector = core.DetEraser
	case ObjectRace:
		cfg.Detector = core.DetObjectRace
	case HappensBefore:
		cfg.Detector = core.DetVClock
	default:
		cfg.Detector = core.DetTrie
	}
	return cfg
}

// Race is one reported datarace.
type Race struct {
	// Field is the raced location's name: "Class.field" or "[]" for
	// array elements.
	Field string
	// Object describes the object owning the location, including its
	// allocation site.
	Object string
	// Pos is the source location of the reported access.
	Pos string
	// Thread executed the reported access; PriorThread is what is
	// known about the earlier conflicting access ("t⊥" when only "at
	// least two threads" is known, §3.1).
	Thread      string
	PriorThread string
	// Kind and PriorKind are READ or WRITE.
	Kind      string
	PriorKind string
	// Locks and PriorLocks are the locksets of the two accesses.
	Locks      string
	PriorLocks string
	// StaticPartners lists the source locations the static analysis
	// identified as potential racing partners of this access (§2.6's
	// debugging support); empty when static analysis was disabled.
	StaticPartners []string
}

func (r Race) String() string {
	return fmt.Sprintf("datarace on %s of %s: %s by %s holding %s at %s; earlier %s by %s holding %s",
		r.Field, r.Object, r.Kind, r.Thread, r.Locks, r.Pos, r.PriorKind, r.PriorThread, r.PriorLocks)
}

// Stats summarizes the work each pipeline stage performed.
type Stats struct {
	// Static analysis.
	AccessSites       int // heap-access statements in the program
	StaticRaceSet     int // statements that may race (instrumented)
	ThreadLocalPruned int // accesses discarded by escape analysis

	// Instrumentation.
	TracesInserted   int
	TracesEliminated int // removed by the static weaker-than relation
	LoopsPeeled      int

	// Runtime.
	Instructions uint64 // interpreted instructions
	TraceEvents  uint64 // executed trace instructions
	CacheHits    uint64
	OwnerSkips   uint64 // events absorbed by the ownership filter
	TrieEvents   uint64 // events reaching the trie detector
	TrieNodes    int    // history size at exit
	Threads      int

	// Degradation counters of the bounded-memory modes (all zero when
	// no Max* bound was set or none was hit). Non-zero values mean the
	// run may over-report races, never under-report.
	TrieCollapses        uint64 // per-location histories discarded
	CacheThreadEvictions uint64 // whole per-thread caches discarded
	OwnerOverflows       uint64 // accesses forwarded as born-shared

	// Adaptive-sampling counters (all zero unless Options.SampleK or
	// Options.SampleBudget enabled throttling). The filter stages
	// account for every observed event exactly once:
	//
	//	TraceEvents == EventsShipped + CacheHits + OwnerSkips + EventsSuppressed
	//
	// EventsShipped counts events that reached the trie detector;
	// EventsSuppressed counts events absorbed by demoted sites.
	EventsShipped    uint64
	EventsSuppressed uint64
	// SitesSampled is the number of distinct static access sites seen;
	// SitesDemoted / SitesRearmed count demotion and re-arm
	// transitions (a site may cycle several times). SampleK is the
	// throttle's K at exit (adaptive runs move it within [2, 1024]).
	SitesSampled int
	SitesDemoted uint64
	SitesRearmed uint64
	SampleK      int
	// PriorHighSites / PriorLowSites count sites carrying a high
	// (pinned armed) resp. low (fast-demoting) static discipline
	// prior; PriorFastDemotions counts demotions that fired at the
	// reduced low-prior threshold. All zero unless Options.Priors
	// enabled prior seeding.
	PriorHighSites     int
	PriorLowSites      int
	PriorFastDemotions uint64

	// Fact-cache outcome of this run's compile (all zero when
	// Options.FactCacheDir was empty). FactCacheProgramHit means the
	// whole static phase was replayed; otherwise FactCacheFnHits /
	// FactCacheFnMisses count per-function replays vs re-analyses.
	FactCacheProgramHit bool
	FactCacheFnHits     int
	FactCacheFnMisses   int
	// FactCacheWriteErrors counts cache stores that failed (full disk,
	// unwritable dir) and degraded the cache to a no-op — the analysis
	// itself is unaffected.
	FactCacheWriteErrors int
}

// Result is the outcome of Detect.
type Result struct {
	// Races lists the reported dataraces (deduplicated per memory
	// location unless Options.ReportAllAccesses).
	Races []Race
	// RacyObjects is the number of distinct objects named in Races —
	// the quantity Table 3 of the paper counts.
	RacyObjects int
	// BaselineReports carries the textual reports when a baseline
	// detector ran instead of the paper's.
	BaselineReports []string
	// PotentialDeadlocks lists lock-order cycles found when
	// Options.DetectDeadlocks is set.
	PotentialDeadlocks []string
	// Immutability lists per-field mutability verdicts when
	// Options.AnalyzeImmutability is set.
	Immutability []string
	// Output is the program's print output.
	Output string
	// Schedule is the recorded scheduling decision sequence in mjsched
	// text (empty unless Options.RecordSchedule); feed it back via
	// Options.ReplaySchedule to reproduce the run.
	Schedule []byte
	// Stats exposes per-stage work counters.
	Stats Stats
	// Duration is the wall-clock execution time.
	Duration time.Duration
}

// RuntimeError describes a failed execution: a deadlock, a wall-clock
// watchdog expiry, a livelock, an exhausted step budget, an
// interpreter panic, a schedule-replay divergence, or a program fault.
// Retrieve it with errors.As; ThreadDump is a postmortem of every
// thread's state at failure.
type RuntimeError struct {
	// Kind is one of "deadlock", "watchdog", "livelock", "step-budget",
	// "panic", "schedule-divergence", "fault".
	Kind string
	// Thread is the thread the failure is attributed to (may be empty).
	Thread string
	// Msg is the failure description.
	Msg string
	// ThreadDump lists every thread's state ("T1 blocked on obj#3...").
	ThreadDump string

	err error
}

func (e *RuntimeError) Error() string { return e.err.Error() }

// Unwrap exposes the underlying error for errors.Is/As chains.
func (e *RuntimeError) Unwrap() error { return e.err }

// wrapRuntime converts interpreter errors to the public RuntimeError.
func wrapRuntime(err error) error {
	var re *interp.RuntimeError
	if errors.As(err, &re) {
		return &RuntimeError{
			Kind:       re.Kind.String(),
			Thread:     re.Thread.String(),
			Msg:        re.Msg,
			ThreadDump: re.Dump,
			err:        err,
		}
	}
	return err
}

// Detect compiles and runs the MJ program in src (file is used in
// diagnostics) and reports the dataraces observed in its execution.
// A non-nil error means the program failed to compile or crashed at
// runtime (races found do not make Detect fail); execution failures
// carry a *RuntimeError retrievable with errors.As.
//
// When the failure is a *RuntimeError — the program executed but was
// cut short by a deadlock, watchdog, livelock, step budget, or panic —
// the returned Result is non-nil and carries everything detected up to
// the failure point: an aborted analysis still reports the races it
// saw. Any other error returns a nil Result.
func Detect(file, src string, opts Options) (*Result, error) {
	cfg := opts.config()
	if len(opts.ReplaySchedule) > 0 {
		tr, err := interp.DecodeSchedule(bytes.NewReader(opts.ReplaySchedule))
		if err != nil {
			return nil, err
		}
		cfg.ReplaySchedule = tr
	}
	res, err := core.RunSource(file, src, cfg)
	if err != nil {
		return nil, err
	}
	if res.Err != nil {
		// Partial results survive the failure: the detector has already
		// finalized, so the reports below are exactly the races observed
		// before the run was cut short.
		return convert(res), wrapRuntime(res.Err)
	}
	return convert(res), nil
}

// Compiled is a compiled MJ program that can be executed repeatedly
// (e.g. with different seeds) without re-running the static phases.
type Compiled struct {
	pipe *core.Pipeline
}

// Compile runs the static phases only (parse, typecheck, analysis,
// instrumentation).
func Compile(file, src string, opts Options) (*Compiled, error) {
	pipe, err := core.Compile(file, src, opts.config())
	if err != nil {
		return nil, err
	}
	return &Compiled{pipe: pipe}, nil
}

// StaticReport renders the per-access-site keep/kill decisions of the
// static phase (the racedet -explain-static report): for each heap
// access, which §5 condition killed its instrumentation, or which §6
// weaker-than elimination removed its trace.
func (c *Compiled) StaticReport() string {
	return c.pipe.FactsReport()
}

// DisciplineReport renders the severity-ranked lock-discipline pair
// report (racedet -static-report): every surviving may-race pair
// graded unguarded / guarded-inconsistent / start-ordered, with the
// must-held locks of each side, plus per-tier site counts. Byte-stable
// across recompiles, including fact-cache hits. Empty when static
// analysis was disabled.
func (c *Compiled) DisciplineReport() string {
	return c.pipe.DisciplineReport()
}

// UnguardedPairs is the number of live (non-demoted) statically
// unguarded may-race pairs — the racedet -static-only exit criterion.
func (c *Compiled) UnguardedPairs() int {
	return c.pipe.StaticStats.TierUnguardedPairs
}

// Run executes the compiled program once.
func (c *Compiled) Run() (*Result, error) {
	res, err := c.pipe.Run()
	if err != nil {
		return nil, err
	}
	if res.Err != nil {
		return nil, wrapRuntime(res.Err)
	}
	return convert(res), nil
}

// RunSeed executes the compiled program under a different scheduler
// seed.
func (c *Compiled) RunSeed(seed int64) (*Result, error) {
	saved := c.pipe.Config.Seed
	c.pipe.Config.Seed = seed
	defer func() { c.pipe.Config.Seed = saved }()
	return c.Run()
}

// Replay performs post-mortem detection on an event log previously
// recorded via Options.RecordTo: the detector configured by opts sees
// exactly the event stream of the original run, so its reports match
// the on-the-fly ones (§1).
func Replay(r io.Reader, opts Options) (*Result, error) {
	res, err := core.ReplayLog(r, opts.config())
	if err != nil {
		return nil, err
	}
	return convert(res), nil
}

// ReplayTrace performs offline detection on a binary event trace
// previously recorded via Options.TraceTo: the detector stack
// configured by opts (any ablation) sees exactly
// the event stream of the original run without re-executing the
// program, so at the recording configuration the verdicts are
// byte-identical to the live run's. parallel bounds the trace's
// segment-decode workers (<= 0 selects GOMAXPROCS); event delivery is
// always in recorded order. A corrupt or truncated trace fails with a
// *trace.FormatError.
func ReplayTrace(path string, opts Options, parallel int) (*Result, error) {
	tr, err := trace.OpenFile(path)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	return replayTrace(tr, opts, parallel)
}

// ReplayTraceData is ReplayTrace over an in-memory trace, for callers
// that receive traces over the wire (racedetd trace jobs).
func ReplayTraceData(data []byte, opts Options, parallel int) (*Result, error) {
	tr, err := trace.NewReader(data)
	if err != nil {
		return nil, err
	}
	return replayTrace(tr, opts, parallel)
}

func replayTrace(tr *trace.Reader, opts Options, parallel int) (*Result, error) {
	res, err := core.ReplayTrace(tr, opts.config(), parallel)
	if err != nil {
		return nil, err
	}
	if res.Err != nil {
		return nil, wrapRuntime(res.Err)
	}
	return convert(res), nil
}

// RacePair renders one element of FullRace: two accesses of the
// recorded execution that satisfy the IsRace predicate.
type RacePair struct {
	First  string
	Second string
}

// FullRace reconstructs every racing access pair from a recorded event
// log — the O(N²) analysis the on-the-fly detector deliberately
// summarizes to one report per memory location (§2.5, §2.6). maxPairs
// bounds the output (0 = unlimited).
func FullRace(r io.Reader, maxPairs int) ([]RacePair, error) {
	pairs, err := postmortem.FullRace(r, maxPairs)
	if err != nil {
		return nil, err
	}
	out := make([]RacePair, len(pairs))
	for i, p := range pairs {
		out[i] = RacePair{First: p.First.String(), Second: p.Second.String()}
	}
	return out, nil
}

func convert(res *core.RunResult) *Result {
	out := &Result{
		RacyObjects:        len(res.RacyObjects),
		BaselineReports:    res.BaselineReports,
		PotentialDeadlocks: res.DeadlockReports,
		Immutability:       res.ImmutabilityReports,
		Output:             res.Output,
		Duration:           res.Duration,
		Stats: Stats{
			AccessSites:          res.StaticStats.AccessSites,
			StaticRaceSet:        res.StaticStats.RaceSetSize,
			ThreadLocalPruned:    res.StaticStats.ThreadLocalPruned,
			TracesInserted:       res.InstrStats.Inserted,
			TracesEliminated:     res.InstrStats.Eliminated,
			LoopsPeeled:          res.InstrStats.LoopsPeeled,
			Instructions:         res.Interp.Steps,
			TraceEvents:          res.Interp.TraceEvents,
			CacheHits:            res.DetectorStats.CacheHits,
			OwnerSkips:           res.DetectorStats.OwnerSkips,
			TrieEvents:           res.DetectorStats.Trie.Events,
			TrieNodes:            res.TrieNodes,
			Threads:              res.Interp.ThreadsUsed,
			TrieCollapses:        res.DetectorStats.Trie.Collapses,
			CacheThreadEvictions: res.DetectorStats.Cache.ThreadEvictions,
			OwnerOverflows:       res.DetectorStats.OwnerOverflows,
			EventsShipped:        res.DetectorStats.Shipped,
			EventsSuppressed:     res.DetectorStats.Sample.Suppressed,
			SitesSampled:         res.DetectorStats.Sample.Sites,
			SitesDemoted:         res.DetectorStats.Sample.Demotions,
			SitesRearmed:         res.DetectorStats.Sample.Rearms,
			SampleK:              res.DetectorStats.Sample.CurrentK,
			PriorHighSites:       res.DetectorStats.Sample.PriorHighSites,
			PriorLowSites:        res.DetectorStats.Sample.PriorLowSites,
			PriorFastDemotions:   res.DetectorStats.Sample.PriorFastDemotions,
			FactCacheProgramHit:  res.FactCache.ProgramHit,
			FactCacheFnHits:      res.FactCache.FnHits,
			FactCacheFnMisses:    res.FactCache.FnMisses,
			FactCacheWriteErrors: res.FactCache.WriteErrors,
		},
	}
	if res.Schedule != nil {
		out.Schedule = []byte(res.Schedule.String())
	}
	for i, r := range res.Reports {
		race := raceFromReport(r)
		if i < len(res.StaticHints) {
			race.StaticPartners = res.StaticHints[i]
		}
		out.Races = append(out.Races, race)
	}
	return out
}

func raceFromReport(r detector.Report) Race {
	return Race{
		Field:       r.Access.FieldName,
		Object:      r.ObjDesc,
		Pos:         r.Access.Pos.String(),
		Thread:      r.Access.Thread.String(),
		PriorThread: r.PriorThread.String(),
		Kind:        r.Access.Kind.String(),
		PriorKind:   r.PriorKind.String(),
		Locks:       r.Access.Locks.String(),
		PriorLocks:  r.PriorLocks.String(),
	}
}

// FuzzOptions configures schedule-fuzzing via Fuzz.
type FuzzOptions struct {
	// Options configures each individual run (detector, pipeline
	// ablations, quantum, timeout, livelock window, memory bounds).
	// Seed, Stdout, RecordTo, and the schedule fields are ignored: the
	// harness owns the seed sweep and records every schedule itself.
	Options Options

	// Seeds lists the scheduler seeds to explore; when nil, seeds
	// 0..Count-1 are used (Count defaulting to 8). Seed 0 is the fixed
	// round-robin schedule, so default sweeps always include the
	// deterministic baseline.
	Seeds []int64
	Count int

	// Workers bounds parallelism (default: one per CPU). Results are
	// independent of worker count.
	Workers int
}

// SeedOutcome is one seed's execution outcome within a fuzz sweep.
type SeedOutcome struct {
	Seed     int64
	Races    int
	Output   string
	Duration time.Duration
	// Err is the run's terminal error (carrying a *RuntimeError for
	// execution failures), nil for a clean exit.
	Err error
}

// FuzzFinding is one distinct race aggregated across a fuzz sweep,
// keyed by the raced field.
type FuzzFinding struct {
	// Race is the canonical witness report, taken from the smallest
	// exposing seed.
	Race Race
	// Seeds lists every seed whose run exposed the race, ascending.
	Seeds []int64
	// MinSeed is the smallest exposing seed.
	MinSeed int64
	// Stable reports whether every completed schedule exposed the
	// race; false marks a schedule-dependent race that a single fixed
	// schedule could miss.
	Stable bool
	// Schedule is the witness schedule trace in mjsched text; running
	// Detect with Options.ReplaySchedule set to it reproduces the race
	// deterministically.
	Schedule []byte
}

// FuzzResult aggregates a fuzz sweep.
type FuzzResult struct {
	// Findings is the union of races over all runs: stable findings
	// first, then by ascending MinSeed.
	Findings []FuzzFinding
	// Outcomes has one entry per seed, in sweep order.
	Outcomes []SeedOutcome
	// Completed counts runs that terminated without a runtime error;
	// Failed counts the rest.
	Completed int
	Failed    int
}

// Stable returns the findings every completed schedule exposed.
func (r *FuzzResult) Stable() []FuzzFinding { return r.filter(true) }

// ScheduleDependent returns the findings at least one completed
// schedule missed.
func (r *FuzzResult) ScheduleDependent() []FuzzFinding { return r.filter(false) }

func (r *FuzzResult) filter(stable bool) []FuzzFinding {
	var out []FuzzFinding
	for _, f := range r.Findings {
		if f.Stable == stable {
			out = append(out, f)
		}
	}
	return out
}

// Fuzz compiles the program once and executes it under many scheduler
// seeds in parallel, unioning the reported dataraces and classifying
// each as stable (reported on every schedule) or schedule-dependent
// (reported only on some — the races a single fixed schedule misses).
// Every finding carries a witness schedule trace that reproduces it
// deterministically via Options.ReplaySchedule.
//
// Individual run failures (deadlock, watchdog, livelock, interpreter
// panic) are recorded per seed in Outcomes and do not abort the sweep;
// Fuzz itself only fails on compile errors or harness misuse.
func Fuzz(file, src string, opts FuzzOptions) (*FuzzResult, error) {
	base := opts.Options
	base.Stdout = nil
	base.RecordTo = nil
	base.ReplaySchedule = nil
	sum, err := harness.ExploreSource(file, src, harness.Options{
		Config:         base.config(),
		Seeds:          opts.Seeds,
		Count:          opts.Count,
		Workers:        opts.Workers,
		Timeout:        base.Timeout,
		LivelockWindow: base.LivelockWindow,
	})
	if err != nil {
		return nil, err
	}
	out := &FuzzResult{Completed: sum.Completed, Failed: sum.Failed}
	for _, f := range sum.Findings {
		ff := FuzzFinding{
			Race:    raceFromReport(f.Report),
			Seeds:   f.Seeds,
			MinSeed: f.MinSeed,
			Stable:  f.Stable,
		}
		if f.Trace != nil {
			ff.Schedule = []byte(f.Trace.String())
		}
		out.Findings = append(out.Findings, ff)
	}
	for _, oc := range sum.Outcomes {
		out.Outcomes = append(out.Outcomes, SeedOutcome{
			Seed:     oc.Seed,
			Races:    oc.Races,
			Output:   oc.Output,
			Duration: oc.Duration,
			Err:      wrapErrNonNil(oc.Err),
		})
	}
	return out, nil
}

func wrapErrNonNil(err error) error {
	if err == nil {
		return nil
	}
	return wrapRuntime(err)
}
