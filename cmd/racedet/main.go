// Command racedet detects dataraces in an MJ program.
//
// Usage:
//
//	racedet [flags] program.mj
//
// The default configuration is the paper's full pipeline: static
// datarace analysis, optimized instrumentation with the static
// weaker-than relation and loop peeling, the runtime access cache, the
// ownership model, and the trie-based detector. Flags disable
// individual phases (matching the paper's Table 2/3 ablations) or
// switch to a baseline detector.
//
// Schedule fuzzing (-fuzz N) runs the program under N scheduler seeds
// in parallel, unions the races, and classifies each as stable or
// schedule-dependent; -trace-dir saves each finding's witness schedule,
// and -replay-schedule re-executes one deterministically.
//
// Record once, analyze many: -record run.mjtrace captures the run as a
// compact binary event trace (a .mjtrace extension selects the binary
// format; any other extension keeps the text event log). The trace
// replays offline into any detector configuration without re-executing
// the program: -replay-trace run.mjtrace honors the usual ablation
// flags (-nocache, -batch, ...), and -ablate "Full,NoCache,Eraser"
// sweeps several named configurations over one trace in a single
// process. -replay-workers bounds the parallel
// segment decoders.
//
// Exit codes:
//
//	0  no dataraces detected
//	1  dataraces reported
//	2  the program's execution failed (deadlock, watchdog, livelock,
//	   step budget, interpreter panic)
//	3  internal failure: usage, compile, or I/O error
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"racedet"
	"racedet/internal/profiling"
)

// Exit codes.
const (
	exitClean    = 0
	exitRaces    = 1
	exitRuntime  = 2
	exitInternal = 3
)

func main() {
	var (
		detName         = flag.String("detector", "trie", "runtime detector: trie, eraser, objectrace, hb")
		noStatic        = flag.Bool("nostatic", false, "disable static datarace analysis (instrument everything)")
		noDom           = flag.Bool("nodominators", false, "disable static weaker-than elimination and loop peeling")
		noPeel          = flag.Bool("nopeeling", false, "disable loop peeling only")
		noInterproc     = flag.Bool("nointerproc", false, "disable the interprocedural static strengthenings (must-lock dataflow, cross-call elimination)")
		noCache         = flag.Bool("nocache", false, "disable the runtime access cache")
		noOwner         = flag.Bool("noownership", false, "disable the ownership model")
		noPseudo        = flag.Bool("nopseudolocks", false, "disable join pseudolocks")
		merged          = flag.Bool("fieldsmerged", false, "detect at object granularity")
		reportAll       = flag.Bool("all", false, "report every racing access, not one per location")
		seed            = flag.Int64("seed", 0, "scheduler seed (0 = fixed round-robin)")
		quantum         = flag.Int("quantum", 0, "scheduler preemption quantum in instructions")
		maxSteps        = flag.Uint64("maxsteps", 0, "instruction budget (0 = default 200M)")
		quiet           = flag.Bool("q", false, "suppress program output")
		showStats       = flag.Bool("stats", false, "print pipeline statistics")
		recordPath      = flag.String("record", "", "write the event log to this file for post-mortem analysis (.mjtrace extension selects the compact binary trace)")
		replayPath      = flag.String("replay", "", "post-mortem: replay a recorded event log instead of running a program")
		replayTracePath = flag.String("replay-trace", "", "offline detection: replay a recorded binary trace (.mjtrace) through the configured detector instead of running a program")
		ablateList      = flag.String("ablate", "", `with -replay-trace: comma-separated named configurations to sweep over the trace in one process, e.g. "Full,NoCache,Eraser"`)
		replayWorkers   = flag.Int("replay-workers", 0, "with -replay-trace: parallel trace-segment decoders (0 = one per CPU)")
		fullRace        = flag.Bool("fullrace", false, "with -replay: reconstruct every racing access pair (O(N^2))")
		deadlocks       = flag.Bool("deadlock", false, "also run the lock-order potential-deadlock analysis")
		immut           = flag.Bool("immutability", false, "also classify shared fields as observed-immutable or mutable")

		fuzzN      = flag.Int("fuzz", 0, "explore N scheduler seeds and classify races as stable or schedule-dependent")
		workers    = flag.Int("workers", 0, "parallel workers for -fuzz (0 = one per CPU)")
		timeout    = flag.Duration("timeout", 0, "per-run wall-clock watchdog (0 = none; -fuzz defaults to 30s)")
		livelock   = flag.Int("livelock", 0, "terminate after N scheduler slices without progress (0 = off; -fuzz defaults to 100000)")
		schedOut   = flag.String("schedule-out", "", "write the run's schedule trace to this file (mjsched text)")
		schedIn    = flag.String("replay-schedule", "", "replay a recorded schedule trace (deterministic reproduction)")
		traceDir   = flag.String("trace-dir", "", "with -fuzz: write each finding's witness schedule trace into this directory")
		maxTrie    = flag.Int("max-trie-nodes", 0, "bound trie memory: collapse per-location history over this many nodes (0 = unbounded; may over-report)")
		maxCacheT  = flag.Int("max-cache-threads", 0, "bound cache memory: keep at most N per-thread caches, evicting LRU (0 = unbounded)")
		maxOwner   = flag.Int("max-owner-locations", 0, "bound ownership memory: locations past N are born shared (0 = unbounded; may over-report)")
		batchSize  = flag.Int("batch", 0, "buffer up to N access events per thread before calling the detector (0 = unbatched)")
		sampleK    = flag.Int("sample-k", 0, "adaptive throttling: demote an access site after K consecutive clean observations (0 = off; see docs/performance.md)")
		sampleBud  = flag.Float64("sample-budget", 0, "adaptive throttling: target shipped-events ratio in (0,1]; the throttle adapts K per window (implies -sample-k 16 when set alone)")
		priorsMode = flag.String("priors", "", `seed sampling with static lock-discipline priors: "on" pins unguarded/guarded-inconsistent sites armed and demotes guarded-consistent sites early, "invert" swaps the two (ablation), "off"/"" ignores the tiers; requires -sample-k/-sample-budget`)
		factCache  = flag.String("factcache", "", "persist static-analysis results under this directory and reuse them for unchanged functions")
		ptsWorkers = flag.Int("pts-workers", 0, "parallel workers for the points-to solver (0 = serial; the result is identical)")
		explain    = flag.Bool("explain-static", false, "print the per-access-site keep/kill report of the static phase and exit")
		staticRep  = flag.Bool("static-report", false, "print the severity-ranked lock-discipline race report of the static phase and exit")
		staticOnly = flag.Bool("static-only", false, "static-only detection: print the lock-discipline report, exit 1 when statically unguarded pairs exist, 0 otherwise")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	// A bad flag is a usage error (exit 3), not an execution failure
	// (exit 2, the flag package's ExitOnError default).
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(exitClean)
		}
		os.Exit(exitInternal)
	}
	// Validate flag values that parse fine but make no sense. Only
	// explicitly-passed flags are checked (flag.Visit), so the zero
	// defaults — which mean "unbatched" / "off" — stay legal.
	var flagErr error
	flag.Visit(func(f *flag.Flag) {
		if flagErr != nil {
			return
		}
		switch f.Name {
		case "batch":
			if *batchSize <= 0 {
				flagErr = fmt.Errorf("-batch must be >= 1 (got %d); omit the flag for unbatched delivery", *batchSize)
			}
		case "replay-workers":
			if *replayWorkers <= 0 {
				flagErr = fmt.Errorf("-replay-workers must be >= 1 (got %d); omit the flag for one per CPU", *replayWorkers)
			}
		case "sample-k":
			if *sampleK < 1 {
				flagErr = fmt.Errorf("-sample-k must be >= 1 (got %d); omit the flag to disable throttling", *sampleK)
			}
		case "sample-budget":
			if *sampleBud <= 0 || *sampleBud > 1 {
				flagErr = fmt.Errorf("-sample-budget must be in (0, 1] (got %g); omit the flag to disable the adaptive controller", *sampleBud)
			}
		case "priors":
			switch *priorsMode {
			case "on", "off", "invert", "":
			default:
				flagErr = fmt.Errorf(`-priors must be "on", "off", or "invert" (got %q)`, *priorsMode)
			}
		}
	})
	samplingOn := *sampleK > 0 || *sampleBud > 0
	if flagErr == nil && samplingOn && *noOwner {
		flagErr = fmt.Errorf("-sample-k/-sample-budget require the ownership filter; drop -noownership")
	}
	priorsOn := *priorsMode == "on" || *priorsMode == "invert"
	if flagErr == nil && priorsOn {
		switch {
		case !samplingOn:
			flagErr = fmt.Errorf("-priors %s seeds the sampler and needs -sample-k or -sample-budget", *priorsMode)
		case *noStatic:
			flagErr = fmt.Errorf("-priors come from the static lock-discipline tiers; drop -nostatic")
		case *replayTracePath != "":
			flagErr = fmt.Errorf("-priors need a compiled program to take tiers from and cannot be combined with -replay-trace")
		}
	}
	if flagErr == nil && (*staticRep || *staticOnly) {
		switch {
		case *noStatic:
			flagErr = fmt.Errorf("-static-report/-static-only run the static phase; drop -nostatic")
		case *replayTracePath != "" || *replayPath != "":
			flagErr = fmt.Errorf("-static-report/-static-only analyze a program, not a recorded trace")
		case *fuzzN > 0:
			flagErr = fmt.Errorf("-static-report/-static-only are purely static and cannot be combined with -fuzz")
		}
	}
	if flagErr == nil && *replayTracePath != "" {
		switch {
		case *recordPath != "":
			flagErr = fmt.Errorf("-record and -replay-trace are mutually exclusive: a replay consumes a trace, it does not produce one")
		case *replayPath != "":
			flagErr = fmt.Errorf("-replay and -replay-trace are mutually exclusive: pick the text event log or the binary trace")
		case *fuzzN > 0:
			flagErr = fmt.Errorf("-fuzz explores live schedules and cannot be combined with -replay-trace")
		case *fullRace:
			flagErr = fmt.Errorf("-fullrace works on text event logs (-replay), not binary traces")
		}
	}
	if flagErr == nil && *ablateList != "" && *replayTracePath == "" {
		flagErr = fmt.Errorf("-ablate requires -replay-trace")
	}
	if flagErr == nil && *ablateList != "" && samplingOn {
		flagErr = fmt.Errorf("-ablate sweeps named configurations and cannot be combined with -sample-k/-sample-budget; replay the trace with the sampling flags and no -ablate instead")
	}
	if flagErr != nil {
		fmt.Fprintln(os.Stderr, "racedet:", flagErr)
		os.Exit(exitInternal)
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	exit := func(code int) {
		stopProfiles()
		os.Exit(code)
	}

	opts := racedet.Options{
		DisableStaticAnalysis:  *noStatic,
		DisableWeakerThan:      *noDom,
		DisablePeeling:         *noPeel,
		DisableInterproc:       *noInterproc,
		PointsToWorkers:        *ptsWorkers,
		FactCacheDir:           *factCache,
		DisableCache:           *noCache,
		DisableOwnership:       *noOwner,
		DisableJoinPseudoLocks: *noPseudo,
		MergeFields:            *merged,
		ReportAllAccesses:      *reportAll,
		DetectDeadlocks:        *deadlocks,
		AnalyzeImmutability:    *immut,
		Seed:                   *seed,
		Quantum:                *quantum,
		MaxSteps:               *maxSteps,
		Timeout:                *timeout,
		LivelockWindow:         *livelock,
		MaxTrieNodes:           *maxTrie,
		MaxCacheThreads:        *maxCacheT,
		MaxOwnerLocations:      *maxOwner,
		BatchSize:              *batchSize,
		SampleK:                *sampleK,
		SampleBudget:           *sampleBud,
		Priors:                 *priorsMode,
	}
	switch *detName {
	case "trie":
		opts.Detector = racedet.Trie
	case "eraser":
		opts.Detector = racedet.Eraser
	case "objectrace":
		opts.Detector = racedet.ObjectRace
	case "hb", "vclock":
		opts.Detector = racedet.HappensBefore
	default:
		fmt.Fprintf(os.Stderr, "racedet: unknown detector %q\n", *detName)
		os.Exit(exitInternal)
	}

	if *replayPath != "" {
		exit(replay(*replayPath, *fullRace))
	}
	if *replayTracePath != "" {
		exit(replayTrace(*replayTracePath, opts, *ablateList, *replayWorkers))
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: racedet [flags] program.mj")
		flag.PrintDefaults()
		os.Exit(exitInternal)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}

	if *explain {
		c, err := racedet.Compile(file, string(src), opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(c.StaticReport())
		exit(exitClean)
	}

	if *staticRep || *staticOnly {
		// Detection before a single execution: the ranked lock-discipline
		// report. -static-only turns it into a verdict — statically
		// unguarded pairs are the "report" of the static-only detector.
		c, err := racedet.Compile(file, string(src), opts)
		if err != nil {
			fatal(err)
		}
		fmt.Print(c.DisciplineReport())
		if *staticOnly {
			if n := c.UnguardedPairs(); n > 0 {
				fmt.Fprintf(os.Stderr, "racedet: %d statically unguarded may-race pair(s)\n", n)
				exit(exitRaces)
			}
			fmt.Fprintln(os.Stderr, "racedet: no statically unguarded pairs")
		}
		exit(exitClean)
	}

	if *fuzzN > 0 {
		exit(fuzz(file, string(src), opts, *fuzzN, *workers, *traceDir))
	}

	if !*quiet {
		opts.Stdout = os.Stdout
	}
	var recordFile *os.File
	var recordTmp string
	if *recordPath != "" {
		// Crash-safe capture: record into a sibling temp file and
		// atomically rename it over the requested path only once the
		// trace is complete and fsync'd. An interrupted run leaves at
		// most a .tmp — never a torn half-trace under the name a later
		// -replay-trace or racedetd upload would trust.
		recordTmp = *recordPath + ".tmp"
		recordFile, err = os.Create(recordTmp)
		if err != nil {
			fatal(err)
		}
		// The extension picks the format: .mjtrace records the compact
		// binary trace (replay with -replay-trace), anything else the
		// legacy text event log (replay with -replay).
		if strings.HasSuffix(*recordPath, ".mjtrace") {
			opts.TraceTo = recordFile
		} else {
			opts.RecordTo = recordFile
		}
	}
	if *schedIn != "" {
		trace, err := os.ReadFile(*schedIn)
		if err != nil {
			if recordTmp != "" {
				recordFile.Close()
				os.Remove(recordTmp)
			}
			fatal(err)
		}
		opts.ReplaySchedule = trace
	}
	if *schedOut != "" {
		opts.RecordSchedule = true
	}

	res, err := racedet.Detect(file, string(src), opts)
	var runtimeErr *racedet.RuntimeError
	if err != nil {
		// A runtime failure (deadlock, watchdog, livelock, step budget)
		// still carries a partial result: the races observed before the
		// run was cut short. Print the report below, then exit 2.
		if !errors.As(err, &runtimeErr) || res == nil {
			if recordTmp != "" {
				recordFile.Close()
				os.Remove(recordTmp)
			}
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "racedet: execution failed:", runtimeErr)
	}

	if recordTmp != "" {
		// Seal the capture. Partial-run traces (watchdog, deadlock) are
		// sealed too — they replay up to the cut, and the trace footer
		// marks them honestly.
		if ferr := finishRecording(recordFile, recordTmp, *recordPath); ferr != nil {
			fatal(ferr)
		}
	}

	if *schedOut != "" {
		if err := os.WriteFile(*schedOut, res.Schedule, 0o644); err != nil {
			fatal(err)
		}
	}

	for _, r := range res.Races {
		fmt.Println(r)
		for _, p := range r.StaticPartners {
			fmt.Printf("    may race with code at %s\n", p)
		}
	}
	for _, r := range res.BaselineReports {
		fmt.Println(r)
	}
	for _, r := range res.PotentialDeadlocks {
		fmt.Println(r)
	}
	for _, r := range res.Immutability {
		fmt.Println(r)
	}
	if *showStats {
		s := res.Stats
		fmt.Printf("stats: threads=%d instructions=%d traceEvents=%d cacheHits=%d ownerSkips=%d trieEvents=%d trieNodes=%d\n",
			s.Threads, s.Instructions, s.TraceEvents, s.CacheHits, s.OwnerSkips, s.TrieEvents, s.TrieNodes)
		fmt.Printf("static: accessSites=%d raceSet=%d threadLocalPruned=%d traces=%d eliminated=%d peeled=%d\n",
			s.AccessSites, s.StaticRaceSet, s.ThreadLocalPruned, s.TracesInserted, s.TracesEliminated, s.LoopsPeeled)
		if s.TrieCollapses > 0 || s.CacheThreadEvictions > 0 || s.OwnerOverflows > 0 {
			fmt.Printf("degraded: trieCollapses=%d cacheThreadEvictions=%d ownerOverflows=%d (bounded memory; may over-report)\n",
				s.TrieCollapses, s.CacheThreadEvictions, s.OwnerOverflows)
		}
		if s.SitesSampled > 0 {
			// traceEvents == shipped + cacheHits + ownerSkips + suppressed:
			// every observed event is accounted for exactly once.
			fmt.Printf("sampling: shipped=%d suppressed=%d sites=%d demoted=%d rearmed=%d k=%d\n",
				s.EventsShipped, s.EventsSuppressed, s.SitesSampled, s.SitesDemoted, s.SitesRearmed, s.SampleK)
			if s.PriorHighSites > 0 || s.PriorLowSites > 0 {
				fmt.Printf("priors: high=%d low=%d fastDemotions=%d\n",
					s.PriorHighSites, s.PriorLowSites, s.PriorFastDemotions)
			}
		}
	}
	n := res.RacyObjects
	if runtimeErr != nil {
		fmt.Fprintf(os.Stderr, "racedet: partial report: dataraces on %d object(s) before the run was cut short\n", n)
		exit(exitRuntime)
	}
	switch {
	case n == 0 && len(res.BaselineReports) == 0:
		fmt.Fprintln(os.Stderr, "racedet: no dataraces detected")
	case n > 0 || len(res.BaselineReports) > 0:
		fmt.Fprintf(os.Stderr, "racedet: dataraces reported on %d object(s)\n", n)
		exit(exitRaces)
	}
	exit(exitClean)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "racedet:", err)
	os.Exit(exitInternal)
}

// finishRecording makes a finished -record capture durable: fsync the
// temp file, close it, and atomically rename it to the requested
// path. Any failure removes the temp so no torn capture survives.
func finishRecording(f *os.File, tmp, dst string) error {
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// fuzz runs the schedule-exploration harness and reports per-seed
// outcomes plus the classified findings.
func fuzz(file, src string, opts racedet.Options, count, workers int, traceDir string) int {
	res, err := racedet.Fuzz(file, src, racedet.FuzzOptions{
		Options: opts,
		Count:   count,
		Workers: workers,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "racedet:", err)
		return exitInternal
	}

	for _, oc := range res.Outcomes {
		status := "ok"
		if oc.Err != nil {
			status = oc.Err.Error()
		}
		fmt.Printf("seed %4d: races=%d %s\n", oc.Seed, oc.Races, status)
	}
	for _, f := range res.Findings {
		class := "STABLE (all schedules)"
		if !f.Stable {
			class = fmt.Sprintf("SCHEDULE-DEPENDENT (%d/%d schedules, first seed %d)",
				len(f.Seeds), res.Completed, f.MinSeed)
		}
		fmt.Printf("%s\n    %s\n", f.Race, class)
		if traceDir != "" {
			path := filepath.Join(traceDir, traceName(f.Race.Field))
			if err := os.MkdirAll(traceDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "racedet:", err)
				return exitInternal
			}
			if err := os.WriteFile(path, f.Schedule, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "racedet:", err)
				return exitInternal
			}
			fmt.Printf("    witness schedule: %s (reproduce with -replay-schedule %s)\n", path, path)
		}
	}
	fmt.Fprintf(os.Stderr, "racedet: %d seed(s): %d completed, %d failed; %d distinct race(s) (%d stable, %d schedule-dependent)\n",
		len(res.Outcomes), res.Completed, res.Failed,
		len(res.Findings), len(res.Stable()), len(res.ScheduleDependent()))

	switch {
	case len(res.Findings) > 0:
		return exitRaces
	case res.Completed == 0 && res.Failed > 0:
		return exitRuntime
	default:
		return exitClean
	}
}

// traceName maps a field name to a witness trace filename.
func traceName(field string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, field)
	return clean + ".mjsched"
}

// ablationOpts maps a named configuration onto base — the ablations of
// the paper's Tables 2/3 plus the baseline detectors. Base flags still
// apply: -replay-trace -fieldsmerged -ablate NoCache replays NoCache at
// object granularity.
func ablationOpts(base racedet.Options, name string) (racedet.Options, error) {
	o := base
	switch name {
	case "Full":
	case "NoCache":
		o.DisableCache = true
	case "NoOwnership":
		o.DisableOwnership = true
	case "FieldsMerged":
		o.MergeFields = true
	case "NoPseudoLocks":
		o.DisableJoinPseudoLocks = true
	case "ReportAll":
		o.ReportAllAccesses = true
	case "Eraser":
		o.Detector = racedet.Eraser
	case "ObjectRace":
		o.Detector = racedet.ObjectRace
	case "HappensBefore", "HB":
		o.Detector = racedet.HappensBefore
	default:
		return o, fmt.Errorf("unknown ablation %q (want Full, NoCache, NoOwnership, FieldsMerged, NoPseudoLocks, ReportAll, Eraser, ObjectRace, or HappensBefore)", name)
	}
	return o, nil
}

// replayTrace performs offline detection on a recorded binary trace:
// one pass with opts as configured, or — with -ablate — one pass per
// named configuration over the same trace, all in one process. The
// exit code aggregates the passes: races anywhere exit 1.
func replayTrace(path string, opts racedet.Options, ablate string, workers int) int {
	names := []string{""}
	if ablate != "" {
		names = strings.Split(ablate, ",")
	}
	races := 0
	for _, name := range names {
		o := opts
		name = strings.TrimSpace(name)
		if name != "" {
			var err error
			if o, err = ablationOpts(opts, name); err != nil {
				fmt.Fprintln(os.Stderr, "racedet:", err)
				return exitInternal
			}
			fmt.Printf("== %s ==\n", name)
		}
		res, err := racedet.ReplayTrace(path, o, workers)
		if err != nil {
			var runtimeErr *racedet.RuntimeError
			if errors.As(err, &runtimeErr) {
				fmt.Fprintln(os.Stderr, "racedet: replay failed:", runtimeErr)
				return exitRuntime
			}
			fmt.Fprintln(os.Stderr, "racedet:", err)
			return exitInternal
		}
		for _, r := range res.Races {
			fmt.Println(r)
		}
		for _, r := range res.BaselineReports {
			fmt.Println(r)
		}
		n := res.RacyObjects
		if n == 0 && len(res.BaselineReports) > 0 {
			n = len(res.BaselineReports)
		}
		races += n
		if name != "" {
			fmt.Fprintf(os.Stderr, "racedet: %s: dataraces on %d object(s)\n", name, n)
		}
	}
	if races > 0 {
		fmt.Fprintf(os.Stderr, "racedet: dataraces reported on %d object(s)\n", races)
		return exitRaces
	}
	fmt.Fprintln(os.Stderr, "racedet: no dataraces detected")
	return exitClean
}

// replay performs post-mortem detection on a recorded event log.
func replay(path string, fullRace bool) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "racedet:", err)
		return exitInternal
	}
	defer f.Close()

	if fullRace {
		pairs, err := racedet.FullRace(f, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "racedet:", err)
			return exitInternal
		}
		for _, p := range pairs {
			fmt.Printf("%s\n  <races with>\n%s\n\n", p.First, p.Second)
		}
		fmt.Fprintf(os.Stderr, "racedet: %d racing pair(s) reconstructed\n", len(pairs))
		if len(pairs) > 0 {
			return exitRaces
		}
		return exitClean
	}

	res, err := racedet.Replay(f, racedet.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "racedet:", err)
		return exitInternal
	}
	for _, r := range res.Races {
		fmt.Println(r)
	}
	if res.RacyObjects > 0 {
		fmt.Fprintf(os.Stderr, "racedet: dataraces reported on %d object(s)\n", res.RacyObjects)
		return exitRaces
	}
	fmt.Fprintln(os.Stderr, "racedet: no dataraces detected")
	return exitClean
}
