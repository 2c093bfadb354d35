package main

import (
	"fmt"

	"racedet/internal/core"
	"racedet/internal/escape"
	"racedet/internal/icfg"
	"racedet/internal/instrument"
	"racedet/internal/ir"
	"racedet/internal/lang/ast"
	"racedet/internal/lang/parser"
	"racedet/internal/lang/sem"
	"racedet/internal/lower"
	"racedet/internal/pointsto"
	"racedet/internal/racestatic"
	"racedet/internal/static/lockdiscipline"
)

// Compile phases, in the order core.Compile runs them. Each is one
// call (or, for sem and insert, one group of calls) into a compile
// layer's public API; the traced compile times each of them.
var compilePhases = []string{
	"parser", "sem", "instrument.peel", "lower", "pointsto", "icfg", "escape",
	"icfg.mustlock", "racestatic", "lockdiscipline", "instrument.interproc",
	"instrument.insert", "instrument.eliminate",
}

// replica is the outcome of a traced compile.
type replica struct {
	prog       *ir.Program
	instr      instrument.Stats
	static     core.StaticStats // AnalysisNs is left zero
	discipline string
	irInstrs   int // IR instructions after lowering, before instrumentation
	pairs      int // surviving may-race pairs
}

// phaseFunc runs one compile phase; the traced compile wraps it in a
// span, and the equivalence test runs it bare.
type phaseFunc func(name string, fn func())

func runBare(_ string, fn func()) { fn() }

// compileReplica performs core.Compile's steps itself, without the fact
// cache, calling each layer directly so every phase can be timed. It
// must stay step-for-step equivalent to core.Compile (replica_test.go
// checks the outputs), or the phase times would describe a different
// compile from the one the untraced run measures.
func compileReplica(file, src string, cfg core.Config, phase phaseFunc) (*replica, error) {
	var r replica
	low, peeled, err := lowerReplica(file, src, cfg, phase)
	if err != nil {
		return nil, err
	}
	r.instr.LoopsPeeled = peeled
	r.prog = low.Prog
	for _, fn := range r.prog.Funcs {
		for _, b := range fn.Blocks {
			r.irInstrs += len(b.Instrs)
		}
	}

	var (
		pts *pointsto.Result
		icg *icfg.Graph
		esc *escape.Result
	)
	if cfg.PtsWorkers > 0 {
		phase("pointsto", func() { pts = pointsto.AnalyzeParallel(r.prog, cfg.PtsWorkers) })
	} else {
		phase("pointsto", func() { pts = pointsto.Analyze(r.prog) })
	}
	phase("icfg", func() { icg = icfg.Build(r.prog, low, pts) })
	phase("escape", func() { esc = escape.Analyze(r.prog, pts) })

	var filter instrument.Filter
	if cfg.Static {
		var opt racestatic.Options
		if cfg.Interproc {
			phase("icfg.mustlock", func() { opt.MustLock = icfg.BuildMustLock(icg) })
		}
		var st *racestatic.Result
		phase("racestatic", func() { st = racestatic.AnalyzeOpts(r.prog, pts, icg, esc, opt) })
		filter = st.Filter()
		var disc *lockdiscipline.Result
		phase("lockdiscipline", func() {
			disc = lockdiscipline.Analyze(st, icg, opt.MustLock, esc, pts)
			r.discipline = disc.Report()
			disc.SiteTiers()
		})
		r.pairs = len(st.Pairs)
		r.static = core.StaticStats{
			AccessSites:           len(st.Sites),
			RaceSetSize:           len(st.InRaceSet),
			PairCount:             len(st.Pairs),
			ThreadLocalPruned:     st.PrunedThreadLocal,
			SameThreadPruned:      st.PrunedSameThread,
			CommonSyncPruned:      st.PrunedCommonSync,
			FlowSyncPruned:        st.PrunedCommonSyncFlow,
			TierUnguardedPairs:    disc.UnguardedPairs,
			TierInconsistentPairs: disc.InconsistentPairs,
			TierDemotedPairs:      disc.DemotedPairs,
			TierUnguardedSites:    disc.UnguardedSites,
			TierInconsistentSites: disc.InconsistentSites,
			TierConsistentSites:   disc.ConsistentSites,
		}
	}

	if cfg.Instrument {
		var ip *instrument.Interproc
		if cfg.Dominators && cfg.Interproc {
			phase("instrument.interproc", func() { ip = instrument.BuildInterproc(r.prog, pts) })
		}
		phase("instrument.insert", func() {
			for _, fn := range r.prog.Funcs {
				st := instrument.InsertTraces(fn, filter)
				r.instr.Accesses += st.Accesses
				r.instr.Inserted += st.Inserted
			}
		})
		if cfg.Dominators {
			phase("instrument.eliminate", func() {
				n, rep := instrument.EliminateProgramWith(r.prog, ip, nil)
				r.instr.Eliminated += n
				r.static.ElimIntra, r.static.ElimPeel, r.static.ElimInterproc = rep.Counts()
			})
		}
	}
	return &r, nil
}

// lowerReplica is the front half of compileReplica: parse, check, peel
// and lower. Its program is the pre-instrumentation IR that the fact
// cache digests.
func lowerReplica(file, src string, cfg core.Config, phase phaseFunc) (low *lower.Result, peeled int, err error) {
	var (
		prog *ast.Program
		sp   *sem.Program
	)
	if phase("parser", func() { prog, err = parser.Parse(file, src) }); err != nil {
		return nil, 0, fmt.Errorf("parse: %w", err)
	}
	if phase("sem", func() { sp, err = sem.Check(prog) }); err != nil {
		return nil, 0, fmt.Errorf("check: %w", err)
	}
	if cfg.Instrument && cfg.Peeling && cfg.Dominators {
		isField := func(id *ast.Ident) bool { return sp.IdentRef[id].Kind == sem.RefField }
		phase("instrument.peel", func() { peeled = instrument.PeelLoops(prog, isField) })
		if phase("sem", func() { sp, err = sem.Check(prog) }); err != nil {
			return nil, 0, fmt.Errorf("re-check after peeling: %w", err)
		}
	}
	phase("lower", func() { low = lower.Lower(sp) })
	return low, peeled, nil
}

// compileSummary is what a compile must reproduce exactly on every
// run: the instrumentation and static counters (less the timing) and
// the lock-discipline report.
type compileSummary struct {
	instr      instrument.Stats
	static     core.StaticStats
	discipline string
}

func summarizePipeline(p *core.Pipeline) compileSummary {
	s := compileSummary{instr: p.InstrStats, static: p.StaticStats, discipline: p.DisciplineReport()}
	s.static.AnalysisNs = 0
	return s
}

func (r *replica) summary() compileSummary {
	return compileSummary{instr: r.instr, static: r.static, discipline: r.discipline}
}

// tracesEmitted is the number of trace instructions left after
// elimination.
func (s compileSummary) tracesEmitted() int { return s.instr.Inserted - s.instr.Eliminated }
