package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"racedet/internal/core"
	"racedet/internal/rt/trace"
)

// opFunc runs program idx once under the given schedule seed and
// returns the time spent in the call under test; verification is not
// included. Child spans go under parent with op id op.
type opFunc func(idx int, seed int64, tr *tracer, op, parent int64) (time.Duration, error)

// closedWorkload is a closed loop with one client: each pass runs every
// program once in seeded order, and the next op starts when the last
// one returns.
type closedWorkload struct {
	progs  []program
	passes *rand.Rand // the seeded stream of passes
	op     opFunc
}

func (w *closedWorkload) close() {}

// run drives passes until d has elapsed (the last pass completes).
func (w *closedWorkload) run(d time.Duration, tr *tracer) *outcome {
	names := make([]string, len(w.progs))
	for i, p := range w.progs {
		names[i] = p.name
	}
	out := newOutcome(names)
	alloc0 := heapAllocBytes()
	start := time.Now()
	for time.Since(start) < d {
		in := nextPass(w.passes, len(w.progs))
		ps := tr.start("pass", "", 0, 0)
		t0 := time.Now()
		for _, idx := range in.Order {
			op := tr.nextOp()
			s := tr.start("op", names[idx], op, ps.id())
			dur, err := w.op(idx, in.Seeds[idx], tr, op, s.id())
			s.end()
			out.record(names[idx], dur, err)
		}
		out.passMs = append(out.passMs, ms(time.Since(t0)))
		ps.end()
	}
	out.throughputOps = out.attempted
	out.throughputElapsed = time.Since(start)
	out.allocBytes = heapAllocBytes() - alloc0
	return out
}

// ---------------------------------------------------------------------------
// live and live-sampled

// sampledConfig is racebench's FullSampledAdaptive.
func sampledConfig() core.Config {
	c := core.Full()
	c.SampleK = 2
	c.SampleBudget = 0.25
	return c
}

func setupLive(seed int64, progs []program, cfg core.Config) (state, error) {
	pipes := make([]*core.Pipeline, len(progs))
	for i, p := range progs {
		pipe, err := core.Compile(p.file, p.source, core.Full())
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.name, err)
		}
		pipes[i] = pipe
	}
	op := func(idx int, seed int64, tr *tracer, op, parent int64) (time.Duration, error) {
		c := cfg.WithSeed(seed)
		t0 := time.Now()
		s := tr.start("core.RunConfig", progs[idx].name, op, parent)
		rr, err := pipes[idx].RunConfig(c)
		s.end()
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		return d, progs[idx].checkRun(rr)
	}
	return &closedWorkload{progs: progs, passes: newStream(seed, "live.passes"), op: op}, nil
}

// ---------------------------------------------------------------------------
// replay

// recordTraces runs each program once under Full at a seeded schedule
// with the binary trace recorder on, checking each recording's verdict.
func recordTraces(seed int64, stream string, progs []program) ([][]byte, error) {
	r := newStream(seed, stream)
	out := make([][]byte, len(progs))
	for i, p := range progs {
		pipe, err := core.Compile(p.file, p.source, core.Full())
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.name, err)
		}
		var buf bytes.Buffer
		cfg := core.Full().WithSeed(scheduleSeed(r))
		cfg.TraceTo = &buf
		rr, err := pipe.RunConfig(cfg)
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", p.name, err)
		}
		if err := p.checkRun(rr); err != nil {
			return nil, fmt.Errorf("record: %w", err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

func setupReplay(seed int64, progs []program) (state, error) {
	traces, err := recordTraces(seed, "replay.record", progs)
	if err != nil {
		return nil, err
	}
	op := func(idx int, _ int64, tr *tracer, op, parent int64) (time.Duration, error) {
		var (
			rd  *trace.Reader
			rr  *core.RunResult
			err error
		)
		name := progs[idx].name
		t0 := time.Now()
		s := tr.start("trace.NewReader", name, op, parent)
		rd, err = trace.NewReader(traces[idx])
		s.end()
		if err == nil {
			s = tr.start("core.ReplayTrace", name, op, parent)
			rr, err = core.ReplayTrace(rd, core.Full(), 1)
			s.end()
		}
		d := time.Since(t0)
		if err != nil {
			return d, err
		}
		return d, progs[idx].checkRun(rr)
	}
	return &closedWorkload{progs: progs, passes: newStream(seed, "replay.passes"), op: op}, nil
}

// ---------------------------------------------------------------------------
// compile

func setupCompile(seed int64, progs []program) (state, error) {
	// The reference summary of each program comes from a compile whose
	// pipeline also runs once with a verdict check, so every later
	// compile that matches it is known to produce a correct program.
	r := newStream(seed, "compile.check")
	want := make([]compileSummary, len(progs))
	for i, p := range progs {
		pipe, err := core.Compile(p.file, p.source, core.Full())
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.name, err)
		}
		rr, err := pipe.RunConfig(core.Full().WithSeed(scheduleSeed(r)))
		if err != nil {
			return nil, fmt.Errorf("run %s: %w", p.name, err)
		}
		if err := p.checkRun(rr); err != nil {
			return nil, err
		}
		want[i] = summarizePipeline(pipe)
	}
	op := func(idx int, _ int64, tr *tracer, op, parent int64) (time.Duration, error) {
		p := progs[idx]
		var (
			got compileSummary
			d   time.Duration
		)
		if tr == nil {
			t0 := time.Now()
			pipe, err := core.Compile(p.file, p.source, core.Full())
			if d = time.Since(t0); err != nil {
				return d, err
			}
			got = summarizePipeline(pipe)
		} else {
			t0 := time.Now()
			rep, err := compileReplica(p.file, p.source, core.Full(), func(name string, fn func()) {
				tr.timed(name, p.name, op, parent, fn)
			})
			if d = time.Since(t0); err != nil {
				return d, err
			}
			got = rep.summary()
		}
		if got != want[idx] {
			return d, fmt.Errorf("%s: compile output differs from the reference compile", p.name)
		}
		return d, nil
	}
	return &closedWorkload{progs: progs, passes: newStream(seed, "compile.passes"), op: op}, nil
}
