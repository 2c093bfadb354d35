// Replay-throughput axis of the -json matrix: each benchmark is
// recorded once as a binary trace, then the trace is replayed through
// the detector back ends with no interpreter in the loop. The replay
// rows carry events/sec — the "hardware-speed" detection rate the
// record-once/analyze-many workflow buys — alongside ns/op, so the
// perf gate can watch replay throughput like any other configuration.
package bench

import (
	"bytes"
	"fmt"
	"testing"

	"racedet/internal/core"
	"racedet/internal/rt/trace"
)

// replayConfigs is the replayed half of the matrix: the Full detector
// with sequential and with parallel segment decode.
func replayConfigs() []struct {
	Name    string
	Cfg     core.Config
	Workers int
} {
	add := func(name string, cfg core.Config, workers int) struct {
		Name    string
		Cfg     core.Config
		Workers int
	} {
		return struct {
			Name    string
			Cfg     core.Config
			Workers int
		}{name, cfg, workers}
	}
	return []struct {
		Name    string
		Cfg     core.Config
		Workers int
	}{
		add("ReplayFull", core.Full(), 1),
		add("ReplayFullParallel", core.Full(), 0),
	}
}

// replayCell is one (benchmark, replay configuration) measurement: the
// trace is recorded once and re-replayed on every rep.
type replayCell struct {
	bench   string
	cfgName string
	cfg     core.Config
	workers int
	rd      *trace.Reader

	traceBytes        int
	ns, allocs, bytes []int64
	racy              int
	events            uint64
}

func (cl *replayCell) measure() error {
	var runErr error
	br := testing.Benchmark(func(tb *testing.B) {
		tb.ReportAllocs()
		for i := 0; i < tb.N; i++ {
			rr, err := core.ReplayTrace(cl.rd, cl.cfg, cl.workers)
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

// replayCells records every benchmark once under the Full
// configuration with the trace sink attached, then builds one cell per
// replay configuration over the in-memory trace.
func replayCells() ([]*replayCell, error) {
	var out []*replayCell
	for _, b := range All() {
		var buf bytes.Buffer
		cfg := core.Full()
		cfg.TraceTo = &buf
		res, err := core.RunSource(b.Name+".mj", b.Source(), cfg)
		if err != nil {
			return nil, fmt.Errorf("bench %s: recording trace: %w", b.Name, err)
		}
		if res.Err != nil {
			return nil, fmt.Errorf("bench %s: recording trace: %w", b.Name, res.Err)
		}
		rd, err := trace.NewReader(buf.Bytes())
		if err != nil {
			return nil, fmt.Errorf("bench %s: reading recorded trace: %w", b.Name, err)
		}
		for _, c := range replayConfigs() {
			out = append(out, &replayCell{
				bench:      b.Name,
				cfgName:    c.Name,
				cfg:        c.Cfg,
				workers:    c.Workers,
				rd:         rd,
				traceBytes: buf.Len(),
			})
		}
	}
	return out, nil
}

// eventsPerSec converts an events-per-op count and a ns/op median into
// the throughput metric of the replay axis.
func eventsPerSec(events uint64, nsPerOp int64) int64 {
	if events == 0 || nsPerOp <= 0 {
		return 0
	}
	return int64(float64(events) * 1e9 / float64(nsPerOp))
}
