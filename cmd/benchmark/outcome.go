package main

import (
	"sync"
	"time"

	"racedet/internal/service"
)

// state is a workload after set-up.
type state interface {
	// run measures the workload for about d; tr is nil in the untraced
	// run.
	run(d time.Duration, tr *tracer) *outcome
	close()
}

// outcome accumulates one measured phase of a workload. The daemon's
// clients record into it concurrently.
type outcome struct {
	mu sync.Mutex

	attempted, failed int64
	errs              []string // the first few failures, for the log

	// opMs holds each op kind's closed-loop op times: per program, or
	// per job kind on the daemon.
	opMs *samples
	// passMs is each pass's time (for the daemon, each closed-loop job's).
	passMs []float64

	throughputOps     int64
	throughputElapsed time.Duration
	allocBytes        uint64

	service *serviceOutcome // daemon only
}

// serviceOutcome is what the daemon's open loop adds.
type serviceOutcome struct {
	// verdictMs holds each job kind's times from due time to verdict.
	verdictMs                     *samples
	sessionMs, overheadMs, lateMs []float64
	factHitRatio                  float64
	queueHighWater                int64
}

// newOutcome prepares op-time slots for the given op kinds, in order.
func newOutcome(kinds []string) *outcome {
	return &outcome{opMs: newSamples(kinds...)}
}

func (o *outcome) failLocked(err error) {
	o.failed++
	if len(o.errs) < 5 {
		o.errs = append(o.errs, err.Error())
	}
}

// count counts one op that has no op time of its own (a probe step).
func (o *outcome) count(err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failLocked(err)
	}
}

// record counts one closed-loop op of the given kind.
func (o *outcome) record(kind string, d time.Duration, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failLocked(err)
		return
	}
	o.opMs.add(kind, ms(d))
}

// recordJob counts one open-loop daemon job.
func (o *outcome) recordJob(kind string, due, sent, done time.Time, res *service.JobResult, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted++
	if err != nil {
		o.failLocked(err)
		return
	}
	verdict := ms(done.Sub(due))
	session := float64(res.DurationNs) / 1e6
	s := o.service
	s.verdictMs.add(kind, verdict)
	s.sessionMs = append(s.sessionMs, session)
	s.overheadMs = append(s.overheadMs, verdict-session)
	s.lateMs = append(s.lateMs, ms(sent.Sub(due)))
}

// recordClosed counts one closed-loop daemon job of the given kind.
func (o *outcome) recordClosed(kind string, d time.Duration, err error) {
	o.record(kind, d, err)
	if err == nil {
		o.mu.Lock()
		o.passMs = append(o.passMs, ms(d))
		o.mu.Unlock()
	}
}

func (o *outcome) opsPerS() float64 {
	if o.throughputElapsed <= 0 {
		return 0
	}
	return float64(o.throughputOps) / o.throughputElapsed.Seconds()
}

// opMsGeomean is the geometric mean over op kinds of each kind's
// median closed-loop op time, so short and long programs weigh alike.
func (o *outcome) opMsGeomean() float64 { return geomean(o.opMs.quantiles(0.5)) }

// bestOpMsGeomean is the geometric mean over op kinds of each kind's
// fastest op. On the daemon the ops are the open-loop jobs, timed from
// their due time to the verdict.
func (o *outcome) bestOpMsGeomean() float64 {
	if o.service != nil {
		return geomean(o.service.verdictMs.quantiles(0))
	}
	return geomean(o.opMs.quantiles(0))
}
