// Session execution: one admitted job = one isolated detector session.
// The session runner is the daemon's panic barrier — everything from
// compile to report conversion runs behind recover, with retries and
// the Eraser degradation as the last resort.
package service

import (
	"errors"
	"fmt"
	"time"

	"racedet"
	"racedet/internal/rt/trace"
)

// JobRequest is the wire format of one compile+analyze job. Only the
// fields a tenant legitimately varies per job are exposed; the
// operator-owned robustness knobs (watchdogs, retry budget, fact
// cache) come from the daemon's Options.
type JobRequest struct {
	// File names the program in diagnostics; Source is the MJ text.
	File   string `json:"file"`
	Source string `json:"source"`

	// Trace, when non-empty, is a recorded binary event trace (the
	// bytes of a racedet -record prog.mjtrace file; base64 on the
	// wire). The job replays the trace through the session's detector
	// instead of compiling and running Source — the record-once/
	// analyze-many mode — so Source must be empty. All the detector
	// knobs below apply to the replay exactly as to a live run.
	Trace []byte `json:"trace,omitempty"`

	// Seed perturbs the deterministic scheduler (0 = fixed
	// round-robin), exactly as racedet -seed.
	Seed int64 `json:"seed,omitempty"`
	// Detector selects the runtime algorithm: "trie" (default),
	// "eraser", "objectrace", "hb".
	Detector string `json:"detector,omitempty"`
	// NoStatic disables the static race analysis for this job
	// (instrument everything), as racedet -nostatic.
	NoStatic bool `json:"nostatic,omitempty"`

	// SampleK/SampleBudget override the daemon's per-session adaptive-
	// throttling defaults when > 0, exactly as racedet -sample-k /
	// -sample-budget; SampleK < 0 forces throttling off for this job.
	// SampleBudget outside [0, 1], or > 0 with SampleK < 0, is
	// rejected at admission.
	SampleK      int     `json:"sample_k,omitempty"`
	SampleBudget float64 `json:"sample_budget,omitempty"`
	// Priors seeds the job's sampler with the program's static
	// lock-discipline tiers ("on" or "invert", exactly as racedet
	// -priors; "" or "off" ignores them). Needs sampling and a source
	// job — rejected at admission for trace jobs, which have no
	// compiled pipeline to take tiers from.
	Priors string `json:"priors,omitempty"`

	// IdempotencyKey, when non-empty, makes the submission safely
	// at-least-once: the first job to present a key runs; any later
	// job with the same key is answered from the first one's result
	// (waiting for it if still in flight), and with a state dir the
	// stored result survives daemon restarts. Keys are client-chosen;
	// two different requests sharing a key get the first one's result.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// JobResult is the wire format of a finished job. Exactly one of the
// three outcomes holds:
//
//   - clean analysis: CompileError and RuntimeError empty, Degraded
//     false; Races/BaselineReports carry the verdicts (possibly none).
//   - failed analysis: CompileError or RuntimeError set; RuntimeError
//     jobs still carry the partial races observed before the failure.
//   - degraded analysis: Degraded true with DegradedReason; the
//     verdicts come from the self-contained Eraser pass after the
//     session's retry budget was exhausted (counted, never silent).
type JobResult struct {
	Job uint64 `json:"job"`

	Races           []racedet.Race `json:"races,omitempty"`
	RacyObjects     int            `json:"racy_objects"`
	BaselineReports []string       `json:"baseline_reports,omitempty"`
	Output          string         `json:"output,omitempty"`

	// Retries counts contained session panics that were retried;
	// Degraded marks a verdict produced by the Eraser fallback after
	// the retry budget ran out.
	Retries        int    `json:"retries,omitempty"`
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`

	// Deduped marks a response served from a stored result because the
	// request repeated an idempotency key; Job then names the original
	// job that produced the verdict, not this submission.
	Deduped bool `json:"deduped,omitempty"`

	// CompileError is a parse/typecheck failure; RuntimeError is an
	// execution failure (deadlock, watchdog, livelock, step budget,
	// panic) with its kind as prefix.
	CompileError string `json:"compile_error,omitempty"`
	RuntimeError string `json:"runtime_error,omitempty"`

	// Stats carries the per-stage counters of the winning run (zero
	// value for compile failures).
	Stats      racedet.Stats `json:"stats"`
	DurationNs int64         `json:"duration_ns"`
}

// jobOptions merges the daemon's per-session defaults with the job's
// own knobs into the one-shot API's Options.
func (s *Server) jobOptions(req JobRequest) racedet.Options {
	o := racedet.Options{
		Seed:                  req.Seed,
		DisableStaticAnalysis: req.NoStatic,
		Timeout:               s.opts.JobTimeout,
		LivelockWindow:        s.opts.LivelockWindow,
		FactCacheDir:          s.opts.FactCacheDir,
	}
	o.SampleK = s.opts.SampleK
	o.SampleBudget = s.opts.SampleBudget
	switch {
	case req.SampleK > 0:
		o.SampleK = req.SampleK
	case req.SampleK < 0:
		o.SampleK, o.SampleBudget = 0, 0
	}
	if req.SampleBudget > 0 {
		o.SampleBudget = req.SampleBudget
	}
	o.Priors = req.Priors
	o.Detector, _ = detectorFor(req.Detector) // validated at admission
	return o
}

// runSession executes one job with full containment: panics anywhere
// in the session (compile, interpretation, detection, conversion) are
// recovered and retried with exponential backoff until the budget runs
// out, after which the job degrades to the Eraser-only pass. The same
// seed and options make every retry attempt detection-equivalent to a
// clean one-shot run, so a recovered session's verdicts are identical
// to racedet's.
func (s *Server) runSession(job uint64, req JobRequest) JobResult {
	opts := s.jobOptions(req)

	var lastPanic string
	for attempt := 0; attempt <= s.opts.RetryBudget; attempt++ {
		if attempt > 0 {
			s.m.sessionRetries.Add(1)
			// Exponential backoff, capped so an injected panic storm in
			// tests cannot stall a slot for long.
			d := s.opts.RetryBackoff << (attempt - 1)
			if max := 500 * time.Millisecond; d > max {
				d = max
			}
			time.Sleep(d)
		}
		res, err, panicked := s.attempt(job, req, opts, true)
		if panicked {
			s.m.sessionPanics.Add(1)
			lastPanic = res.DegradedReason
			s.logf("job %d: contained session panic (attempt %d/%d): %s",
				job, attempt+1, s.opts.RetryBudget+1, lastPanic)
			continue
		}
		return s.finishResult(res, err, attempt)
	}

	// Budget exhausted: degrade to the self-contained Eraser lockset
	// pass — a simpler, panic-independent detector — so the tenant
	// still gets an explicit verdict instead of a lost analysis.
	eopts := opts
	eopts.Detector = racedet.Eraser
	eopts.FactCacheDir = "" // the degraded pass must not depend on shared state
	res, err, panicked := s.attempt(job, req, eopts, false)
	if panicked {
		// Even the degraded pass crashed: a structured failure, still
		// counted and journaled.
		return JobResult{
			Degraded:       true,
			DegradedReason: lastPanic,
			Retries:        s.opts.RetryBudget,
			RuntimeError:   "panic: degraded Eraser pass failed too: " + res.DegradedReason,
		}
	}
	out := s.finishResult(res, err, s.opts.RetryBudget)
	out.Degraded = true
	out.DegradedReason = lastPanic
	return out
}

// attempt is the panic barrier around one detection run. withFaults
// arms the injected session fault for this job (the degraded pass runs
// without it: injection tests the recovery path, not the fallback).
// On a panic the returned result carries the panic text in
// DegradedReason and panicked is true.
func (s *Server) attempt(job uint64, req JobRequest, opts racedet.Options, withFaults bool) (res jobOutcome, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			res = jobOutcome{}
			res.DegradedReason = fmt.Sprint(r)
			err = nil
			panicked = true
		}
	}()
	if withFaults && s.opts.Faults != nil {
		s.opts.Faults.SessionEvent(job)
	}
	if len(req.Trace) > 0 {
		// Replay job: stream the uploaded trace through this session's
		// detector configuration, no interpreter in the loop. The same
		// panic barrier, retry budget, and Eraser degradation apply.
		r, derr := racedet.ReplayTraceData(req.Trace, opts, 0)
		return jobOutcome{Result: r}, derr, false
	}
	r, derr := racedet.Detect(req.File, req.Source, opts)
	return jobOutcome{Result: r}, derr, false
}

// jobOutcome pairs a detection result with the panic text slot the
// recover path needs (a named return must be assignable in deferred
// code).
type jobOutcome struct {
	Result         *racedet.Result
	DegradedReason string
}

// finishResult converts a completed (non-panicking) attempt into the
// wire result and feeds the daemon-wide metrics.
func (s *Server) finishResult(out jobOutcome, err error, retries int) JobResult {
	jr := JobResult{Retries: retries}
	if err != nil {
		var re *racedet.RuntimeError
		var fe *trace.FormatError
		switch {
		case errors.As(err, &re):
			jr.RuntimeError = re.Kind + ": " + re.Msg
			switch re.Kind {
			case "watchdog":
				s.m.watchdogFires.Add(1)
			case "livelock":
				s.m.livelockFires.Add(1)
			}
		case errors.As(err, &fe):
			// Mid-stream trace corruption that survived the admission
			// check: an execution failure of the replay, not a compile
			// error — partial races observed before it still apply.
			jr.RuntimeError = err.Error()
		default:
			jr.CompileError = err.Error()
		}
	}
	res := out.Result
	if res == nil {
		return jr
	}
	jr.Races = res.Races
	jr.RacyObjects = res.RacyObjects
	jr.BaselineReports = res.BaselineReports
	jr.Output = res.Output
	jr.Stats = res.Stats
	jr.DurationNs = int64(res.Duration)

	s.m.racesReported.Add(uint64(len(res.Races) + len(res.BaselineReports)))
	if res.Stats.FactCacheProgramHit {
		s.m.factProgramHits.Add(1)
	}
	s.m.factFnHits.Add(uint64(res.Stats.FactCacheFnHits))
	s.m.factFnMisses.Add(uint64(res.Stats.FactCacheFnMisses))
	s.m.factWriteErrors.Add(uint64(res.Stats.FactCacheWriteErrors))
	s.m.eventsShipped.Add(res.Stats.EventsShipped)
	s.m.eventsSuppressed.Add(res.Stats.EventsSuppressed)
	s.m.sitesDemoted.Add(res.Stats.SitesDemoted)
	s.m.sitesRearmed.Add(res.Stats.SitesRearmed)
	s.m.priorHighSites.Add(uint64(res.Stats.PriorHighSites))
	s.m.priorLowSites.Add(uint64(res.Stats.PriorLowSites))
	s.m.priorFastDemotions.Add(res.Stats.PriorFastDemotions)
	return jr
}
