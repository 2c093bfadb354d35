// Package service is the detection-as-a-service layer: a persistent,
// multi-session daemon core that accepts compile+analyze jobs from
// many concurrent clients over a local HTTP API and runs each one in
// an isolated, supervised detector session.
//
// Robustness is the organizing principle, assembled from the pieces
// the one-shot pipeline already has:
//
//   - Isolation. Every job compiles and runs in its own session with
//     its own detector back end (interner, trie, ownership table), so
//     sessions share no mutable detection state. A panic inside a
//     session is contained, counted, retried with exponential backoff
//     within a budget, and finally degraded to the self-contained
//     Eraser lockset pass — a crashed session returns a structured
//     error or an explicitly-degraded verdict, never takes a sibling
//     (or the daemon) down, and never loses an analysis silently.
//   - Admission control. Session slots are bounded and a bounded
//     queue fronts them; past both bounds the daemon load-sheds with
//     HTTP 503 + Retry-After instead of growing without bound.
//   - Watchdogs. Each job runs under the wall-clock and livelock
//     watchdogs of the fuzzing harness; a fired watchdog fails only
//     that job — with a partial race report — and is counted.
//   - Shared warmth. All sessions share one digest-keyed fact cache
//     directory, so a program any session compiled before replays its
//     static analysis instead of recomputing it; hit rates are
//     exported.
//   - Graceful drain. Drain stops admission, lets in-flight jobs
//     finish (or counts them aborted at the deadline — never a silent
//     drop, asserted via the job journal), and reports whether the
//     drain was clean.
//
// The /healthz and /metrics endpoints expose liveness and the full
// counter set (queue depths, recovery and degradation counters,
// watchdog fires, fact-cache hit rates) for operators and the CI
// smoke test. Deterministic fault injection (session panics, client
// disconnects, slow clients, forced queue-full) plugs in through
// internal/faultinject's session-level faults.
package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"racedet"
	"racedet/internal/faultinject"
	"racedet/internal/rt/trace"
	"racedet/internal/service/durable"
)

// Options configures a Server. The zero value of any field selects the
// documented default.
type Options struct {
	// MaxSessions bounds concurrently running analysis sessions
	// (default: GOMAXPROCS).
	MaxSessions int
	// QueueDepth bounds jobs waiting for a session slot; a job arriving
	// past the bound is load-shed with 503 + Retry-After (default 16).
	QueueDepth int
	// RetryAfter is the hint returned with load-shed responses
	// (default 1s).
	RetryAfter time.Duration

	// JobTimeout is the per-job wall-clock watchdog (default 30s); a
	// job that exceeds it fails with a watchdog error and a partial
	// report, like racedet -timeout. 0 keeps the default; negative
	// disables.
	JobTimeout time.Duration
	// LivelockWindow is the per-job livelock watchdog in scheduler
	// slices (default 100000; negative disables).
	LivelockWindow int

	// RetryBudget is the number of times a session that panicked is
	// re-run before it degrades to the Eraser-only pass (default 3;
	// negative means degrade on the first panic).
	RetryBudget int
	// RetryBackoff is the base of the exponential retry backoff:
	// attempt k sleeps RetryBackoff << (k-1) (default 5ms).
	RetryBackoff time.Duration

	// FactCacheDir, when non-empty, is the digest-keyed fact cache
	// shared by every session for warm compiles.
	FactCacheDir string

	// StateDir, when non-empty, enables the durable job journal: every
	// admitted job is fsync'd to StateDir/wal.log before it can be
	// acknowledged, completions append their result, and Recover
	// (which the caller must run before serving) replays the log after
	// a crash — re-running incomplete jobs and serving completed ones
	// by idempotency key. Empty keeps the daemon purely in-memory.
	StateDir string
	// WalSync selects the WAL durability mode: "always" (default;
	// fsync per record — an acknowledged job survives kill -9 and
	// power loss) or "none" (OS page cache only — survives a daemon
	// crash, not a machine crash).
	WalSync string

	// MaxTraceBytes bounds an uploaded binary trace in a replay job
	// (default 8 MiB; negative removes the per-trace bound, leaving
	// only the request-body limit). Traces above the bound are
	// rejected as bad requests before any decoding happens.
	MaxTraceBytes int

	// SampleK/SampleBudget are the per-session adaptive-throttling
	// defaults (overridable per job), exactly as in racedet.Options:
	// SampleK > 0 demotes an access site after K consecutive clean
	// observations; SampleBudget in (0, 1] targets a shipped-events
	// ratio. Both zero (the default) disable throttling.
	SampleK      int
	SampleBudget float64

	// Faults installs deterministic session-level and disk-level fault
	// injection (nil in production).
	Faults *faultinject.Plan

	// Log receives one line per lifecycle event (nil = discard).
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 16
	}
	if o.QueueDepth < 0 {
		o.QueueDepth = 0
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	switch {
	case o.JobTimeout == 0:
		o.JobTimeout = 30 * time.Second
	case o.JobTimeout < 0:
		o.JobTimeout = 0
	}
	switch {
	case o.LivelockWindow == 0:
		o.LivelockWindow = 100000
	case o.LivelockWindow < 0:
		o.LivelockWindow = 0
	}
	switch {
	case o.RetryBudget == 0:
		o.RetryBudget = 3
	case o.RetryBudget < 0:
		o.RetryBudget = 0
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	switch {
	case o.MaxTraceBytes == 0:
		o.MaxTraceBytes = 8 << 20
	case o.MaxTraceBytes < 0:
		o.MaxTraceBytes = 0
	}
	if o.SampleK < 0 {
		o.SampleK = 0
	}
	if o.SampleBudget < 0 {
		o.SampleBudget = 0
	}
	if o.WalSync == "" {
		o.WalSync = "always"
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	return o
}

// jobState is a journal entry's lifecycle state. Every admitted job
// moves running → one terminal state; the drain path asserts no job
// is ever left behind in "running" without being counted aborted.
type jobState string

// Job journal states.
const (
	StateRunning    jobState = "running"
	StateCompleted  jobState = "completed"
	StateFailed     jobState = "failed"
	StateDegraded   jobState = "degraded"
	StateAborted    jobState = "aborted-at-drain"
	StateBadRequest jobState = "bad-request"
	// StateDeduped marks a job that repeated an already-known
	// idempotency key and was answered from the stored (or in-flight)
	// original result without running a session.
	StateDeduped jobState = "deduped"
)

// JobRecord is one admitted job's journal entry.
type JobRecord struct {
	Job   uint64
	File  string
	State jobState
	Races int
}

// Server is the daemon core. Create with New, expose with Serve (or
// mount Handler on an existing mux), stop with Drain.
type Server struct {
	opts Options
	m    metrics

	slots   chan struct{} // counting semaphore of session slots
	seq     atomic.Uint64 // admitted-job indices (faultinject's job selector)
	drainCh chan struct{} // closed when draining starts; unblocks queued waiters

	drainOnce sync.Once
	inflight  sync.WaitGroup

	mu      sync.Mutex
	journal map[uint64]*JobRecord
	servers []*http.Server

	// Durable state (nil / empty without Options.StateDir).
	store     *durable.Store
	recovered atomic.Bool // Recover ran (or was a no-op)

	keyMu sync.Mutex
	byKey map[string]*keyEntry
}

// keyEntry memoizes one idempotency key: the first job to claim the
// key runs; duplicates wait on done and are answered from res.
type keyEntry struct {
	job   uint64
	done  chan struct{}
	res   *JobResult
	state jobState
}

// New builds a daemon core with the given options.
func New(opts Options) *Server {
	o := opts.withDefaults()
	return &Server{
		opts:    o,
		slots:   make(chan struct{}, o.MaxSessions),
		drainCh: make(chan struct{}),
		journal: make(map[uint64]*JobRecord),
		byKey:   make(map[string]*keyEntry),
	}
}

func (s *Server) logf(format string, args ...any) {
	fmt.Fprintf(s.opts.Log, "racedetd: "+format+"\n", args...)
}

// Handler returns the daemon's HTTP API:
//
//	POST /analyze  submit a compile+analyze job (JSON JobRequest →
//	               JSON JobResult; 503 + Retry-After under load or
//	               while draining)
//	GET  /healthz  200 "ok" while admitting, 503 "draining" after
//	GET  /metrics  the counter set, text format
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/analyze", s.handleAnalyze)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Serve runs the API on l until Drain (or a listener error). It
// always closes l. The returned error is nil after a drain.
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	s.mu.Lock()
	s.servers = append(s.servers, hs)
	s.mu.Unlock()
	err := hs.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

// Metrics returns a point-in-time snapshot of the daemon's counters,
// including the live WAL store's gauges when durability is on.
func (s *Server) Metrics() Snapshot {
	snap := s.m.snapshot()
	if s.store != nil {
		st := s.store.Stats()
		snap.WalRecords = st.Records
		snap.WalCorruptTailTrunc = st.CorruptTailTruncations
		snap.WalAppendErrors = st.AppendErrors
		snap.WalFsyncMaxNs = st.FsyncMaxNs
	}
	return snap
}

func sortJobs(rs []JobRecord) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].Job < rs[j-1].Job; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}

// Draining reports whether the daemon has stopped admitting jobs.
func (s *Server) Draining() bool { return s.m.draining.Load() }

// DrainReport is the outcome of a Drain.
type DrainReport struct {
	// Clean is true when every in-flight job reached a terminal state
	// before the deadline.
	Clean bool
	// Aborted lists the jobs still running at the deadline; they are
	// journaled (and counted) as aborted-at-drain, never dropped
	// silently.
	Aborted []JobRecord
}

// Drain performs the graceful-shutdown sequence: stop admitting
// (healthz flips to draining, /analyze returns 503), wait up to
// timeout for in-flight jobs to finish, journal-and-count any job
// still running at the deadline, then close the listeners. Safe to
// call once; later calls return an empty clean report.
func (s *Server) Drain(timeout time.Duration) DrainReport {
	rep := DrainReport{Clean: true}
	s.drainOnce.Do(func() {
		s.m.draining.Store(true)
		close(s.drainCh)
		s.logf("draining: admission stopped, waiting up to %v for in-flight jobs", timeout)

		done := make(chan struct{})
		go func() {
			s.inflight.Wait()
			close(done)
		}()
		if timeout <= 0 {
			<-done
		} else {
			select {
			case <-done:
			case <-time.After(timeout):
				rep.Clean = false
			}
		}
		if !rep.Clean {
			// Deadline hit: every still-running job is explicitly
			// aborted in the journal and counted, so nothing is dropped
			// silently — the drain is reported unclean instead.
			s.mu.Lock()
			for _, r := range s.journal {
				if r.State == StateRunning {
					r.State = StateAborted
					s.m.jobsAbortedAtDrain.Add(1)
					rep.Aborted = append(rep.Aborted, *r)
				}
			}
			s.mu.Unlock()
			sortJobs(rep.Aborted)
		}

		s.mu.Lock()
		servers := s.servers
		s.mu.Unlock()
		for _, hs := range servers {
			hs.Close()
		}
		if s.store != nil {
			// Close the WAL last: a clean drain has no appends left; an
			// unclean one leaves aborted jobs' admit records incomplete
			// on purpose — the restarted daemon re-runs them.
			if err := s.store.Close(); err != nil {
				s.logf("drain: WAL close: %v", err)
			}
		}
		snap := s.m.snapshot()
		s.logf("drained: clean=%v admitted=%d terminal=%d aborted=%d",
			rep.Clean, snap.JobsAdmitted, snap.Terminal(), len(rep.Aborted))
	})
	return rep
}

// ForceClose abandons any graceful drain and closes the listeners
// immediately (the double-SIGTERM path). In-flight sessions are
// goroutines inside this process; the caller is expected to exit.
func (s *Server) ForceClose() {
	s.m.draining.Store(true)
	s.mu.Lock()
	servers := s.servers
	s.mu.Unlock()
	for _, hs := range servers {
		hs.Close()
	}
}

// ---------------------------------------------------------------------------
// HTTP handlers

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.Metrics().WriteTo(w)
}

// admit implements admission control: an immediate slot if one is
// free, else a bounded wait in the admission queue, else load-shed.
// It returns false when the job must be refused (queue full, injected
// queue-full fault, or drain started while queued).
func (s *Server) admit() bool {
	if f := s.opts.Faults; f != nil && f.AdmissionFull() {
		return false
	}
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	n := s.m.queueWaiting.Add(1)
	if int(n) > s.opts.QueueDepth {
		s.m.queueWaiting.Add(-1)
		return false
	}
	maxInt64(&s.m.queueHighWater, n)
	defer s.m.queueWaiting.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return true
	case <-s.drainCh:
		return false
	}
}

func (s *Server) release() { <-s.slots }

func (s *Server) journalStart(job uint64, file string) {
	s.mu.Lock()
	s.journal[job] = &JobRecord{Job: job, File: file, State: StateRunning}
	s.mu.Unlock()
}

// journalFinish moves a job to a terminal state. It reports whether
// the transition happened: false means the drain path already counted
// the job aborted, and the caller must not count it a second time —
// the admitted == terminal invariant is exact, not eventually
// consistent.
func (s *Server) journalFinish(job uint64, state jobState, races int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.journal[job]
	if !ok || r.State != StateRunning {
		return false
	}
	r.State = state
	r.Races = races
	return true
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if s.Draining() {
		s.m.jobsRejectedDraining.Add(1)
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if !s.admit() {
		if s.Draining() {
			s.m.jobsRejectedDraining.Add(1)
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		s.m.jobsShed.Add(1)
		w.Header().Set("Retry-After",
			strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
		http.Error(w, "all session slots and queue positions busy; retry later",
			http.StatusServiceUnavailable)
		return
	}

	// Admitted: from here on the job has a journal entry and must end
	// in a terminal state no matter what happens below.
	job := s.seq.Add(1)
	s.m.jobsAdmitted.Add(1)
	s.inflight.Add(1)
	active := s.m.sessionsActive.Add(1)
	maxInt64(&s.m.sessionsPeak, active)
	s.journalStart(job, "")
	defer func() {
		s.m.sessionsActive.Add(-1)
		s.release()
		s.inflight.Done()
	}()

	if f := s.opts.Faults; f != nil {
		if d := f.SlowClient(job); d > 0 {
			// A slow client stalls its own admitted session — bounded by
			// the session slot it occupies, not by daemon memory.
			s.m.slowClientStalls.Add(1)
			time.Sleep(d)
		}
	}

	var req JobRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, maxRequestBytes)).Decode(&req); err != nil {
		if s.journalFinish(job, StateBadRequest, 0) {
			s.m.jobsFailed.Add(1)
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if _, err := detectorFor(req.Detector); err != nil {
		if s.journalFinish(job, StateBadRequest, 0) {
			s.m.jobsFailed.Add(1)
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.validateTrace(req); err != nil {
		if s.journalFinish(job, StateBadRequest, 0) {
			s.m.jobsFailed.Add(1)
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := validateSampling(req); err != nil {
		if s.journalFinish(job, StateBadRequest, 0) {
			s.m.jobsFailed.Add(1)
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	if rec, ok := s.journal[job]; ok {
		rec.File = req.File
	}
	s.mu.Unlock()

	// Idempotency: a repeated key never runs a second session — it is
	// answered from the original job's result, waiting for it if the
	// original is still in flight.
	var ent *keyEntry
	if req.IdempotencyKey != "" {
		e, isNew := s.claimKey(req.IdempotencyKey, job)
		if !isNew {
			s.serveDuplicate(w, r, job, req, e)
			return
		}
		ent = e
	}

	// Durable admit: with a state dir, the job must be fsync'd to the
	// WAL before any acknowledgment can reach the client. A WAL that
	// cannot append (disk full, failed fsync) load-sheds — at-least-once
	// means the client retries a job the daemon could not make durable.
	admitted := false
	if s.store != nil {
		if err := s.appendAdmit(job, req); err != nil {
			s.dropKey(req.IdempotencyKey, ent)
			if s.journalFinish(job, StateFailed, 0) {
				s.m.jobsFailed.Add(1)
			}
			s.logf("job %d: WAL admit refused: %v", job, err)
			w.Header().Set("Retry-After",
				strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
			http.Error(w, "durability unavailable: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		admitted = true
	}

	if len(req.Trace) > 0 {
		s.m.traceJobs.Add(1)
	}

	// Injected client disconnect: the client is gone, but the admitted
	// session still runs to completion and is journaled — an abandoned
	// connection must never corrupt or lose an analysis.
	injectedDrop := false
	if f := s.opts.Faults; f != nil && f.ClientDisconnect(job) {
		injectedDrop = true
	}

	res := s.runSession(job, req)
	res.Job = job

	state := terminalState(res)
	if s.journalFinish(job, state, len(res.Races)+len(res.BaselineReports)) {
		switch state {
		case StateDegraded:
			s.m.jobsDegraded.Add(1)
		case StateFailed:
			s.m.jobsFailed.Add(1)
		default:
			s.m.jobsCompleted.Add(1)
		}
		// The result record is appended only for jobs the drain did not
		// already count aborted: an aborted job must stay incomplete in
		// the WAL so the restarted daemon re-runs it.
		if admitted {
			if err := s.appendResult(job, req.IdempotencyKey, state, res); err != nil {
				// The verdict still reaches the client; losing the result
				// record only means an idempotent re-run at the next boot.
				s.logf("job %d: WAL result append failed (job re-runs at restart): %v", job, err)
			}
		}
	}
	// Publish the key result even when the drain counted the job
	// aborted: duplicates waiting on the key must never hang.
	if ent != nil {
		s.resolveKey(ent, res, state)
	}
	s.logf("job %d: file=%q state=%s races=%d retries=%d",
		job, req.File, state, len(res.Races), res.Retries)

	if injectedDrop || r.Context().Err() != nil {
		// Client vanished mid-request (injected or real): the work is
		// already journaled and counted; just tear the connection down.
		s.m.clientDisconnects.Add(1)
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
			}
		}
		return
	}

	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// maxRequestBytes bounds an /analyze request body (16 MiB is orders of
// magnitude above any MJ program; the bound exists so a misbehaving
// client cannot OOM the daemon through one request).
const maxRequestBytes = 16 << 20

// validateTrace vets a replay job at admission: a trace is mutually
// exclusive with Source, bounded by MaxTraceBytes, and must carry a
// well-formed header, trailer, and table section before it is allowed
// to occupy a session slot. Segment payloads are NOT decoded here —
// mid-stream corruption surfaces inside the session as a structured
// runtime failure, exactly like any other failed analysis.
func (s *Server) validateTrace(req JobRequest) error {
	if len(req.Trace) == 0 {
		return nil
	}
	if req.Source != "" {
		return fmt.Errorf("source and trace are mutually exclusive")
	}
	if max := s.opts.MaxTraceBytes; max > 0 && len(req.Trace) > max {
		return fmt.Errorf("trace is %d bytes, above the daemon's %d-byte limit", len(req.Trace), max)
	}
	if _, err := trace.NewReader(req.Trace); err != nil {
		return err
	}
	return nil
}

// validateSampling vets a job's throttling overrides at admission: a
// budget outside [0, 1] can never be satisfied and is refused before
// the job occupies a session slot. SampleK's sign is meaningful and
// never rejected (> 0 overrides the daemon default, < 0 forces
// throttling off).
func validateSampling(req JobRequest) error {
	if req.SampleBudget < 0 || req.SampleBudget > 1 {
		return fmt.Errorf("sample_budget must be in [0, 1] (got %g)", req.SampleBudget)
	}
	switch req.Priors {
	case "", "off":
	case "on", "invert":
		if req.SampleK < 0 {
			return fmt.Errorf("priors %q seed the sampler, but sample_k < 0 forces throttling off", req.Priors)
		}
		if len(req.Trace) > 0 {
			return fmt.Errorf("priors need a compiled program to take tiers from; trace jobs cannot use them")
		}
		if req.NoStatic {
			return fmt.Errorf("priors come from the static lock-discipline tiers; drop nostatic")
		}
	default:
		return fmt.Errorf(`priors must be "on", "off", or "invert" (got %q)`, req.Priors)
	}
	return nil
}

// detectorFor maps the wire detector name to racedet's enum.
func detectorFor(name string) (racedet.Detector, error) {
	switch name {
	case "", "trie":
		return racedet.Trie, nil
	case "eraser":
		return racedet.Eraser, nil
	case "objectrace":
		return racedet.ObjectRace, nil
	case "hb", "vclock":
		return racedet.HappensBefore, nil
	}
	return 0, fmt.Errorf("unknown detector %q", name)
}
