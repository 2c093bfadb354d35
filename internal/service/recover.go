// Crash recovery and idempotency: the service side of the durable WAL
// (internal/service/durable). With Options.StateDir set, every
// admitted job is fsync'd to the log before the client can see an
// acknowledgment, and Server.Recover — which the daemon runs before
// serving — replays the log after an ungraceful death:
//
//   - admit + result  → the job completed; a keyed result stays
//     servable, so resubmitting its idempotency key returns the stored
//     verdict without running anything.
//   - admit only      → the job was acknowledged but never finished
//     (kill -9 mid-analysis, or aborted at a drain deadline). It
//     re-runs through the normal session path; the deterministic
//     scheduler makes the re-run verdict byte-identical to the one the
//     crash destroyed.
//   - neither         → the job was never acknowledged; the client's
//     retry (at-least-once, with an idempotency key) is the recovery.
package service

import (
	"encoding/json"
	"fmt"
	"net/http"

	"racedet/internal/service/durable"
)

// RecoveryReport summarizes what Server.Recover found and did.
type RecoveryReport struct {
	// Enabled is false when the server runs without a state dir.
	Enabled bool
	// Replayed counts whole WAL records found on disk.
	Replayed int
	// Completed counts jobs whose stored results were restored (keyed
	// ones become servable by idempotency key).
	Completed int
	// Rerun counts admitted-but-incomplete jobs re-executed now.
	Rerun int
	// Deduped counts incomplete jobs skipped because an earlier job
	// with the same idempotency key already ran.
	Deduped int
	// TailTruncated/TruncatedBytes report a torn tail cut off at open
	// (the normal aftermath of a crash mid-append).
	TailTruncated  bool
	TruncatedBytes int64
}

// Recover opens the durable job journal and replays it: it must be
// called once, before the server starts serving, whenever StateDir is
// set. Incomplete jobs re-run synchronously here — the daemon comes up
// only after every acknowledged job has a result again. A corrupt
// middle of the WAL (damage no crash can produce) returns the
// structured *durable.FormatError and the daemon must not start.
func (s *Server) Recover() (RecoveryReport, error) {
	var rep RecoveryReport
	if !s.recovered.CompareAndSwap(false, true) {
		return rep, fmt.Errorf("service: Recover called twice")
	}
	if s.opts.StateDir == "" {
		return rep, nil
	}
	var mode durable.SyncMode
	switch s.opts.WalSync {
	case "always":
		mode = durable.SyncAlways
	case "none":
		mode = durable.SyncNone
	default:
		return rep, fmt.Errorf("service: unknown WalSync %q (want \"always\" or \"none\")", s.opts.WalSync)
	}
	var faults durable.DiskFaults
	if s.opts.Faults != nil {
		faults = s.opts.Faults
	}
	store, recv, err := durable.Open(durable.Options{Dir: s.opts.StateDir, Sync: mode, Faults: faults})
	if err != nil {
		return rep, err
	}
	s.store = store
	rep.Enabled = true
	rep.Replayed = len(recv.Records)
	rep.TailTruncated = recv.TailTruncated
	rep.TruncatedBytes = recv.TruncatedBytes

	// Index the log. Job indices continue past everything the log has
	// seen, so new admissions never collide with stored records.
	completed := make(map[uint64]bool)
	var maxJob uint64
	for _, r := range recv.Records {
		if r.Job > maxJob {
			maxJob = r.Job
		}
		if r.Kind == durable.KindResult {
			completed[r.Job] = true
		}
	}
	s.seq.Store(maxJob)

	// keep is the compacted log: stored results of keyed jobs (their
	// admit records are redundant — the result alone carries the key
	// and verdict) plus the results of jobs re-run below. Keyless
	// completed jobs are unqueryable after the fact and compact away.
	var keep []durable.Record
	for _, r := range recv.Records {
		if r.Kind != durable.KindResult {
			continue
		}
		rep.Completed++
		if r.Key == "" {
			continue
		}
		var res JobResult
		if err := json.Unmarshal(r.Result, &res); err != nil {
			// The record passed its checksum, so this is a version skew
			// or a bug, not disk damage; the job is complete either way.
			s.logf("recover: job %d: undecodable stored result dropped: %v", r.Job, err)
			continue
		}
		s.publishStored(r.Key, r.Job, &res, jobState(r.State))
		keep = append(keep, r)
	}

	// Re-run incomplete jobs in admit order through the same journal,
	// session, metrics, and WAL paths a live request takes.
	for _, r := range recv.Records {
		if r.Kind != durable.KindAdmit || completed[r.Job] {
			continue
		}
		var req JobRequest
		if err := json.Unmarshal(r.Request, &req); err != nil {
			s.logf("recover: job %d: undecodable admit record dropped: %v", r.Job, err)
			continue
		}
		if req.IdempotencyKey != "" {
			if _, isNew := s.claimKey(req.IdempotencyKey, r.Job); !isNew {
				// A duplicate admission of a key that already has (or just
				// re-ran) an owner: terminal as deduped, nothing to run.
				s.m.jobsAdmitted.Add(1)
				s.journalStart(r.Job, req.File)
				if s.journalFinish(r.Job, StateDeduped, 0) {
					s.m.jobsDeduped.Add(1)
				}
				rep.Deduped++
				continue
			}
		}
		keep = append(keep, s.rerun(r.Job, req))
		rep.Rerun++
	}

	// Compact: the re-written log holds only what future boots need.
	if len(keep) != rep.Replayed {
		if err := s.store.Compact(keep); err != nil {
			// Non-fatal: the uncompacted log is still correct, just big.
			s.logf("recover: compaction failed (log kept as-is): %v", err)
		}
	}
	s.logf("recovered: replayed=%d completed=%d rerun=%d deduped=%d tail_truncated=%v",
		rep.Replayed, rep.Completed, rep.Rerun, rep.Deduped, rep.TailTruncated)
	return rep, nil
}

// rerun executes one recovered job through the normal lifecycle and
// returns its result record for the compacted log.
func (s *Server) rerun(job uint64, req JobRequest) durable.Record {
	s.m.jobsAdmitted.Add(1)
	s.m.jobsRecovered.Add(1)
	s.journalStart(job, req.File)
	if len(req.Trace) > 0 {
		s.m.traceJobs.Add(1)
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
	}
	if err := s.appendResult(job, req.IdempotencyKey, state, res); err != nil {
		s.logf("recover: job %d: WAL result append failed (re-runs again next boot): %v", job, err)
	}
	if req.IdempotencyKey != "" {
		s.keyMu.Lock()
		ent := s.byKey[req.IdempotencyKey]
		s.keyMu.Unlock()
		if ent != nil && ent.job == job {
			s.resolveKey(ent, res, state)
		}
	}
	s.logf("recover: job %d: file=%q state=%s races=%d (re-run of a lost job)",
		job, req.File, state, len(res.Races))
	resJSON, err := json.Marshal(res)
	if err != nil {
		resJSON = nil
	}
	return durable.Record{
		Kind:   durable.KindResult,
		Job:    job,
		Key:    req.IdempotencyKey,
		State:  string(state),
		Result: resJSON,
	}
}

// terminalState maps a finished session result to its journal state.
func terminalState(res JobResult) jobState {
	switch {
	case res.Degraded:
		return StateDegraded
	case res.CompileError != "" || res.RuntimeError != "":
		return StateFailed
	}
	return StateCompleted
}

// ---------------------------------------------------------------------------
// WAL append helpers

func (s *Server) appendAdmit(job uint64, req JobRequest) error {
	reqJSON, err := json.Marshal(req)
	if err != nil {
		return err
	}
	return s.store.Append(durable.Record{
		Kind:    durable.KindAdmit,
		Job:     job,
		Key:     req.IdempotencyKey,
		Request: reqJSON,
	})
}

func (s *Server) appendResult(job uint64, key string, state jobState, res JobResult) error {
	resJSON, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return s.store.Append(durable.Record{
		Kind:   durable.KindResult,
		Job:    job,
		Key:    key,
		State:  string(state),
		Result: resJSON,
	})
}

// ---------------------------------------------------------------------------
// Idempotency keys

// claimKey registers a key's owning job. isNew is false when the key
// already has an owner — the caller must answer from that entry
// instead of running a session.
func (s *Server) claimKey(key string, job uint64) (e *keyEntry, isNew bool) {
	s.keyMu.Lock()
	defer s.keyMu.Unlock()
	if e, ok := s.byKey[key]; ok {
		return e, false
	}
	e = &keyEntry{job: job, done: make(chan struct{})}
	s.byKey[key] = e
	return e, true
}

// resolveKey publishes the owner's result and wakes every waiting
// duplicate. Called exactly once per claimed entry.
func (s *Server) resolveKey(e *keyEntry, res JobResult, state jobState) {
	s.keyMu.Lock()
	e.res = &res
	e.state = state
	s.keyMu.Unlock()
	close(e.done)
}

// publishStored registers an already-resolved entry (a result replayed
// from the WAL at recovery).
func (s *Server) publishStored(key string, job uint64, res *JobResult, state jobState) {
	s.keyMu.Lock()
	defer s.keyMu.Unlock()
	if _, ok := s.byKey[key]; ok {
		return
	}
	done := make(chan struct{})
	close(done)
	s.byKey[key] = &keyEntry{job: job, done: done, res: res, state: state}
}

// dropKey forgets a claimed key whose admit the WAL refused: nothing
// durable references it, so a client retry must be able to claim it
// fresh. Waiting duplicates wake to a nil result and load-shed.
func (s *Server) dropKey(key string, e *keyEntry) {
	if e == nil {
		return
	}
	s.keyMu.Lock()
	if s.byKey[key] == e {
		delete(s.byKey, key)
	}
	s.keyMu.Unlock()
	close(e.done)
}

// serveDuplicate answers an admitted job that repeated an existing
// idempotency key: wait for the original (if still in flight), then
// return its stored result. The duplicate occupies its session slot
// while waiting — bounded by admission control like any job.
func (s *Server) serveDuplicate(w http.ResponseWriter, r *http.Request, job uint64, req JobRequest, e *keyEntry) {
	select {
	case <-e.done:
	case <-r.Context().Done():
		if s.journalFinish(job, StateFailed, 0) {
			s.m.jobsFailed.Add(1)
		}
		s.m.clientDisconnects.Add(1)
		return
	}
	s.keyMu.Lock()
	res := e.res
	s.keyMu.Unlock()
	if res == nil {
		// The original's admit was refused by the WAL after we started
		// waiting; shed so the client retries into a fresh claim.
		if s.journalFinish(job, StateFailed, 0) {
			s.m.jobsFailed.Add(1)
		}
		http.Error(w, "durability unavailable: original submission was not admitted",
			http.StatusServiceUnavailable)
		return
	}
	races := len(res.Races) + len(res.BaselineReports)
	if s.journalFinish(job, StateDeduped, races) {
		s.m.jobsDeduped.Add(1)
	}
	s.logf("job %d: file=%q state=%s key=%q (stored result of job %d)",
		job, req.File, StateDeduped, req.IdempotencyKey, e.job)
	out := *res
	out.Deduped = true
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// Recovered reports whether Recover already ran (used by tests).
func (s *Server) Recovered() bool { return s.recovered.Load() }
