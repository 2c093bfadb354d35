// Service-level durability tests: idempotency keys, the WAL admit
// barrier, restart recovery, drain interaction, and the fact-cache
// degradation — the crash-safety contract as a client observes it.
package service

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"racedet/internal/service/durable"
)

// stateServer boots a durable Server on dir, runs Recover (as the
// daemon does before serving), and points a client at it.
func stateServer(t *testing.T, dir string, opts Options) (*Server, *Client, RecoveryReport, func()) {
	t.Helper()
	opts.StateDir = dir
	s := New(opts)
	rep, err := s.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !rep.Enabled {
		t.Fatal("recovery not enabled despite StateDir")
	}
	ts := httptest.NewServer(s.Handler())
	return s, &Client{Base: ts.URL}, rep, ts.Close
}

func TestIdempotencyKeyDedupes(t *testing.T) {
	s, c, _, stop := stateServer(t, t.TempDir(), Options{})
	defer stop()

	req := JobRequest{File: "racy.mj", Source: racyProg, IdempotencyKey: "job-1"}
	first, err := c.Analyze(req)
	if err != nil {
		t.Fatalf("first analyze: %v", err)
	}
	if first.Deduped || len(first.Races) == 0 {
		t.Fatalf("first submission not a fresh racy run: %+v", first)
	}

	again, err := c.Analyze(req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !again.Deduped {
		t.Fatal("resubmitted key was re-analyzed instead of deduped")
	}
	if again.Job != first.Job {
		t.Errorf("deduped Job = %d, want original %d", again.Job, first.Job)
	}
	if !reflect.DeepEqual(again.Races, first.Races) {
		t.Errorf("stored races differ from original:\n got %+v\nwant %+v", again.Races, first.Races)
	}

	// A different request body under the same key still gets the first
	// job's result — the key is the identity, by contract.
	other, err := c.Analyze(JobRequest{File: "clean.mj", Source: cleanProg, IdempotencyKey: "job-1"})
	if err != nil {
		t.Fatalf("same key, different body: %v", err)
	}
	if !other.Deduped || len(other.Races) == 0 {
		t.Errorf("key identity broken: %+v", other)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["jobs_admitted"] != 3 || m["jobs_completed"] != 1 || m["jobs_deduped"] != 2 {
		t.Errorf("admitted=%d completed=%d deduped=%d, want 3/1/2",
			m["jobs_admitted"], m["jobs_completed"], m["jobs_deduped"])
	}
	// One admit + one result made it to the WAL; dedups append nothing.
	if m["wal_records"] != 2 {
		t.Errorf("wal_records = %d, want 2", m["wal_records"])
	}
	if m["wal_fsync_max_ns"] <= 0 {
		t.Error("fsync high-water not recorded despite SyncAlways appends")
	}
	if got := s.Metrics(); got.Terminal() != got.JobsAdmitted {
		t.Errorf("terminal=%d admitted=%d", got.Terminal(), got.JobsAdmitted)
	}
}

func TestIdempotencyKeyWorksWithoutStateDir(t *testing.T) {
	// No state dir: keys still dedupe within the process lifetime.
	_, c, stop := newTestServer(t, Options{})
	defer stop()

	req := JobRequest{File: "racy.mj", Source: racyProg, IdempotencyKey: "mem-only"}
	first, err := c.Analyze(req)
	if err != nil {
		t.Fatalf("first analyze: %v", err)
	}
	again, err := c.Analyze(req)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if !again.Deduped || !reflect.DeepEqual(again.Races, first.Races) {
		t.Errorf("in-memory dedup broken: %+v", again)
	}
}

func TestWalAdmitFailureLoadSheds(t *testing.T) {
	// Disk op 1 is the fresh log's magic; op 2 is the first admit
	// append, which the injected short write tears. The admit barrier
	// must refuse the job with a retryable 503 — never acknowledge an
	// analysis the daemon could not make durable.
	s, c, _, stop := stateServer(t, t.TempDir(), Options{
		RetryAfter: time.Hour,
		Faults:     mustPlan(t, "shortwrite:disk=wal,at=2"),
	})
	defer stop()

	req := JobRequest{File: "racy.mj", Source: racyProg, IdempotencyKey: "torn"}
	_, err := c.Analyze(req)
	var u *Unavailable
	if !errors.As(err, &u) || u.RetryAfter != time.Hour {
		t.Fatalf("torn admit: err = %v, want a 503 with Retry-After 1h", err)
	}

	// The fault was one-shot: a client retry (at-least-once) succeeds,
	// and the key — dropped when its admit was refused — is claimable.
	res, err := c.Analyze(req)
	if err != nil {
		t.Fatalf("retry after torn admit: %v", err)
	}
	if res.Deduped || len(res.Races) == 0 {
		t.Fatalf("retry did not run fresh: %+v", res)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["wal_append_errors"] != 1 {
		t.Errorf("wal_append_errors = %d, want 1", m["wal_append_errors"])
	}
	if m["jobs_failed"] != 1 || m["jobs_completed"] != 1 {
		t.Errorf("failed=%d completed=%d, want 1/1", m["jobs_failed"], m["jobs_completed"])
	}
	if got := s.Metrics(); got.Terminal() != got.JobsAdmitted {
		t.Errorf("terminal=%d admitted=%d", got.Terminal(), got.JobsAdmitted)
	}
}

func TestRecoveryRerunsIncompleteJob(t *testing.T) {
	// Simulate a kill -9 after acknowledgment: the WAL holds an admit
	// record with no result. The restarted daemon must re-run it before
	// serving, and the deterministic seed makes the recovered verdict
	// identical to the one the crash destroyed.
	dir := t.TempDir()
	st, _, err := durable.Open(durable.Options{Dir: dir, Sync: durable.SyncAlways})
	if err != nil {
		t.Fatalf("seeding WAL: %v", err)
	}
	req := JobRequest{File: "racy.mj", Source: racyProg, Seed: 3, IdempotencyKey: "lost"}
	reqJSON, _ := json.Marshal(req)
	// The admit record still carries the retired "shards" and "batch"
	// keys, as records written by older daemons do; recovery decodes
	// the request unchanged.
	reqJSON = append([]byte(`{"shards":4,"batch":64,`), reqJSON[1:]...)
	if err := st.Append(durable.Record{Kind: durable.KindAdmit, Job: 7, Key: req.IdempotencyKey, Request: reqJSON}); err != nil {
		t.Fatalf("seeding admit: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("closing seed WAL: %v", err)
	}

	s, c, rep, stop := stateServer(t, dir, Options{})
	defer stop()
	if rep.Rerun != 1 || rep.Completed != 0 {
		t.Fatalf("recovery = %+v, want exactly one re-run", rep)
	}

	// The client's retry of the lost acknowledgment is answered from
	// the re-run's stored result, not a third execution.
	res, err := c.Analyze(req)
	if err != nil {
		t.Fatalf("post-recovery resubmit: %v", err)
	}
	if !res.Deduped || res.Job != 7 {
		t.Fatalf("resubmit not served from recovered job 7: %+v", res)
	}
	ref := oneShot(t, "racy.mj", racyProg, 3)
	if !reflect.DeepEqual(res.Races, ref.Races) {
		t.Errorf("recovered races differ from one-shot reference:\n got %+v\nwant %+v", res.Races, ref.Races)
	}

	m := s.Metrics()
	if m.JobsRecovered != 1 || m.JobsDeduped != 1 || m.JobsCompleted != 1 {
		t.Errorf("recovered=%d deduped=%d completed=%d, want 1/1/1",
			m.JobsRecovered, m.JobsDeduped, m.JobsCompleted)
	}
	if m.Terminal() != m.JobsAdmitted {
		t.Errorf("terminal=%d admitted=%d", m.Terminal(), m.JobsAdmitted)
	}
	// Job indices continue past everything the WAL had seen.
	if next, err := c.Analyze(JobRequest{File: "clean.mj", Source: cleanProg}); err != nil {
		t.Fatalf("post-recovery fresh job: %v", err)
	} else if next.Job <= 7 {
		t.Errorf("fresh job index %d collides with recovered log (max 7)", next.Job)
	}
}

func TestStoredResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, c1, _, stop1 := stateServer(t, dir, Options{})
	req := JobRequest{File: "racy.mj", Source: racyProg, IdempotencyKey: "keep"}
	first, err := c1.Analyze(req)
	if err != nil {
		t.Fatalf("analyze on first boot: %v", err)
	}
	stop1()
	s1.Drain(time.Second) // closes the WAL cleanly

	s2, c2, rep, stop2 := stateServer(t, dir, Options{})
	defer stop2()
	if rep.Completed != 1 || rep.Rerun != 0 {
		t.Fatalf("recovery = %+v, want one restored result and no re-runs", rep)
	}
	res, err := c2.Analyze(req)
	if err != nil {
		t.Fatalf("resubmit after restart: %v", err)
	}
	if !res.Deduped || res.Job != first.Job {
		t.Fatalf("restart lost the stored result: %+v", res)
	}
	if !reflect.DeepEqual(res.Races, first.Races) {
		t.Errorf("stored races drifted across restart:\n got %+v\nwant %+v", res.Races, first.Races)
	}
	m := s2.Metrics()
	if m.JobsCompleted != 0 || m.JobsDeduped != 1 {
		t.Errorf("completed=%d deduped=%d on second boot, want 0/1 (no re-analysis)", m.JobsCompleted, m.JobsDeduped)
	}
}

func TestRecoveryCompactsLog(t *testing.T) {
	// A keyless completed job is unqueryable after the fact; its two
	// records must compact away at the next boot.
	dir := t.TempDir()
	s1, c1, _, stop1 := stateServer(t, dir, Options{})
	if _, err := c1.Analyze(JobRequest{File: "racy.mj", Source: racyProg}); err != nil {
		t.Fatalf("keyless job: %v", err)
	}
	if _, err := c1.Analyze(JobRequest{File: "clean.mj", Source: cleanProg, IdempotencyKey: "kept"}); err != nil {
		t.Fatalf("keyed job: %v", err)
	}
	stop1()
	s1.Drain(time.Second)

	s2, _, rep, stop2 := stateServer(t, dir, Options{})
	if rep.Replayed != 4 || rep.Completed != 2 {
		t.Fatalf("recovery = %+v, want 4 replayed / 2 completed", rep)
	}
	stop2()
	s2.Drain(time.Second)

	// Third boot sees only the keyed result the compaction kept.
	_, c3, rep3, stop3 := stateServer(t, dir, Options{})
	defer stop3()
	if rep3.Replayed != 1 || rep3.Completed != 1 {
		t.Fatalf("post-compaction recovery = %+v, want exactly the keyed result", rep3)
	}
	res, err := c3.Analyze(JobRequest{File: "clean.mj", Source: cleanProg, IdempotencyKey: "kept"})
	if err != nil || !res.Deduped {
		t.Fatalf("keyed result lost by compaction: res=%+v err=%v", res, err)
	}
}

func TestCorruptWalMiddleRefusesToStart(t *testing.T) {
	dir := t.TempDir()
	s1, c1, _, stop1 := stateServer(t, dir, Options{})
	if _, err := c1.Analyze(JobRequest{File: "racy.mj", Source: racyProg, IdempotencyKey: "a"}); err != nil {
		t.Fatalf("seed job: %v", err)
	}
	stop1()
	s1.Drain(time.Second)

	// Flip a byte in the middle of the log (inside the first record,
	// with a valid record after it): damage no crash can produce.
	path := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[20] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := New(Options{StateDir: dir})
	_, err = s2.Recover()
	var fe *durable.FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("Recover on a corrupt-middle WAL: err = %v, want *durable.FormatError", err)
	}
}

func TestFactcacheWriteFailureDegradesJob(t *testing.T) {
	// The fact-cache dir is a regular file: every store fails. The job
	// must still complete cleanly — cache trouble costs warmth, never
	// an analysis — with the degradation counted.
	blocked := filepath.Join(t.TempDir(), "cache")
	if err := os.WriteFile(blocked, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, c, stop := newTestServer(t, Options{FactCacheDir: blocked})
	defer stop()

	res, err := c.Analyze(JobRequest{File: "racy.mj", Source: racyProg})
	if err != nil {
		t.Fatalf("analyze with broken fact cache: %v", err)
	}
	if res.CompileError != "" || res.RuntimeError != "" || res.Degraded {
		t.Fatalf("broken fact cache failed the job: %+v", res)
	}
	if len(res.Races) == 0 {
		t.Errorf("verdict lost: %+v", res)
	}
	if res.Stats.FactCacheWriteErrors == 0 {
		t.Error("fact-cache degradation not counted in job stats")
	}
	if m := s.Metrics(); m.FactcacheWriteErrors == 0 {
		t.Error("factcache_write_errors metric not incremented")
	}
}

func TestDrainAbortMidReplayLeavesWalIncomplete(t *testing.T) {
	// A trace-replay job's first attempt panics and its retry waits out
	// a long backoff, so the daemon drains with a deadline it cannot
	// meet. The job must be
	// counted aborted_at_drain, its WAL admit must stay incomplete, and
	// the restarted daemon must re-run it to the full verdict.
	traceBytes, live := recordTrace(t, "racy.mj", racyProg, 0)

	dir := t.TempDir()
	plan := mustPlan(t, "session-panic:job=1")
	s1, c1, _, stop1 := stateServer(t, dir, Options{Faults: plan, RetryBackoff: 400 * time.Millisecond})

	req := JobRequest{File: "racy.mj", Trace: traceBytes, IdempotencyKey: "replay"}
	go c1.Analyze(req) // the response is lost to the drain; the WAL is the test

	deadline := time.Now().Add(5 * time.Second)
	for s1.Metrics().TraceJobs == 0 || s1.Metrics().SessionsActive == 0 {
		if time.Now().After(deadline) {
			t.Fatal("replay job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	rep := s1.Drain(20 * time.Millisecond)
	if rep.Clean || len(rep.Aborted) != 1 {
		t.Fatalf("drain = %+v, want one aborted job", rep)
	}
	m1 := s1.Metrics()
	if m1.JobsAbortedAtDrain != 1 {
		t.Fatalf("jobs_aborted_at_drain = %d, want 1", m1.JobsAbortedAtDrain)
	}
	if m1.Terminal() != m1.JobsAdmitted {
		t.Errorf("terminal=%d admitted=%d after unclean drain", m1.Terminal(), m1.JobsAdmitted)
	}
	stop1()

	// Restart without the fault: the incomplete admit re-runs and the
	// lost client's retry is served from the recovered result.
	s2, c2, rec, stop2 := stateServer(t, dir, Options{})
	defer stop2()
	if rec.Rerun != 1 {
		t.Fatalf("recovery = %+v, want the aborted job re-run", rec)
	}
	res, err := c2.Analyze(req)
	if err != nil {
		t.Fatalf("retry after restart: %v", err)
	}
	if !res.Deduped {
		t.Fatalf("retry re-analyzed instead of using the recovered result: %+v", res)
	}
	// Replay has no source to attribute static partners to; compare the
	// dynamic verdict (same strip the live trace tests use).
	if !reflect.DeepEqual(res.Races, stripPartners(live.Races)) {
		t.Errorf("recovered replay races differ from the live run:\n got %+v\nwant %+v", res.Races, live.Races)
	}
	if m := s2.Metrics(); m.JobsRecovered != 1 {
		t.Errorf("jobs_recovered = %d, want 1", m.JobsRecovered)
	}
}
