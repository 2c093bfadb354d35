package service

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"racedet"
	"racedet/internal/faultinject"
)

// Jobs returns a copy of the job journal, sorted by job index.
func (s *Server) Jobs() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobRecord, 0, len(s.journal))
	for _, r := range s.journal {
		out = append(out, *r)
	}
	sortJobs(out)
	return out
}

const racyProg = `
class Data { int f; }
class Worker extends Thread {
    Data d;
    Worker(Data d0) { d = d0; }
    void run() { d.f = d.f + 1; }
}
class Main {
    static void main() {
        Data x = new Data();
        x.f = 0;
        Worker a = new Worker(x);
        Worker b = new Worker(x);
        a.start(); b.start(); a.join(); b.join();
        print(x.f);
    }
}`

var cleanProg = strings.Replace(racyProg,
	"void run() { d.f = d.f + 1; }",
	"void run() { synchronized (d) { d.f = d.f + 1; } }", 1)

// spinProg races first, then spins productively forever: the per-job
// wall-clock watchdog has to abort it, and the already-found races
// must survive into the partial report.
var spinProg = strings.Replace(racyProg,
	"print(x.f);",
	"print(x.f); while (true) { x.f = x.f + 1; }", 1)

// newTestServer wires a Server to a real HTTP listener and returns a
// client pointed at it.
func newTestServer(t *testing.T, opts Options) (*Server, *Client, func()) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	return s, &Client{Base: ts.URL}, ts.Close
}

// mustPlan parses a fault spec or fails the test.
func mustPlan(t *testing.T, spec string) *faultinject.Plan {
	t.Helper()
	p, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatalf("faultinject.Parse(%q): %v", spec, err)
	}
	return p
}

// oneShot runs the same program through the public one-shot API with
// the daemon-equivalent options: the reference verdict.
func oneShot(t *testing.T, file, src string, seed int64) *racedet.Result {
	t.Helper()
	res, err := racedet.Detect(file, src, racedet.Options{Seed: seed})
	if err != nil {
		t.Fatalf("one-shot Detect(%s): %v", file, err)
	}
	return res
}

func TestAnalyzeRacyAndClean(t *testing.T) {
	s, c, stop := newTestServer(t, Options{})
	defer stop()

	if err := c.Health(); err != nil {
		t.Fatalf("healthz: %v", err)
	}

	racy, err := c.Analyze(JobRequest{File: "racy.mj", Source: racyProg})
	if err != nil {
		t.Fatalf("analyze racy: %v", err)
	}
	if len(racy.Races) == 0 {
		t.Fatalf("racy program reported no races: %+v", racy)
	}
	if racy.Races[0].Field != "Data.f" {
		t.Errorf("race field = %q, want Data.f", racy.Races[0].Field)
	}
	if racy.CompileError != "" || racy.RuntimeError != "" || racy.Degraded {
		t.Errorf("racy job not clean: %+v", racy)
	}
	if racy.Job == 0 {
		t.Error("job index not assigned")
	}

	clean, err := c.Analyze(JobRequest{File: "clean.mj", Source: cleanProg})
	if err != nil {
		t.Fatalf("analyze clean: %v", err)
	}
	if len(clean.Races) != 0 {
		t.Errorf("clean program reported races: %+v", clean.Races)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["jobs_admitted"] != 2 || m["jobs_completed"] != 2 {
		t.Errorf("admitted=%d completed=%d, want 2/2", m["jobs_admitted"], m["jobs_completed"])
	}
	if m["races_reported"] == 0 {
		t.Error("races_reported not counted")
	}
	if got := s.Metrics(); got.Terminal() != got.JobsAdmitted {
		t.Errorf("terminal=%d admitted=%d", got.Terminal(), got.JobsAdmitted)
	}
}

func TestDetectorSelection(t *testing.T) {
	_, c, stop := newTestServer(t, Options{})
	defer stop()

	res, err := c.Analyze(JobRequest{File: "racy.mj", Source: racyProg, Detector: "eraser"})
	if err != nil {
		t.Fatalf("analyze eraser: %v", err)
	}
	found := false
	for _, r := range res.BaselineReports {
		if strings.Contains(r, "ERASER RACE") {
			found = true
		}
	}
	if !found {
		t.Errorf("eraser job missing baseline reports: %+v", res)
	}
}

// TestShardsFieldIgnored pins wire compatibility: the retired job JSON
// fields "shards" and "batch" are still accepted, and ignored, so a
// job that sets them gets exactly the verdict of one that does not.
func TestShardsFieldIgnored(t *testing.T) {
	_, c, stop := newTestServer(t, Options{})
	defer stop()

	post := func(body map[string]any) JobResult {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(c.Base+"/analyze", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", data, resp.StatusCode)
		}
		var res JobResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := map[string]any{"file": "racy.mj", "source": racyProg, "seed": 3}
	want := post(base)
	if len(want.Races) == 0 || want.CompileError != "" || want.RuntimeError != "" {
		t.Fatalf("reference job: %+v", want)
	}
	for _, extra := range []map[string]any{{"shards": 4}, {"shards": -1}, {"batch": 64}} {
		body := map[string]any{}
		for k, v := range base {
			body[k] = v
		}
		for k, v := range extra {
			body[k] = v
		}
		got := post(body)
		if !reflect.DeepEqual(got.Races, want.Races) || got.RacyObjects != want.RacyObjects ||
			got.Output != want.Output || !reflect.DeepEqual(got.Stats, want.Stats) {
			t.Errorf("%v changed the verdict:\n got %+v\nwant %+v", extra, got, want)
		}
	}
}

func TestSessionPanicRetriedMatchesOneShot(t *testing.T) {
	const seed = 7
	s, c, stop := newTestServer(t, Options{
		RetryBudget:  3,
		RetryBackoff: time.Millisecond,
		Faults:       mustPlan(t, "session-panic:job=1,times=2"),
	})
	defer stop()

	got, err := c.Analyze(JobRequest{File: "racy.mj", Source: racyProg, Seed: seed})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if got.Retries != 2 {
		t.Errorf("retries = %d, want 2", got.Retries)
	}
	if got.Degraded {
		t.Errorf("job degraded despite retry budget: %+v", got)
	}

	want := oneShot(t, "racy.mj", racyProg, seed)
	if !reflect.DeepEqual(got.Races, want.Races) {
		t.Errorf("retried session races diverge from one-shot:\n got %+v\nwant %+v",
			got.Races, want.Races)
	}
	if got.Output != want.Output {
		t.Errorf("output diverges: got %q want %q", got.Output, want.Output)
	}

	m := s.Metrics()
	if m.SessionPanics != 2 || m.SessionRetries != 2 {
		t.Errorf("panics=%d retries=%d, want 2/2", m.SessionPanics, m.SessionRetries)
	}
	if m.JobsCompleted != 1 {
		t.Errorf("jobs_completed = %d, want 1", m.JobsCompleted)
	}
}

func TestRetryBudgetExhaustedDegradesToEraser(t *testing.T) {
	s, c, stop := newTestServer(t, Options{
		RetryBudget:  1,
		RetryBackoff: time.Millisecond,
		Faults:       mustPlan(t, "session-panic:job=1,times=9"),
	})
	defer stop()

	got, err := c.Analyze(JobRequest{File: "racy.mj", Source: racyProg})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if !got.Degraded {
		t.Fatalf("job should be degraded: %+v", got)
	}
	if !strings.Contains(got.DegradedReason, "injected session panic") {
		t.Errorf("degraded reason = %q, want the injected panic text", got.DegradedReason)
	}
	found := false
	for _, r := range got.BaselineReports {
		if strings.Contains(r, "ERASER RACE") {
			found = true
		}
	}
	if !found {
		t.Errorf("degraded job carries no Eraser verdict: %+v", got)
	}

	m := s.Metrics()
	if m.JobsDegraded != 1 {
		t.Errorf("jobs_degraded = %d, want 1", m.JobsDegraded)
	}
	if m.SessionPanics != 2 {
		t.Errorf("session_panics = %d, want 2 (initial + one retry)", m.SessionPanics)
	}
	jobs := s.Jobs()
	if len(jobs) != 1 || jobs[0].State != StateDegraded {
		t.Errorf("journal = %+v, want one degraded entry", jobs)
	}
}

func TestConcurrentSessionsIsolated(t *testing.T) {
	// Four concurrent sessions; whichever is admitted second panics
	// once. Every session must still return its own correct verdict.
	s, c, stop := newTestServer(t, Options{
		MaxSessions:  4,
		RetryBudget:  3,
		RetryBackoff: time.Millisecond,
		Faults:       mustPlan(t, "session-panic:job=2,times=1"),
	})
	defer stop()

	srcs := []struct {
		file string
		src  string
		racy bool
	}{
		{"racy1.mj", racyProg, true},
		{"clean1.mj", cleanProg, false},
		{"racy2.mj", racyProg, true},
		{"clean2.mj", cleanProg, false},
	}
	var wg sync.WaitGroup
	results := make([]*JobResult, len(srcs))
	errs := make([]error, len(srcs))
	for i, in := range srcs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = c.Analyze(JobRequest{File: in.file, Source: in.src})
		}()
	}
	wg.Wait()

	for i, in := range srcs {
		if errs[i] != nil {
			t.Fatalf("job %s: %v", in.file, errs[i])
		}
		res := results[i]
		if res.Degraded || res.CompileError != "" || res.RuntimeError != "" {
			t.Errorf("job %s not clean: %+v", in.file, res)
		}
		if got := len(res.Races) > 0; got != in.racy {
			t.Errorf("job %s: racy=%v, want %v", in.file, got, in.racy)
		}
	}
	m := s.Metrics()
	if m.SessionPanics != 1 {
		t.Errorf("session_panics = %d, want 1", m.SessionPanics)
	}
	if m.JobsCompleted != 4 || m.Terminal() != m.JobsAdmitted {
		t.Errorf("completed=%d terminal=%d admitted=%d", m.JobsCompleted, m.Terminal(), m.JobsAdmitted)
	}
	if m.SessionsPeak < 2 {
		t.Errorf("sessions_peak = %d, want >= 2", m.SessionsPeak)
	}
}

func TestAdmissionLoadShed(t *testing.T) {
	// One slot, no queue; the first job stalls (injected slow client)
	// while holding the slot, so the second must be shed with a
	// Retry-After hint.
	s, c, stop := newTestServer(t, Options{
		MaxSessions: 1,
		QueueDepth:  -1,
		RetryAfter:  2 * time.Second,
		Faults:      mustPlan(t, "slow-client:job=1,delay=400ms"),
	})
	defer stop()

	done := make(chan error, 1)
	go func() {
		_, err := c.Analyze(JobRequest{File: "slow.mj", Source: cleanProg})
		done <- err
	}()

	// Wait until the slow job actually holds the slot.
	deadline := time.Now().Add(2 * time.Second)
	for s.Metrics().SlowClientStalls == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow-client fault never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, err := c.Analyze(JobRequest{File: "shed.mj", Source: cleanProg})
	u, ok := err.(*Unavailable)
	if !ok {
		t.Fatalf("second job error = %v, want *Unavailable", err)
	}
	if u.RetryAfter != 2*time.Second {
		t.Errorf("retry-after = %v, want 2s", u.RetryAfter)
	}
	if err := <-done; err != nil {
		t.Fatalf("slow job failed: %v", err)
	}

	m := s.Metrics()
	if m.JobsShed != 1 {
		t.Errorf("jobs_shed = %d, want 1", m.JobsShed)
	}
	if m.JobsAdmitted != 1 || m.JobsCompleted != 1 {
		t.Errorf("admitted=%d completed=%d, want 1/1", m.JobsAdmitted, m.JobsCompleted)
	}
}

func TestInjectedAdmissionFull(t *testing.T) {
	s, c, stop := newTestServer(t, Options{
		Faults: mustPlan(t, "admission-full:times=1"),
	})
	defer stop()

	if _, err := c.Analyze(JobRequest{File: "a.mj", Source: cleanProg}); err == nil {
		t.Fatal("injected admission-full should shed the first job")
	} else if _, ok := err.(*Unavailable); !ok {
		t.Fatalf("error = %v, want *Unavailable", err)
	}
	// The fault budget is spent: the next job goes through.
	if _, err := c.Analyze(JobRequest{File: "b.mj", Source: cleanProg}); err != nil {
		t.Fatalf("second job should be admitted: %v", err)
	}
	if m := s.Metrics(); m.JobsShed != 1 || m.JobsCompleted != 1 {
		t.Errorf("shed=%d completed=%d, want 1/1", m.JobsShed, m.JobsCompleted)
	}
}

func TestQueuedJobWaitsForSlot(t *testing.T) {
	// One slot but a deep queue: the second job must wait, not shed.
	s, c, stop := newTestServer(t, Options{
		MaxSessions: 1,
		QueueDepth:  4,
		Faults:      mustPlan(t, "slow-client:job=1,delay=200ms"),
	})
	defer stop()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Analyze(JobRequest{File: "q.mj", Source: cleanProg})
		}()
		time.Sleep(50 * time.Millisecond) // deterministic admission order
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("job %d: %v", i+1, err)
		}
	}
	m := s.Metrics()
	if m.JobsShed != 0 {
		t.Errorf("jobs_shed = %d, want 0 (queue should absorb)", m.JobsShed)
	}
	if m.JobsCompleted != 2 {
		t.Errorf("jobs_completed = %d, want 2", m.JobsCompleted)
	}
	if m.QueueHighWater < 1 {
		t.Errorf("queue_high_water = %d, want >= 1", m.QueueHighWater)
	}
}

func TestBadRequests(t *testing.T) {
	s, c, stop := newTestServer(t, Options{})
	defer stop()

	resp, err := http.Post(c.Base+"/analyze", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}

	if _, err := c.Analyze(JobRequest{File: "x.mj", Source: racyProg, Detector: "bogus"}); err == nil {
		t.Error("unknown detector should fail")
	}

	resp, err = http.Get(c.Base + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /analyze: status %d, want 405", resp.StatusCode)
	}

	m := s.Metrics()
	if m.JobsAdmitted != 2 || m.JobsFailed != 2 {
		t.Errorf("admitted=%d failed=%d, want 2/2", m.JobsAdmitted, m.JobsFailed)
	}
	if m.Terminal() != m.JobsAdmitted {
		t.Errorf("terminal=%d admitted=%d: bad requests must still be terminal",
			m.Terminal(), m.JobsAdmitted)
	}
	for _, j := range s.Jobs() {
		if j.State != StateBadRequest {
			t.Errorf("journal %+v, want bad-request", j)
		}
	}
}

func TestSamplingJobs(t *testing.T) {
	s, c, stop := newTestServer(t, Options{SampleK: 4})
	defer stop()

	// A hot polling idiom with a stable race: enough repeat traffic for
	// throttling to demote sites and suppress events, while the
	// recurring cross-thread contact keeps the race observable.
	src, err := os.ReadFile("../corpus/testdata/handoff_pipeline.mj")
	if err != nil {
		t.Fatal(err)
	}
	hotRacyProg := string(src)

	// The daemon-wide default applies: the stable race survives
	// throttling and the suppression work is visible in the stats.
	res, err := c.Analyze(JobRequest{File: "hot.mj", Source: hotRacyProg})
	if err != nil {
		t.Fatalf("analyze sampled: %v", err)
	}
	found := false
	for _, r := range res.Races {
		if r.Field == "Item.value" {
			found = true
		}
	}
	if !found {
		t.Fatalf("sampled job lost the Item.value race: %+v", res.Races)
	}
	if res.Stats.EventsSuppressed == 0 || res.Stats.SitesDemoted == 0 {
		t.Errorf("sampled job shows no throttling work: suppressed=%d demoted=%d",
			res.Stats.EventsSuppressed, res.Stats.SitesDemoted)
	}

	// A job-level override can force throttling off.
	off, err := c.Analyze(JobRequest{File: "hot.mj", Source: hotRacyProg, SampleK: -1})
	if err != nil {
		t.Fatalf("analyze override-off: %v", err)
	}
	if off.Stats.EventsSuppressed != 0 || off.Stats.SitesSampled != 0 {
		t.Errorf("override-off job still sampled: %+v", off.Stats)
	}

	// The aggregated counters reach GET /metrics.
	m, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, name := range []string{"events_shipped", "events_suppressed", "sites_demoted", "sites_rearmed"} {
		if _, ok := m[name]; !ok {
			t.Errorf("metrics missing %s", name)
		}
	}
	if m["events_suppressed"] != int64(res.Stats.EventsSuppressed) {
		t.Errorf("metrics events_suppressed = %d, want %d",
			m["events_suppressed"], res.Stats.EventsSuppressed)
	}
	if m["sites_demoted"] == 0 {
		t.Error("metrics sites_demoted not aggregated")
	}

	// A budget outside [0, 1] is a bad request, refused at admission.
	if _, err := c.Analyze(JobRequest{File: "x.mj", Source: racyProg, SampleBudget: 1.5}); err == nil {
		t.Error("sample_budget > 1 should be a bad request")
	}
	snap := s.Metrics()
	if snap.JobsFailed != 1 {
		t.Errorf("jobs_failed = %d, want 1 (the bad budget)", snap.JobsFailed)
	}
	if snap.Terminal() != snap.JobsAdmitted {
		t.Errorf("terminal=%d admitted=%d", snap.Terminal(), snap.JobsAdmitted)
	}
}

// TestSampleOffWithBudgetRefused: sample_k < 0 forces throttling off,
// so a job that also sets sample_budget contradicts itself and is
// refused at admission instead of running sampled at the default K.
func TestSampleOffWithBudgetRefused(t *testing.T) {
	s, c, stop := newTestServer(t, Options{})
	defer stop()

	for _, req := range []JobRequest{
		{File: "x.mj", Source: racyProg, SampleK: -1, SampleBudget: 0.25},
		{File: "x.mj", Source: racyProg, SampleK: -1, SampleBudget: 0.25, Priors: "invert"},
	} {
		body, _ := json.Marshal(req)
		resp, err := http.Post(c.Base+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg := new(bytes.Buffer)
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), "sample_k < 0") {
			t.Errorf("%s: status %d %q, want 400 naming sample_k < 0", body, resp.StatusCode, msg.String())
		}
	}

	// Either knob alone is still admitted.
	off, err := c.Analyze(JobRequest{File: "x.mj", Source: racyProg, SampleK: -1})
	if err != nil {
		t.Fatalf("sample_k < 0 alone: %v", err)
	}
	if off.Stats.SitesSampled != 0 {
		t.Errorf("sample_k < 0 job still sampled: %+v", off.Stats)
	}
	if _, err := c.Analyze(JobRequest{File: "x.mj", Source: racyProg, SampleBudget: 0.25}); err != nil {
		t.Fatalf("sample_budget alone: %v", err)
	}

	m := s.Metrics()
	if m.JobsFailed != 2 || m.JobsCompleted != 2 {
		t.Errorf("failed=%d completed=%d, want 2/2", m.JobsFailed, m.JobsCompleted)
	}
	if m.Terminal() != m.JobsAdmitted {
		t.Errorf("terminal=%d admitted=%d", m.Terminal(), m.JobsAdmitted)
	}
}

// TestPriorsJobs: a priors job runs with the priors racedet.Detect
// applies under the same options, and one whose overrides and the
// daemon's defaults leave sampling off is refused at admission instead
// of running with its priors silently dropped.
func TestPriorsJobs(t *testing.T) {
	s, c, stop := newTestServer(t, Options{})
	defer stop()

	src, err := os.ReadFile("../corpus/testdata/handoff_pipeline.mj")
	if err != nil {
		t.Fatal(err)
	}
	prog := string(src)

	for _, priors := range []string{"on", "invert"} {
		body, _ := json.Marshal(JobRequest{File: "hot.mj", Source: prog, Priors: priors})
		resp, err := http.Post(c.Base+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg := new(bytes.Buffer)
		msg.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.String(), "sampling off") {
			t.Errorf("priors %q without sampling: status %d %q, want 400 naming sampling off",
				priors, resp.StatusCode, msg.String())
		}
	}

	got, err := c.Analyze(JobRequest{File: "hot.mj", Source: prog, Priors: "on", SampleK: 2})
	if err != nil {
		t.Fatalf("analyze priors: %v", err)
	}
	want, err := racedet.Detect("hot.mj", prog, racedet.Options{SampleK: 2, Priors: "on"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Races, want.Races) {
		t.Errorf("priors job races diverge from one-shot:\n got %+v\nwant %+v", got.Races, want.Races)
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Errorf("priors job stats diverge from one-shot:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
	if got.Stats.PriorHighSites+got.Stats.PriorLowSites == 0 {
		t.Errorf("priors job carries no prior sites: %+v", got.Stats)
	}

	m := s.Metrics()
	if m.JobsFailed != 2 || m.JobsCompleted != 1 {
		t.Errorf("failed=%d completed=%d, want 2/1", m.JobsFailed, m.JobsCompleted)
	}
	if m.Terminal() != m.JobsAdmitted {
		t.Errorf("terminal=%d admitted=%d", m.Terminal(), m.JobsAdmitted)
	}
}

func TestWatchdogAbortKeepsPartialReport(t *testing.T) {
	s, c, stop := newTestServer(t, Options{JobTimeout: 150 * time.Millisecond})
	defer stop()

	res, err := c.Analyze(JobRequest{File: "spin.mj", Source: spinProg})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if !strings.HasPrefix(res.RuntimeError, "watchdog") {
		t.Fatalf("runtime error = %q, want watchdog", res.RuntimeError)
	}
	if len(res.Races) == 0 {
		t.Error("watchdog-aborted job lost its partial race report")
	}
	m := s.Metrics()
	if m.WatchdogFires != 1 {
		t.Errorf("watchdog_fires = %d, want 1", m.WatchdogFires)
	}
	if m.JobsFailed != 1 {
		t.Errorf("jobs_failed = %d, want 1", m.JobsFailed)
	}
}

func TestClientDisconnectDoesNotLoseJob(t *testing.T) {
	s, c, stop := newTestServer(t, Options{
		Faults: mustPlan(t, "client-disconnect:job=1"),
	})
	defer stop()

	// The daemon tears the connection down after finishing the job, so
	// the client sees a transport error — but the job is journaled.
	if _, err := c.Analyze(JobRequest{File: "gone.mj", Source: racyProg}); err == nil {
		t.Fatal("disconnected client should see a transport error")
	}
	m := s.Metrics()
	if m.ClientDisconnects != 1 {
		t.Errorf("client_disconnects = %d, want 1", m.ClientDisconnects)
	}
	if m.JobsCompleted != 1 {
		t.Errorf("jobs_completed = %d, want 1 (work must finish without its client)", m.JobsCompleted)
	}
	jobs := s.Jobs()
	if len(jobs) != 1 || jobs[0].State != StateCompleted || jobs[0].Races == 0 {
		t.Errorf("journal = %+v, want one completed racy entry", jobs)
	}
}

func TestFactCacheSharedAcrossSessions(t *testing.T) {
	s, c, stop := newTestServer(t, Options{FactCacheDir: t.TempDir()})
	defer stop()

	first, err := c.Analyze(JobRequest{File: "warm.mj", Source: racyProg})
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.FactCacheProgramHit {
		t.Error("first compile cannot be a program-level hit")
	}
	second, err := c.Analyze(JobRequest{File: "warm.mj", Source: racyProg})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.FactCacheProgramHit {
		t.Error("second identical compile should hit the shared fact cache")
	}
	if m := s.Metrics(); m.FactProgramHits == 0 {
		t.Error("factcache_program_hits not aggregated")
	}
}

func TestServeReturnsNilAfterDrain(t *testing.T) {
	s := New(Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- s.Serve(l) }()
	c := &Client{Base: "http://" + l.Addr().String()}

	// Wait for the listener to answer.
	deadline := time.Now().Add(2 * time.Second)
	for c.Health() != nil {
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	if rep := s.Drain(time.Second); !rep.Clean {
		t.Errorf("idle drain not clean: %+v", rep)
	}
	select {
	case err := <-errCh:
		if err != nil {
			t.Errorf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(2 * time.Second):
		t.Error("Serve did not return after drain")
	}
}

func TestMetricsEndpointFormat(t *testing.T) {
	_, c, stop := newTestServer(t, Options{})
	defer stop()
	if _, err := c.Analyze(JobRequest{File: "m.mj", Source: racyProg}); err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"jobs_admitted", "jobs_completed", "jobs_shed", "jobs_aborted_at_drain",
		"session_panics", "watchdog_fires", "races_reported", "draining",
		"factcache_program_hits", "session_retries", "queue_high_water",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %s", key)
		}
	}
	// Detection is serial: there are no shard workers to count.
	for _, key := range []string{"worker_restarts", "degraded_shards", "backpressure_stalls"} {
		if _, ok := m[key]; ok {
			t.Errorf("metrics still export %s", key)
		}
	}
	if m["draining"] != 0 {
		t.Error("draining gauge set on a live daemon")
	}
}
