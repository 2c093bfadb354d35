package corpus

import (
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"racedet"
	"racedet/internal/bench"
	"racedet/internal/faultinject"
	"racedet/internal/service"
)

// faultedSession runs one job through a fresh daemon whose fault plan
// panics the job's first panics session attempts. budget is the
// daemon's RetryBudget (negative means no retries).
func faultedSession(t *testing.T, file, src string, seed int64, panics, budget int) (*service.JobResult, service.Snapshot) {
	t.Helper()
	plan, err := faultinject.Parse(fmt.Sprintf("session-panic:job=1,times=%d", panics))
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Options{RetryBudget: budget, RetryBackoff: time.Millisecond, Faults: plan})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	res, err := (&service.Client{Base: ts.URL}).Analyze(service.JobRequest{File: file, Source: src, Seed: seed})
	if err != nil {
		t.Fatalf("seed %d: analyze: %v", seed, err)
	}
	if plan.Fired() != uint64(panics) {
		t.Fatalf("seed %d: %d injected panics fired, want %d", seed, plan.Fired(), panics)
	}
	return res, srv.Metrics()
}

// checkRecovered runs file under seed with a seed-chosen number of
// session panics (1 to 3, within the retry budget of 3) and requires
// the retried verdict and counters to equal a one-shot run's.
func checkRecovered(t *testing.T, file, src string, seed int64) {
	t.Helper()
	want, err := racedet.Detect(file, src, racedet.Options{Seed: seed})
	if err != nil {
		t.Fatalf("seed %d one-shot: %v", seed, err)
	}
	panics := 1 + int(seed%3)
	res, m := faultedSession(t, file, src, seed, panics, 3)
	if res.Degraded || res.CompileError != "" || res.RuntimeError != "" {
		t.Fatalf("seed %d: retried session did not complete cleanly: %+v", seed, res)
	}
	if !reflect.DeepEqual(res.Races, want.Races) || res.RacyObjects != want.RacyObjects || res.Output != want.Output {
		t.Errorf("seed %d: retried session diverges from one-shot:\n--- one-shot ---\n%+v\n--- retried ---\n%+v",
			seed, want.Races, res.Races)
	}
	if res.Stats != want.Stats {
		t.Errorf("seed %d: retried counters diverge from one-shot:\n got %+v\nwant %+v", seed, res.Stats, want.Stats)
	}
	if res.Retries != panics || m.SessionPanics != uint64(panics) || m.JobsCompleted != 1 {
		t.Errorf("seed %d: retries=%d session_panics=%d completed=%d, want %d/%d/1",
			seed, res.Retries, m.SessionPanics, m.JobsCompleted, panics, panics)
	}
}

// TestCorpusFaultInjectedMatchesSerial is the recovery differential:
// on every corpus program, under ten seeds, a daemon session whose
// first attempts are killed by injected panics is retried, and its
// verdict and counters must equal an undisturbed one-shot run's.
func TestCorpusFaultInjectedMatchesSerial(t *testing.T) {
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 10; seed++ {
				checkRecovered(t, e.name+".mj", e.src, seed)
			}
		})
	}
}

// TestBenchmarksFaultInjectedMatchesSerial extends the recovery
// differential to the five paper benchmarks.
func TestBenchmarksFaultInjectedMatchesSerial(t *testing.T) {
	seeds := int64(10)
	if testing.Short() {
		seeds = 2
	}
	for _, b := range bench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			src := b.Source()
			for seed := int64(0); seed < seeds; seed++ {
				checkRecovered(t, b.Name+".mj", src, seed)
			}
		})
	}
}

// TestCorpusDegradedCompletes pins the never-lose-the-analysis
// guarantee: with a retry budget of zero the first panic degrades the
// session to the Eraser lockset pass, and the job still completes with
// that pass's verdict and an explicit degradation mark, never an error.
func TestCorpusDegradedCompletes(t *testing.T) {
	for _, e := range loadCorpus(t) {
		e := e
		t.Run(e.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 10; seed++ {
				want, err := racedet.Detect(e.name+".mj", e.src, racedet.Options{Seed: seed, Detector: racedet.Eraser})
				if err != nil {
					t.Fatalf("seed %d one-shot Eraser: %v", seed, err)
				}
				res, m := faultedSession(t, e.name+".mj", e.src, seed, 1, -1)
				if !res.Degraded || !strings.Contains(res.DegradedReason, "injected session panic") {
					t.Fatalf("seed %d: budget 0 did not degrade: %+v", seed, res)
				}
				if res.CompileError != "" || res.RuntimeError != "" {
					t.Fatalf("seed %d: degraded session must not fail the analysis: %+v", seed, res)
				}
				if res.Retries != 0 {
					t.Errorf("seed %d: budget 0 must not retry, got %d retries", seed, res.Retries)
				}
				if !reflect.DeepEqual(res.BaselineReports, want.BaselineReports) || res.RacyObjects != want.RacyObjects {
					t.Errorf("seed %d: degraded verdict is not the Eraser verdict:\n got %q\nwant %q",
						seed, res.BaselineReports, want.BaselineReports)
				}
				if m.JobsDegraded != 1 || m.Terminal() != m.JobsAdmitted {
					t.Errorf("seed %d: degraded=%d terminal=%d admitted=%d",
						seed, m.JobsDegraded, m.Terminal(), m.JobsAdmitted)
				}
			}
		})
	}
}
