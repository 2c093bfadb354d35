// Tests for the daemon's trace-replay job mode: record once with the
// one-shot API, upload the bytes, and get the live run's verdicts back
// from any detector configuration without recompiling or re-running.
package service

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"racedet"
)

// stripPartners clears the StaticPartners hints, which come from the
// compile-time static analysis and are deliberately not part of a
// recorded trace — everything else must match the live run exactly.
func stripPartners(races []racedet.Race) []racedet.Race {
	out := append([]racedet.Race(nil), races...)
	for i := range out {
		out[i].StaticPartners = nil
	}
	return out
}

// recordTrace runs the program through the one-shot API with trace
// recording on and returns the trace bytes plus the live result.
func recordTrace(t *testing.T, file, src string, seed int64) ([]byte, *racedet.Result) {
	t.Helper()
	var buf bytes.Buffer
	res, err := racedet.Detect(file, src, racedet.Options{Seed: seed, TraceTo: &buf})
	if err != nil {
		t.Fatalf("recording Detect(%s): %v", file, err)
	}
	return buf.Bytes(), res
}

func TestTraceJobMatchesSourceJob(t *testing.T) {
	s, c, stop := newTestServer(t, Options{})
	defer stop()

	data, live := recordTrace(t, "racy.mj", racyProg, 0)

	src, err := c.Analyze(JobRequest{File: "racy.mj", Source: racyProg})
	if err != nil {
		t.Fatalf("source job: %v", err)
	}
	res, err := c.Analyze(JobRequest{File: "racy.mjtrace", Trace: data})
	if err != nil {
		t.Fatalf("trace job: %v", err)
	}
	if res.CompileError != "" || res.RuntimeError != "" || res.Degraded {
		t.Fatalf("trace job not clean: %+v", res)
	}
	if !reflect.DeepEqual(res.Races, stripPartners(src.Races)) {
		t.Errorf("trace job races:\n got %+v\nwant %+v", res.Races, src.Races)
	}
	if len(res.Races) == 0 || res.Races[0].Field != "Data.f" {
		t.Errorf("trace job lost the race: %+v", res.Races)
	}
	if len(live.Races) == 0 {
		t.Errorf("recording run lost the race: %+v", live)
	}

	// A clean program's trace replays clean.
	cdata, _ := recordTrace(t, "clean.mj", cleanProg, 0)
	res, err = c.Analyze(JobRequest{File: "clean.mjtrace", Trace: cdata})
	if err != nil {
		t.Fatalf("clean trace job: %v", err)
	}
	if len(res.Races) != 0 {
		t.Errorf("clean trace reported races: %+v", res.Races)
	}

	m, err := c.Metrics()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if m["trace_jobs"] != 2 {
		t.Errorf("trace_jobs = %d, want 2", m["trace_jobs"])
	}
	if got := s.Metrics(); got.Terminal() != got.JobsAdmitted {
		t.Errorf("terminal=%d admitted=%d", got.Terminal(), got.JobsAdmitted)
	}
}

// TestTraceJobDetectorSelection replays one trace through every wire
// detector name — the analyze-many half of record-once/analyze-many.
func TestTraceJobDetectorSelection(t *testing.T) {
	_, c, stop := newTestServer(t, Options{})
	defer stop()

	data, _ := recordTrace(t, "racy.mj", racyProg, 0)
	for _, det := range []string{"", "trie", "eraser", "objectrace", "hb"} {
		res, err := c.Analyze(JobRequest{File: "racy.mjtrace", Trace: data, Detector: det})
		if err != nil {
			t.Fatalf("detector %q: %v", det, err)
		}
		racy := len(res.Races) > 0 || len(res.BaselineReports) > 0
		if !racy {
			t.Errorf("detector %q missed the race on the replayed trace: %+v", det, res)
		}
	}
}

func TestTraceJobBadRequests(t *testing.T) {
	s, c, stop := newTestServer(t, Options{MaxTraceBytes: 1 << 10})
	defer stop()

	data, _ := recordTrace(t, "racy.mj", racyProg, 0)

	cases := []struct {
		name string
		req  JobRequest
		want string // error fragment
	}{
		{"trace and source", JobRequest{Source: racyProg, Trace: data}, "mutually exclusive"},
		{"oversized trace", JobRequest{Trace: bytes.Repeat(data, 1+(1<<10)/len(data))}, "byte limit"},
		{"truncated trace", JobRequest{Trace: data[:len(data)/2]}, "truncated or unfinalized"},
		{"garbage trace", JobRequest{Trace: []byte(strings.Repeat("not a trace. ", 8))}, "bad magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Analyze(tc.req)
			if err == nil {
				t.Fatal("bad trace job accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q missing %q", err, tc.want)
			}
		})
	}

	m := s.Metrics()
	if m.TraceJobs != 0 {
		t.Errorf("rejected jobs counted as trace jobs: %d", m.TraceJobs)
	}
	if m.JobsFailed != uint64(len(cases)) || m.Terminal() != m.JobsAdmitted {
		t.Errorf("failed=%d terminal=%d admitted=%d, want %d bad-request terminals",
			m.JobsFailed, m.Terminal(), m.JobsAdmitted, len(cases))
	}
	for _, j := range s.Jobs() {
		if j.State != StateBadRequest {
			t.Errorf("journal %+v, want bad-request", j)
		}
	}
}
