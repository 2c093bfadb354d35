package core

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"racedet/internal/rt/postmortem"
	"racedet/internal/rt/trace"
)

// runRecorded runs the compiled program under cfg with its event
// stream recorded as a trace, and opens the finalized trace.
func runRecorded(t *testing.T, p *Pipeline, cfg Config) (*RunResult, *trace.Reader) {
	t.Helper()
	var buf bytes.Buffer
	cfg.TraceTo = &buf
	res, err := p.RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return res, tr
}

func compileRacy(t *testing.T) *Pipeline {
	t.Helper()
	p, err := Compile("racy.mj", racySrc, Full())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPostMortemMatchesOnTheFly records the racy smoke program's event
// trace during an on-the-fly run, replays it off-line, and checks the
// reports agree — the §1 post-mortem mode.
func TestPostMortemMatchesOnTheFly(t *testing.T) {
	online, tr := runRecorded(t, compileRacy(t), Full())
	if online.Err != nil {
		t.Fatal(online.Err)
	}
	if tr.TotalEvents() == 0 {
		t.Fatal("no events recorded")
	}

	offline, err := ReplayTrace(tr, Full(), 1)
	if err != nil {
		t.Fatal(err)
	}

	if len(online.RacyObjects) != len(offline.RacyObjects) {
		t.Fatalf("online %v vs offline %v racy objects", online.RacyObjects, offline.RacyObjects)
	}
	for i := range online.RacyObjects {
		if online.RacyObjects[i] != offline.RacyObjects[i] {
			t.Fatalf("racy objects differ: %v vs %v", online.RacyObjects, offline.RacyObjects)
		}
	}
	if len(offline.Reports) == 0 || offline.Reports[0].Access.FieldName != "Data.f" {
		t.Fatalf("offline reports = %v", offline.Reports)
	}
}

// TestPostMortemFullRace reconstructs the complete racing-pair set
// from the trace (§2.5's FullRace, deliberately not computed on the
// fly).
func TestPostMortemFullRace(t *testing.T) {
	_, tr := runRecorded(t, compileRacy(t), Full())
	pairs, err := postmortem.FullRace(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("FullRace found nothing")
	}
	// Every pair is on Data.f, between distinct threads.
	for _, p := range pairs {
		if p.First.FieldName != "Data.f" || p.Second.FieldName != "Data.f" {
			t.Errorf("unexpected pair %v", p)
		}
		if p.First.Thread == p.Second.Thread {
			t.Errorf("same-thread pair %v", p)
		}
	}
	// FullRace is a superset view: the on-the-fly detector reported
	// one access for the location, FullRace enumerates all pairs.
	if len(pairs) < 1 {
		t.Errorf("pairs = %d", len(pairs))
	}
}

// TestRecordingDoesNotChangeDetection guards the MultiSink wiring: the
// trace writer disables the inlined cache fast path (MultiSink has
// none), which must not alter what is reported.
func TestRecordingDoesNotChangeDetection(t *testing.T) {
	p := compileRacy(t)
	plain, err := p.Run()
	if err != nil || plain.Err != nil {
		t.Fatalf("%v/%v", err, plain.Err)
	}
	recorded, _ := runRecorded(t, p, Full())
	if recorded.Err != nil {
		t.Fatal(recorded.Err)
	}
	if len(plain.RacyObjects) != len(recorded.RacyObjects) {
		t.Errorf("recording changed detection: %v vs %v", plain.RacyObjects, recorded.RacyObjects)
	}
}

// TestReplayTraceMatchesLive pins that ReplayTrace builds the detector
// the live run built: for every detector option — sampling, priors and
// the memory bounds included — replaying the recorded event log (the
// run's trace) under the same Config must reproduce the live run's
// counters, reports and trie size.
func TestReplayTraceMatchesLive(t *testing.T) {
	configs := []struct {
		name string
		cfg  func(Config) Config
	}{
		{"full", func(c Config) Config { return c }},
		{"sampled", func(c Config) Config { c.SampleK, c.SampleBudget = 2, 0.25; return c }},
		{"priors", func(c Config) Config { c.SampleK, c.SampleBudget, c.Priors = 2, 0.25, "on"; return c }},
		{"maxowner", func(c Config) Config { c.MaxOwnerLocations = 16; return c }},
		{"maxtrie", func(c Config) Config { c.MaxTrieNodes = 64; return c }},
		{"maxcache", func(c Config) Config { c.MaxCacheThreads = 1; return c }},
	}
	for _, prog := range []string{"tsp", "hedc", "mtrt"} {
		file := "../bench/testdata/" + prog + ".mj"
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range configs {
			cfg := c.cfg(Full())
			cfg.Seed = 7
			p, err := Compile(file, string(src), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if PriorsEnabled(cfg.Priors) {
				cfg.SitePriors = p.SitePriors() // what RunConfig derives for the live run
			}
			live, tr := runRecorded(t, p, cfg)
			if live.Err != nil {
				t.Fatalf("%s/%s: live run: %v", prog, c.name, live.Err)
			}
			replay, err := ReplayTrace(tr, cfg, 1)
			if err != nil {
				t.Fatalf("%s/%s: replay: %v", prog, c.name, err)
			}
			label := prog + "/" + c.name
			if !reflect.DeepEqual(replay.DetectorStats, live.DetectorStats) {
				t.Errorf("%s: detector stats differ\nreplay: %+v\nlive:   %+v", label, replay.DetectorStats, live.DetectorStats)
			}
			if got, want := reportLines(replay), reportLines(live); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: reports differ\nreplay: %d %v\nlive:   %d %v", label, len(got), got, len(want), want)
			}
			if replay.TrieNodes != live.TrieNodes || replay.TrieLocations != live.TrieLocations {
				t.Errorf("%s: trie replay %d nodes/%d locations, live %d/%d", label,
					replay.TrieNodes, replay.TrieLocations, live.TrieNodes, live.TrieLocations)
			}
			if !reflect.DeepEqual(replay.RacyObjects, live.RacyObjects) {
				t.Errorf("%s: racy objects replay %v, live %v", label, replay.RacyObjects, live.RacyObjects)
			}
		}
	}
}

// reportLines renders reports as the CLI prints them; the trace
// carries the object descriptions, so replay renders them too.
func reportLines(rr *RunResult) []string {
	var out []string
	for _, r := range rr.Reports {
		out = append(out, r.String())
	}
	return out
}
