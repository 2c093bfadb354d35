package racedet

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"racedet/internal/rt/trace"
)

// TestPublicPostMortem exercises Options.TraceTo + ReplayTraceData +
// FullRace through the public API.
func TestPublicPostMortem(t *testing.T) {
	var buf bytes.Buffer
	res, err := Detect("racy.mj", racyProgram, Options{TraceTo: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no trace recorded")
	}
	replayed, err := ReplayTraceData(buf.Bytes(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.RacyObjects != res.RacyObjects {
		t.Fatalf("replay reports %d racy objects, original %d", replayed.RacyObjects, res.RacyObjects)
	}
	pairs, err := FullRace(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("FullRace empty on a racy trace")
	}
	if pairs[0].First == "" || pairs[0].Second == "" {
		t.Fatalf("pair rendering empty: %+v", pairs[0])
	}
	capped, err := FullRace(bytes.NewReader(buf.Bytes()), 1)
	if err != nil || len(capped) != 1 {
		t.Fatalf("maxPairs not honored: %d, %v", len(capped), err)
	}
}

// TestFullRaceRejectsNonTrace: FullRace reads only .mjtrace; a text
// event log or a truncated trace is a format error, not an empty
// result.
func TestFullRaceRejectsNonTrace(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Detect("racy.mj", racyProgram, Options{TraceTo: &buf}); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{
		"text log":  []byte("S 0 -1\nS 1 0\nA 1 10 0 W Data.f racy.mj:3:5\n"),
		"truncated": buf.Bytes()[:buf.Len()-1],
		"empty":     nil,
	} {
		_, err := FullRace(bytes.NewReader(in), 0)
		var fe *trace.FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: err = %v, want *trace.FormatError", name, err)
		}
	}
}

// TestPublicDeadlockAndImmutability exercises the §10 extensions
// through the public API.
func TestPublicDeadlockAndImmutability(t *testing.T) {
	const src = `
class Lock { int pad; }
class Cfg { int n; }
class W extends Thread {
    Lock p; Lock q; Cfg cfg; int acc;
    W(Lock p0, Lock q0, Cfg c) { p = p0; q = q0; cfg = c; }
    void run() {
        synchronized (p) { synchronized (q) { acc = acc + cfg.n; } }
    }
}
class Main {
    static void main() {
        Lock a = new Lock();
        Lock b = new Lock();
        Cfg cfg = new Cfg();
        cfg.n = 5;
        W w1 = new W(a, b, cfg);
        W w2 = new W(b, a, cfg);
        w1.start(); w1.join();
        w2.start(); w2.join();
        print(w1.acc + w2.acc);
    }
}`
	res, err := Detect("ext.mj", src, Options{
		DetectDeadlocks:     true,
		AnalyzeImmutability: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PotentialDeadlocks) != 1 {
		t.Errorf("deadlocks = %v, want the AB-BA cycle", res.PotentialDeadlocks)
	}
	found := false
	for _, r := range res.Immutability {
		if strings.Contains(r, "OBSERVED-IMMUTABLE Cfg.n") {
			found = true
		}
	}
	if !found {
		t.Errorf("Cfg.n should be observed immutable: %v", res.Immutability)
	}
}

// TestPublicStaticPartners: the §2.6 debugging hints reach the API.
func TestPublicStaticPartners(t *testing.T) {
	res, err := Detect("racy.mj", racyProgram, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) == 0 || len(res.Races[0].StaticPartners) == 0 {
		t.Fatalf("races lack static partner hints: %+v", res.Races)
	}
	if !strings.Contains(res.Races[0].StaticPartners[0], "racy.mj:") {
		t.Errorf("partner hint lacks position: %q", res.Races[0].StaticPartners[0])
	}
}
