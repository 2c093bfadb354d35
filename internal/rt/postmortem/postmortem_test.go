package postmortem

import (
	"bytes"
	"testing"

	"racedet/internal/lang/token"
	"racedet/internal/rt/detector"
	"racedet/internal/rt/event"
	"racedet/internal/rt/trace"
)

// drive sends a small scenario through a sink: main starts two
// children that write the same location without locks (a race), plus
// one lock-protected location (quiet).
func drive(s event.Sink) {
	s.ThreadStarted(0, event.NoThread)
	s.ThreadStarted(1, 0)
	s.ThreadStarted(2, 0)
	loc := event.Loc{Obj: 10, Slot: 0}
	safe := event.Loc{Obj: 20, Slot: 1}
	s.Access(event.Access{Loc: loc, Thread: 0, Kind: event.Write, FieldName: "D.f"})
	s.Access(event.Access{Loc: loc, Thread: 1, Kind: event.Write, FieldName: "D.f"})
	s.Access(event.Access{Loc: loc, Thread: 2, Kind: event.Write, FieldName: "D.f"})
	for _, t := range []event.ThreadID{1, 2} {
		s.MonitorEnter(t, 100, 1)
		s.MonitorEnter(t, 100, 2)
		s.MonitorExit(t, 100, 1)
		s.Access(event.Access{Loc: safe, Thread: t, Kind: event.Write, FieldName: "D.g"})
		s.MonitorExit(t, 100, 0)
	}
	s.ThreadFinished(1)
	s.ThreadFinished(2)
	s.Joined(0, 1)
	s.Joined(0, 2)
	s.Access(event.Access{Loc: safe, Thread: 0, Kind: event.Read, FieldName: "D.g"})
}

// record drives the scenario through a trace writer and opens the
// finalized trace.
func record(t *testing.T) *trace.Reader {
	t.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	drive(w)
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestOfflineDetectionMatchesOnline(t *testing.T) {
	// On-line: drive the detector directly.
	online := detector.New(detector.Options{})
	drive(online)

	// Off-line: record, then replay into a fresh detector.
	offline := detector.New(detector.Options{})
	if _, err := record(t).Replay(offline, 1); err != nil {
		t.Fatal(err)
	}

	or, fr := online.Reports(), offline.Reports()
	if len(or) != len(fr) {
		t.Fatalf("online %d reports, offline %d", len(or), len(fr))
	}
	for i := range or {
		if or[i].Access.Loc != fr[i].Access.Loc || or[i].Access.Thread != fr[i].Access.Thread {
			t.Errorf("report %d differs: %v vs %v", i, or[i], fr[i])
		}
	}
	if len(or) != 1 {
		t.Fatalf("scenario should race once, got %d", len(or))
	}
}

func TestFullRaceReconstruction(t *testing.T) {
	pairs, err := FullRace(record(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	// The racy location sees writes by T0 (pre-start: races with both
	// children? T0's write is before the children start, but the trace
	// has no ownership model — FullRace is the raw §2.4 definition
	// with pseudolocks: T0 holds only S0, children hold S1/S2, so all
	// three writes mutually race) → pairs: (T0,T1), (T0,T2), (T1,T2).
	if len(pairs) != 3 {
		t.Fatalf("pairs = %d, want 3:\n%v", len(pairs), pairs)
	}
	for _, p := range pairs {
		if p.First.Loc != (event.Loc{Obj: 10, Slot: 0}) {
			t.Errorf("unexpected racing location %v", p.First.Loc)
		}
		if p.First.Thread == p.Second.Thread {
			t.Errorf("pair within one thread: %v", p)
		}
	}
	// The locked location must produce no pairs: children share lock
	// 100, and the parent's read is covered by the join pseudolocks.
	for _, p := range pairs {
		if p.First.FieldName == "D.g" {
			t.Errorf("lock-protected location reconstructed as racy: %v", p)
		}
	}
}

func TestFullRaceMaxPairs(t *testing.T) {
	pairs, err := FullRace(record(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("maxPairs not honored: %d", len(pairs))
	}
}

// TestPosRoundTrip: the source positions a pair renders with are the
// recorded ones, file and all.
func TestPosRoundTrip(t *testing.T) {
	pos := token.Pos{File: "dir/prog.mj", Line: 12, Col: 5}
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	w.ThreadStarted(0, event.NoThread)
	w.ThreadStarted(1, 0)
	loc := event.Loc{Obj: 1, Slot: 0}
	w.Access(event.Access{Loc: loc, Thread: 0, Kind: event.Write, FieldName: "A.f", Pos: pos})
	w.Access(event.Access{Loc: loc, Thread: 1, Kind: event.Write, FieldName: "A.f", Pos: pos})
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := FullRace(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 {
		t.Fatalf("pairs = %v, want 1", pairs)
	}
	if pairs[0].First.Pos != pos || pairs[0].Second.Pos != pos {
		t.Errorf("pair positions = %+v / %+v, want %+v", pairs[0].First.Pos, pairs[0].Second.Pos, pos)
	}
}
