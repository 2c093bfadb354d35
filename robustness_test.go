package racedet

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// schedDepProgram hides its race behind a publication window; the
// fixed round-robin schedule (seed 0) never executes the racing write.
const schedDepProgram = `
class Shared { int flag; int data; }
class Mutex { int x; }
class Setter extends Thread {
    Shared s; Mutex m;
    Setter(Shared s0, Mutex m0) { s = s0; m = m0; }
    void run() {
        synchronized (m) { s.flag = 1; }
        s.data = 2;
    }
}
class Racer extends Thread {
    Shared s; Mutex m;
    Racer(Shared s0, Mutex m0) { s = s0; m = m0; }
    void run() {
        int f;
        synchronized (m) { f = s.flag; }
        if (f == 0) { s.data = 1; }
    }
}
class Main {
    static void main() {
        Shared s = new Shared();
        Mutex m = new Mutex();
        s.data = 0;
        Setter a = new Setter(s, m);
        Racer b = new Racer(s, m);
        a.start(); b.start(); a.join(); b.join();
        print(s.data);
    }
}`

func TestFuzzClassifiesStableRace(t *testing.T) {
	res, err := Fuzz("racy.mj", racyProgram, FuzzOptions{Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 || res.Failed != 0 {
		t.Fatalf("completed=%d failed=%d", res.Completed, res.Failed)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %+v", res.Findings)
	}
	f := res.Findings[0]
	if f.Race.Field != "Data.f" || !f.Stable || f.MinSeed != 0 {
		t.Errorf("finding = %+v", f)
	}
	if len(f.Seeds) != 8 {
		t.Errorf("seeds = %v", f.Seeds)
	}
	if !bytes.HasPrefix(f.Schedule, []byte("mjsched 1 ")) {
		t.Errorf("witness schedule = %q", f.Schedule)
	}
	if len(res.Stable()) != 1 || len(res.ScheduleDependent()) != 0 {
		t.Errorf("classification accessors disagree")
	}
}

// TestFuzzIgnoresTraceTo: the sweep's runs execute in parallel, so a
// TraceTo writer in the per-run Options must be dropped, not shared —
// a shared one is a data race (go test -race flags it) and an
// interleaved, unreadable trace.
func TestFuzzIgnoresTraceTo(t *testing.T) {
	var buf bytes.Buffer
	res, err := Fuzz("racy.mj", racyProgram, FuzzOptions{
		Options: Options{TraceTo: &buf},
		Count:   8,
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 8 || len(res.Findings) != 1 {
		t.Fatalf("completed=%d findings=%+v", res.Completed, res.Findings)
	}
	if buf.Len() != 0 {
		t.Fatalf("Fuzz wrote %d trace bytes into Options.TraceTo", buf.Len())
	}
}

func TestFuzzFindsScheduleDependentRace(t *testing.T) {
	// Sanity: the fixed schedule misses it.
	base, err := Detect("prog.mj", schedDepProgram, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.RacyObjects != 0 {
		t.Fatalf("fixed schedule already reports: %v", base.Races)
	}

	res, err := Fuzz("prog.mj", schedDepProgram, FuzzOptions{Count: 16})
	if err != nil {
		t.Fatal(err)
	}
	var f *FuzzFinding
	for i := range res.Findings {
		if res.Findings[i].Race.Field == "Shared.data" {
			f = &res.Findings[i]
		}
	}
	if f == nil {
		t.Fatalf("fuzz missed Shared.data: %+v", res.Findings)
	}
	if f.Stable {
		t.Errorf("publication-window race classified stable")
	}
	if f.MinSeed == 0 {
		t.Errorf("seed 0 should not expose it (seeds %v)", f.Seeds)
	}

	// The witness schedule replays to the identical race, repeatedly.
	var pos string
	for i := 0; i < 5; i++ {
		rr, err := Detect("prog.mj", schedDepProgram, Options{ReplaySchedule: f.Schedule})
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		var got string
		for _, r := range rr.Races {
			if r.Field == "Shared.data" {
				got = r.Pos
			}
		}
		if got == "" {
			t.Fatalf("replay %d missed the race: %v", i, rr.Races)
		}
		if i == 0 {
			pos = got
		} else if got != pos {
			t.Fatalf("replay %d diverged: %q vs %q", i, got, pos)
		}
	}
}

func TestDetectRuntimeErrorCarriesDump(t *testing.T) {
	const deadlock = `
class A { int f; }
class W extends Thread {
    A p; A q;
    W(A p0, A q0) { p = p0; q = q0; }
    void run() {
        for (int i = 0; i < 200; i++) {
            synchronized (p) { synchronized (q) { p.f = p.f + 1; } }
        }
    }
}
class Main {
    static void main() {
        A x = new A(); A y = new A();
        W a = new W(x, y); W b = new W(y, x);
        a.start(); b.start(); a.join(); b.join();
    }
}`
	_, err := Detect("dead.mj", deadlock, Options{Seed: 1, Quantum: 3})
	if err == nil {
		t.Fatal("AB-BA program should deadlock under seed 1, quantum 3")
	}
	var re *RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *RuntimeError", err, err)
	}
	if re.Kind != "deadlock" {
		t.Errorf("Kind = %q", re.Kind)
	}
	if re.ThreadDump == "" || !strings.Contains(re.ThreadDump, "blocked") {
		t.Errorf("ThreadDump = %q", re.ThreadDump)
	}
}

func TestDetectScheduleRecordReplay(t *testing.T) {
	rec, err := Detect("racy.mj", racyProgram, Options{Seed: 9, RecordSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(rec.Schedule, []byte("mjsched 1 seed=9")) {
		t.Fatalf("recorded schedule = %q", rec.Schedule)
	}
	rep, err := Detect("racy.mj", racyProgram, Options{ReplaySchedule: rec.Schedule})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Output != rec.Output || rep.RacyObjects != rec.RacyObjects {
		t.Errorf("replay diverged: output %q vs %q, racy %d vs %d",
			rep.Output, rec.Output, rep.RacyObjects, rec.RacyObjects)
	}

	if _, err := Detect("racy.mj", racyProgram, Options{ReplaySchedule: []byte("garbage")}); err == nil {
		t.Error("corrupt schedule must be rejected")
	}
}

func TestDetectBoundedMemoryStillReports(t *testing.T) {
	res, err := Detect("racy.mj", racyProgram, Options{
		MaxTrieNodes:      1,
		MaxCacheThreads:   1,
		MaxOwnerLocations: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.RacyObjects == 0 {
		t.Fatal("bounded mode dropped the race (must only over-report)")
	}
	s := res.Stats
	if s.TrieCollapses == 0 && s.CacheThreadEvictions == 0 && s.OwnerOverflows == 0 {
		t.Errorf("tiny bounds produced no degradation counters: %+v", s)
	}
}
