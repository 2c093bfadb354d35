package interp

import (
	"errors"
	"strings"
	"testing"

	"racedet/internal/lang/parser"
	"racedet/internal/lang/sem"
	"racedet/internal/lower"
)

// contended is a program whose output genuinely depends on the
// schedule: two threads append their IDs to a shared log array without
// synchronization, so the final contents record the interleaving.
const contended = `
class Log {
    int[] slots;
    int n;
    Log() { slots = new int[400]; n = 0; }
}
class Writer extends Thread {
    Log log; int id;
    Writer(Log l, int i) { log = l; id = i; }
    void run() {
        for (int i = 0; i < 100; i++) {
            int k = log.n;
            if (k < 400) { log.slots[k] = id; log.n = k + 1; }
        }
    }
}
class Main {
    static void main() {
        Log l = new Log();
        Writer a = new Writer(l, 1);
        Writer b = new Writer(l, 2);
        a.start(); b.start();
        a.join(); b.join();
        int sum = 0;
        for (int i = 0; i < l.n; i++) { sum = sum + l.slots[i] * (i + 1); }
        print(sum);
        print(l.n);
    }
}`

func runWithOpts(t *testing.T, src string, opts Options) (string, Result, *Machine, error) {
	t.Helper()
	prog, err := parser.Parse("t.mj", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Check(prog)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	low := lower.Lower(sp)
	var buf strings.Builder
	opts.Out = &buf
	m := New(Decode(low.Prog), opts)
	res, err := m.Run()
	return buf.String(), res, m, err
}

func TestScheduleRecordReplayRoundTrip(t *testing.T) {
	for _, seed := range []int64{0, 7, 42, 1234} {
		out1, res1, m1, err := runWithOpts(t, contended, Options{Seed: seed, RecordSchedule: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tr := m1.Schedule()
		if tr == nil || len(tr.Slices) == 0 {
			t.Fatalf("seed %d: no schedule recorded", seed)
		}

		// Replay must reproduce the run exactly: output, steps, swaps.
		out2, res2, _, err := runWithOpts(t, contended, Options{Replay: tr, Quantum: tr.Quantum})
		if err != nil {
			t.Fatalf("seed %d replay: %v", seed, err)
		}
		if out1 != out2 {
			t.Errorf("seed %d: replay output %q != recorded %q", seed, out2, out1)
		}
		if res1.Steps != res2.Steps || res1.ContextSwaps != res2.ContextSwaps {
			t.Errorf("seed %d: replay work differs: %+v vs %+v", seed, res2, res1)
		}
	}
}

func TestScheduleEncodeDecodeRoundTrip(t *testing.T) {
	_, _, m, err := runWithOpts(t, contended, Options{Seed: 99, RecordSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Schedule()
	text := tr.String()
	if !strings.HasPrefix(text, "mjsched 1 seed=99") {
		t.Fatalf("bad header: %q", strings.SplitN(text, "\n", 2)[0])
	}
	got, err := DecodeSchedule(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != tr.Seed || got.Quantum != tr.Quantum || len(got.Slices) != len(tr.Slices) {
		t.Fatalf("decode mismatch: %d/%d/%d vs %d/%d/%d",
			got.Seed, got.Quantum, len(got.Slices), tr.Seed, tr.Quantum, len(tr.Slices))
	}
	for i := range got.Slices {
		if got.Slices[i] != tr.Slices[i] {
			t.Fatalf("slice %d: %+v != %+v", i, got.Slices[i], tr.Slices[i])
		}
	}

	// Replaying the decoded trace still reproduces the execution.
	out1, _, _, _ := runWithOpts(t, contended, Options{Seed: 99})
	out2, _, _, err := runWithOpts(t, contended, Options{Replay: got, Quantum: got.Quantum})
	if err != nil {
		t.Fatal(err)
	}
	if out1 != out2 {
		t.Errorf("decoded replay output %q != original %q", out2, out1)
	}
}

func TestScheduleReplayDivergence(t *testing.T) {
	// A trace recorded from a different program must fail with a
	// structured divergence error, not a crash or a silent wrong run.
	_, _, m, err := runWithOpts(t, contended, Options{Seed: 5, RecordSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.Schedule()
	single := `
class Main { static void main() { print(1); } }`
	_, _, _, err = runWithOpts(t, single, Options{Replay: tr, Quantum: tr.Quantum})
	var re *RuntimeError
	if !errors.As(err, &re) || re.Kind != ErrScheduleDivergence {
		t.Fatalf("want schedule-divergence error, got %v", err)
	}
}

func TestScheduleDecodeErrors(t *testing.T) {
	cases := []string{
		"",
		"not a trace\n0 40\n",
		"mjsched 1 seed=x quantum=40\n",
		"mjsched 1 seed=0 quantum=40\n0 -3\n",
		"mjsched 1 seed=0 quantum=40\nbogus line\n",
	}
	for _, c := range cases {
		if _, err := DecodeSchedule(strings.NewReader(c)); err == nil {
			t.Errorf("DecodeSchedule(%q) succeeded, want error", c)
		}
	}
}
