package deadlock

import (
	"strings"
	"testing"

	"racedet/internal/rt/event"
)

// lockSeq drives thread t through nested acquisitions of the given
// locks (acquire all in order, then release in reverse).
func lockSeq(d *Detector, t event.ThreadID, locks ...event.ObjID) {
	for _, l := range locks {
		d.MonitorEnter(t, l, 1)
	}
	for i := len(locks) - 1; i >= 0; i-- {
		d.MonitorExit(t, locks[i], 0)
	}
}

func TestABBACycleReported(t *testing.T) {
	d := New()
	lockSeq(d, 1, 10, 20) // T1: A then B
	lockSeq(d, 2, 20, 10) // T2: B then A
	reports := d.Reports()
	if len(reports) != 1 {
		t.Fatalf("reports = %v, want 1 AB-BA cycle", reports)
	}
	r := reports[0]
	if len(r.Cycle) != 2 || len(r.Threads) != 2 {
		t.Errorf("report = %+v", r)
	}
	if !strings.Contains(r.String(), "POTENTIAL DEADLOCK") {
		t.Errorf("render = %q", r.String())
	}
}

func TestConsistentOrderIsQuiet(t *testing.T) {
	d := New()
	lockSeq(d, 1, 10, 20)
	lockSeq(d, 2, 10, 20)
	lockSeq(d, 3, 10, 20)
	if reports := d.Reports(); len(reports) != 0 {
		t.Fatalf("consistent order must not report: %v", reports)
	}
}

func TestSingleThreadSuppression(t *testing.T) {
	// One thread acquiring in both orders (at different times) cannot
	// deadlock with itself.
	d := New()
	lockSeq(d, 1, 10, 20)
	lockSeq(d, 1, 20, 10)
	if reports := d.Reports(); len(reports) != 0 {
		t.Fatalf("single-thread cycle must be suppressed: %v", reports)
	}
}

func TestGateLockSuppression(t *testing.T) {
	// Both inversion sequences happen under a common gate lock G: the
	// gate serializes them, no deadlock is possible.
	d := New()
	const G, A, B = 5, 10, 20
	d.MonitorEnter(1, G, 1)
	lockSeq(d, 1, A, B)
	d.MonitorExit(1, G, 0)
	d.MonitorEnter(2, G, 1)
	lockSeq(d, 2, B, A)
	d.MonitorExit(2, G, 0)
	if reports := d.Reports(); len(reports) != 0 {
		t.Fatalf("gate-locked inversion must be suppressed: %v", reports)
	}
}

func TestGateMustCoverAllObservations(t *testing.T) {
	// The gate only suppresses if it covers EVERY observation of the
	// edges; here T2 repeats the inversion without the gate.
	d := New()
	const G, A, B = 5, 10, 20
	d.MonitorEnter(1, G, 1)
	lockSeq(d, 1, A, B)
	d.MonitorExit(1, G, 0)
	d.MonitorEnter(2, G, 1)
	lockSeq(d, 2, B, A)
	d.MonitorExit(2, G, 0)
	lockSeq(d, 2, B, A) // ungated
	lockSeq(d, 1, A, B) // ungated
	if reports := d.Reports(); len(reports) != 1 {
		t.Fatalf("partially gated inversion must be reported: %v", reports)
	}
}

func TestThreeLockCycle(t *testing.T) {
	d := New()
	lockSeq(d, 1, 10, 20)
	lockSeq(d, 2, 20, 30)
	lockSeq(d, 3, 30, 10)
	reports := d.Reports()
	if len(reports) != 1 {
		t.Fatalf("reports = %v, want one 3-cycle", reports)
	}
	if len(reports[0].Cycle) != 3 {
		t.Errorf("cycle = %v", reports[0].Cycle)
	}
}

func TestReentrancyIgnored(t *testing.T) {
	d := New()
	d.MonitorEnter(1, 10, 1)
	d.MonitorEnter(1, 10, 2) // reentrant
	d.MonitorEnter(1, 20, 1)
	d.MonitorExit(1, 20, 0)
	d.MonitorExit(1, 10, 1)
	d.MonitorExit(1, 10, 0)
	if len(d.edges) != 1 {
		t.Errorf("edges = %d, want just 10->20", len(d.edges))
	}
}

func TestCycleReportedOnce(t *testing.T) {
	d := New()
	for i := 0; i < 5; i++ {
		lockSeq(d, 1, 10, 20)
		lockSeq(d, 2, 20, 10)
	}
	if reports := d.Reports(); len(reports) != 1 {
		t.Fatalf("duplicate cycle reports: %v", reports)
	}
}
