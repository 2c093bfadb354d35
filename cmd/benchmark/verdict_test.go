package main

import (
	"testing"

	"racedet/internal/core"
	"racedet/internal/service"
)

func TestFullVerdictsAccepted(t *testing.T) {
	progs, err := loadPrograms()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		for _, seed := range []int64{1, 99, 12345} {
			rr, err := core.RunSource(p.file, p.source, core.Full().WithSeed(seed))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.checkRun(rr); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
		}
	}
}

// Without the ownership filter the detector over-reports (Table 3's
// NoOwnership column); the verdict check must catch that on every
// program.
func TestNoOwnershipVerdictRejected(t *testing.T) {
	progs, err := loadPrograms()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range progs {
		rr, err := core.RunSource(p.file, p.source, core.Full().NoOwnership().WithSeed(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.checkRun(rr); err == nil {
			t.Errorf("%s: a NoOwnership result passed the verdict check", p.name)
		}
	}
}

func TestAccountingViolationRejected(t *testing.T) {
	progs, err := loadPrograms()
	if err != nil {
		t.Fatal(err)
	}
	p := progs[0]
	rr, err := core.RunSource(p.file, p.source, core.Full().WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	rr.DetectorStats.CacheHits++
	if err := p.checkRun(rr); err == nil {
		t.Error("a run whose counters do not balance passed the check")
	}
}

func TestFailedJobRejected(t *testing.T) {
	progs, err := loadPrograms()
	if err != nil {
		t.Fatal(err)
	}
	p := progs[3] // elevator: no races, so an empty result is otherwise right
	for _, res := range []service.JobResult{
		{CompileError: "parse: boom"},
		{RuntimeError: "deadlock: stuck"},
		{Degraded: true, DegradedReason: "panic"},
	} {
		if err := p.checkJob(&res); err == nil {
			t.Errorf("job result %+v passed the check", res)
		}
	}
	if err := p.checkJob(&service.JobResult{}); err != nil {
		t.Errorf("a clean elevator result failed the check: %v", err)
	}
}
