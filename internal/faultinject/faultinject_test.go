package faultinject

import (
	"errors"
	"syscall"
	"testing"
	"time"
)

// Empty reports whether the plan contains no faults at all.
func (p *Plan) Empty() bool {
	return !p.HasSessionFaults() && !p.HasDiskFaults()
}

func TestParseSpec(t *testing.T) {
	p, err := Parse("session-panic:job=1,times=2; slow-client:job=*,delay=1ms; admission-full:times=3; enospc:disk=wal,times=1; crash:at=4")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.sessPanics) != 1 || p.sessPanics[0].job != 1 || p.sessPanics[0].left.Load() != 2 {
		t.Errorf("session-panic fault = %+v", p.sessPanics)
	}
	if len(p.slowClients) != 1 || p.slowClients[0].job != anyJob || p.slowClients[0].delay != time.Millisecond {
		t.Errorf("slow-client fault = %+v", p.slowClients)
	}
	if len(p.admissions) != 1 || p.admissions[0].left.Load() != 3 {
		t.Errorf("admission-full fault = %+v", p.admissions)
	}
	if len(p.enospcs) != 1 || p.enospcs[0].disk != "wal" || p.enospcs[0].left.Load() != 1 {
		t.Errorf("enospc fault = %+v", p.enospcs)
	}
	if len(p.crashes) != 1 || p.crashes[0].disk != "*" || p.crashes[0].at != 4 {
		t.Errorf("crash fault = %+v", p.crashes)
	}
	if p.Empty() {
		t.Error("plan should not be empty")
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	p, err := Parse("")
	if err != nil || !p.Empty() {
		t.Fatalf("empty spec: plan=%+v err=%v", p, err)
	}
	for _, bad := range []string{
		"explode:job=1",
		"session-panic:job=1 times=2", // malformed args
		"session-panic:job",           // malformed args
		"panic:shard=0,event=1",
		"slow:shard=0,every=8,delay=1ms",
		"queuefull:shard=0,times=1",
		"corrupt-checkpoint:shard=0",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestSessionPanicBudget(t *testing.T) {
	p, err := Parse("session-panic:job=2,times=2")
	if err != nil {
		t.Fatal(err)
	}
	if p.Empty() {
		t.Error("plan with session faults reported Empty")
	}
	if !p.HasSessionFaults() {
		t.Error("HasSessionFaults() = false")
	}
	p.SessionEvent(1) // wrong job: must not fire
	fires := 0
	for i := 0; i < 4; i++ {
		func() {
			defer func() {
				if recover() != nil {
					fires++
				}
			}()
			p.SessionEvent(2)
		}()
	}
	if fires != 2 {
		t.Errorf("session panic fired %d times, want 2", fires)
	}
	if p.Fired() != 2 {
		t.Errorf("Fired() = %d, want 2", p.Fired())
	}
}

func TestSessionPanicWildcardDefaultsOnce(t *testing.T) {
	p, err := Parse("session-panic:job=*")
	if err != nil {
		t.Fatal(err)
	}
	fires := 0
	for job := uint64(1); job <= 3; job++ {
		func() {
			defer func() {
				if recover() != nil {
					fires++
				}
			}()
			p.SessionEvent(job)
		}()
	}
	if fires != 1 {
		t.Errorf("wildcard session panic fired %d times, want 1 (default times)", fires)
	}
}

func TestClientDisconnectOneShot(t *testing.T) {
	p, err := Parse("client-disconnect:job=3")
	if err != nil {
		t.Fatal(err)
	}
	if p.ClientDisconnect(1) {
		t.Error("wrong job disconnected")
	}
	if !p.ClientDisconnect(3) {
		t.Error("expected disconnect")
	}
	if p.ClientDisconnect(3) {
		t.Error("one-shot disconnect fired twice")
	}
}

func TestSlowClientAndAdmission(t *testing.T) {
	p, err := Parse("slow-client:job=1,delay=5ms;admission-full:times=1")
	if err != nil {
		t.Fatal(err)
	}
	if d := p.SlowClient(2); d != 0 {
		t.Errorf("wrong job slowed: %v", d)
	}
	if d := p.SlowClient(1); d != 5*time.Millisecond {
		t.Errorf("SlowClient = %v, want 5ms", d)
	}
	if !p.AdmissionFull() {
		t.Error("expected one admission-full firing")
	}
	if p.AdmissionFull() {
		t.Error("admission budget exhausted but still firing")
	}
}

func TestDiskFaults(t *testing.T) {
	p, err := Parse("enospc:disk=wal,times=2; shortwrite:disk=wal,at=4; fsyncfail:times=1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Empty() {
		t.Error("plan with disk faults reported Empty")
	}
	if !p.HasDiskFaults() {
		t.Error("HasDiskFaults() = false")
	}
	// Ops 1-2: ENOSPC budget; op 3: clean; op 4: the torn write.
	for i := 0; i < 2; i++ {
		partial, err := p.DiskWrite("wal")
		if err == nil || partial {
			t.Fatalf("op %d: partial=%v err=%v, want full-fail ENOSPC", i+1, partial, err)
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("op %d: error %v does not unwrap to ENOSPC", i+1, err)
		}
	}
	if partial, err := p.DiskWrite("wal"); err != nil || partial {
		t.Fatalf("op 3 should be clean, got partial=%v err=%v", partial, err)
	}
	if partial, err := p.DiskWrite("wal"); err == nil || !partial {
		t.Fatalf("op 4 should be the torn write, got partial=%v err=%v", partial, err)
	}
	if partial, err := p.DiskWrite("wal"); err != nil || partial {
		t.Fatalf("shortwrite must be one-shot, got partial=%v err=%v", partial, err)
	}
	// fsyncfail with no disk= matches any stream, once.
	if err := p.DiskSync("wal"); err == nil {
		t.Error("expected one fsync failure")
	}
	if err := p.DiskSync("wal"); err != nil {
		t.Errorf("fsync budget exhausted but still failing: %v", err)
	}
	if p.Fired() != 4 {
		t.Errorf("Fired() = %d, want 4", p.Fired())
	}
}

func TestDiskFaultStreamsCountIndependently(t *testing.T) {
	p, err := Parse("shortwrite:disk=wal,at=2")
	if err != nil {
		t.Fatal(err)
	}
	// Writes on another stream must not advance wal's op counter.
	if partial, err := p.DiskWrite("other"); err != nil || partial {
		t.Fatalf("other op 1: partial=%v err=%v", partial, err)
	}
	if partial, err := p.DiskWrite("wal"); err != nil || partial {
		t.Fatalf("wal op 1: partial=%v err=%v", partial, err)
	}
	if _, err := p.DiskWrite("wal"); err == nil {
		t.Fatal("wal op 2 should tear")
	}
	if _, err := p.DiskWrite("other"); err != nil {
		t.Fatalf("disk=wal fault leaked onto another stream: %v", err)
	}
}

func TestDiskSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"enospc:disk=wal",          // missing times
		"enospc:disk=wal,times=0",  // zero times
		"shortwrite:disk=wal",      // missing at
		"shortwrite:disk=wal,at=0", // zero at
		"fsyncfail:disk=wal",       // missing times
		"crash:disk=wal",           // missing at
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
}

func TestSessionSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"session-panic:job=0",
		"session-panic:job=-1",
		"session-panic:job=1,times=0",
		"slow-client:job=1",
		"slow-client:job=1,delay=banana",
		"admission-full:",
		"client-disconnect:job=x",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", spec)
		}
	}
}
