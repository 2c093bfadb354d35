package detector

import (
	"reflect"
	"sync"
	"testing"

	"racedet/internal/faultinject"
)

// TestConcurrentBackendsErrIsolated is the multi-session isolation
// contract the daemon relies on: N sharded backends running
// concurrently (one per "session"), where one backend's worker
// panics, must keep the failure session-scoped. Only the faulted
// backend's Err() is non-nil; every healthy sibling reports Err() ==
// nil and verdicts identical to a serial reference. Run under -race
// this also proves Err/Reports/Stats are safe to call from concurrent
// scraper goroutines after finalize.
func TestConcurrentBackendsErrIsolated(t *testing.T) {
	const (
		sessions = 8
		faulted  = 3
		seed     = 42
		events   = 3000
	)

	// Serial reference for the shared event stream.
	ref := New(Options{})
	feedRandom(ref, seed, events)
	want := reportStrings(ref)
	if ref.Err() != nil {
		t.Fatalf("serial reference failed: %v", ref.Err())
	}

	plan, err := faultinject.Parse("panic:shard=*,event=10")
	if err != nil {
		t.Fatal(err)
	}

	backends := make([]*Detector, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		opts := Options{}
		if i == faulted {
			// JournalCap stays 0: unsupervised, so the injected worker
			// panic must surface through Err(), not recovery.
			opts.Faults = plan
		}
		backends[i] = NewSharded(opts, 4, 16)
		wg.Add(1)
		go func() {
			defer wg.Done()
			feedRandom(backends[i], seed, events)
		}()
	}
	wg.Wait()

	// Hammer the finalize-gated accessors from several goroutines per
	// backend: the daemon's /metrics scraper does exactly this while
	// sessions finish.
	var readers sync.WaitGroup
	for _, b := range backends {
		for g := 0; g < 3; g++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				b.Reports()
				b.Err()
				b.Stats()
				b.RacyObjects()
			}()
		}
	}
	readers.Wait()

	for i, b := range backends {
		if i == faulted {
			if b.Err() == nil {
				t.Errorf("backend %d: injected worker panic did not surface via Err", i)
			}
			continue
		}
		if err := b.Err(); err != nil {
			t.Errorf("backend %d: sibling poisoned by backend %d's panic: %v", i, faulted, err)
		}
		if got := reportStrings(b); !reflect.DeepEqual(got, want) {
			t.Errorf("backend %d: reports diverge from serial reference:\ngot  %v\nwant %v", i, got, want)
		}
	}
	if plan.Fired() == 0 {
		t.Fatal("injected panic never fired")
	}
}

// TestConcurrentBackendsSupervisedIsolated is the same isolation
// check with supervision on: the faulted backend recovers (Err() ==
// nil, restart counted) and its reports — like every sibling's —
// still match the serial reference.
func TestConcurrentBackendsSupervisedIsolated(t *testing.T) {
	const (
		sessions = 6
		faulted  = 2
		seed     = 7
		events   = 3000
	)

	ref := New(Options{})
	feedRandom(ref, seed, events)
	want := reportStrings(ref)

	plan, err := faultinject.Parse("panic:shard=*,event=25")
	if err != nil {
		t.Fatal(err)
	}

	backends := make([]*Detector, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		opts := Options{JournalCap: 64, RetryBudget: 3}
		if i == faulted {
			opts.Faults = plan
		}
		backends[i] = NewSharded(opts, 4, 16)
		wg.Add(1)
		go func() {
			defer wg.Done()
			feedRandom(backends[i], seed, events)
		}()
	}
	wg.Wait()

	for i, b := range backends {
		if err := b.Err(); err != nil {
			t.Errorf("backend %d: Err = %v, want nil (supervision must contain the panic)", i, err)
		}
		if got := reportStrings(b); !reflect.DeepEqual(got, want) {
			t.Errorf("backend %d: reports diverge from serial reference", i)
		}
		restarts := b.Stats().Recovery.Restarts
		if i == faulted && restarts == 0 {
			t.Errorf("backend %d: panic fired but no restart recorded", i)
		}
		if i != faulted && restarts != 0 {
			t.Errorf("backend %d: sibling recorded %d restarts without faults", i, restarts)
		}
	}
	if plan.Fired() == 0 {
		t.Fatal("injected panic never fired")
	}
}
