// Package immutable implements the dynamic immutability analysis the
// paper lists as future work alongside deadlock detection (§10: "we
// plan to broaden the static/dynamic coanalysis approach to tackle
// other problems such as deadlock detection and immutability
// analysis").
//
// The analysis observes the same access-event stream as the race
// detectors and classifies each shared memory location:
//
//   - init-only: written only before it was ever read by a second
//     thread — the write-once publish idiom. Such locations can be
//     declared immutable (final), documenting why their unsynchronized
//     cross-thread reads are safe (the hedc LinkedQueue fields are the
//     paper's example of this idiom confusing coarse detectors);
//   - mutable-shared: written after becoming cross-thread visible —
//     these need synchronization and are exactly the locations the
//     race detector watches.
//
// Aggregation to fields: a field is reported observed-immutable when
// every shared location of that field is init-only. Thread-local
// locations (one thread only) are excluded from the aggregate — they
// say nothing about cross-thread immutability.
package immutable

import (
	"fmt"
	"sort"

	"racedet/internal/rt/event"
)

type locState struct {
	field       string
	firstThread event.ThreadID
	shared      bool // accessed by a second thread
	writesAfter bool // written after becoming shared
}

// Detector classifies location mutability from the event stream.
type Detector struct {
	locs map[event.Loc]*locState
}

var _ event.Sink = (*Detector)(nil)

// New returns an empty immutability analyzer.
func New() *Detector {
	return &Detector{locs: make(map[event.Loc]*locState)}
}

// ThreadStarted implements event.Sink.
func (d *Detector) ThreadStarted(child, parent event.ThreadID) {}

// ThreadFinished implements event.Sink.
func (d *Detector) ThreadFinished(t event.ThreadID) {}

// Joined implements event.Sink.
func (d *Detector) Joined(joiner, joinee event.ThreadID) {}

// MonitorEnter implements event.Sink.
func (d *Detector) MonitorEnter(t event.ThreadID, lock event.ObjID, depth int) {}

// MonitorExit implements event.Sink.
func (d *Detector) MonitorExit(t event.ThreadID, lock event.ObjID, depth int) {}

// Access implements event.Sink.
func (d *Detector) Access(a event.Access) {
	st := d.locs[a.Loc]
	if st == nil {
		st = &locState{field: a.FieldName, firstThread: a.Thread}
		d.locs[a.Loc] = st
	}
	if !st.shared && a.Thread != st.firstThread {
		st.shared = true
	}
	if st.shared && a.Kind == event.Write {
		st.writesAfter = true
	}
}

// FieldReport summarizes one field's observed mutability.
type FieldReport struct {
	Field string
	// SharedLocs is how many of the field's locations were observed
	// cross-thread; Immutable of those were never written post-share.
	SharedLocs int
	Immutable  int
}

// ObservedImmutable reports whether every shared location was init-only.
func (r FieldReport) ObservedImmutable() bool {
	return r.SharedLocs > 0 && r.Immutable == r.SharedLocs
}

func (r FieldReport) String() string {
	verdict := "MUTABLE-SHARED"
	if r.ObservedImmutable() {
		verdict = "OBSERVED-IMMUTABLE"
	}
	return fmt.Sprintf("%s %s (%d/%d shared locations init-only)",
		verdict, r.Field, r.Immutable, r.SharedLocs)
}

// Reports aggregates the per-location states into per-field verdicts,
// sorted by field name; fields never observed cross-thread are
// omitted.
func (d *Detector) Reports() []FieldReport {
	byField := map[string]*FieldReport{}
	for _, st := range d.locs {
		if !st.shared {
			continue
		}
		r := byField[st.field]
		if r == nil {
			r = &FieldReport{Field: st.field}
			byField[st.field] = r
		}
		r.SharedLocs++
		if !st.writesAfter {
			r.Immutable++
		}
	}
	out := make([]FieldReport, 0, len(byField))
	for _, r := range byField {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Field < out[j].Field })
	return out
}
