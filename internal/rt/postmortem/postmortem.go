// Package postmortem implements the off-line half of the paper's §1
// remark that the approach "could be easily modified to perform
// post-mortem datarace detection by creating a log of access events
// during program execution and performing the final datarace detection
// phase off-line", and §2.6's note that the expensive reconstruction of
// FullRace can run during replay.
//
// The log of access events is the binary .mjtrace (internal/rt/trace);
// replaying it through a detector is core.ReplayTrace. This package
// adds the one analysis that exists only off-line: FullRace, every
// racing access pair — the O(N²) set the on-the-fly detector
// deliberately summarizes to one report per location (§2.5).
package postmortem

import (
	"fmt"

	"racedet/internal/rt/event"
	"racedet/internal/rt/trace"
)

// RacePair is one element of FullRace: two accesses that satisfy
// IsRace.
type RacePair struct {
	First  event.Access
	Second event.Access
}

func (p RacePair) String() string {
	return fmt.Sprintf("%s  <races with>  %s", p.First, p.Second)
}

// FullRace replays a recorded trace and reconstructs every racing
// access pair under the raw §2.4 definition. Locksets are reconstructed
// from the recorded monitor and lifecycle events, including the join
// pseudolocks. maxPairs bounds the output (0 = unlimited). A corrupt
// segment fails with the trace's *trace.FormatError.
func FullRace(tr *trace.Reader, maxPairs int) ([]RacePair, error) {
	collector := &fullRaceSink{
		locks:    event.NewLockTrackerInterned(event.NewInterner()),
		history:  make(map[event.Loc][]event.Access),
		maxPairs: maxPairs,
	}
	if _, err := tr.Replay(collector, 1); err != nil {
		return nil, err
	}
	return collector.pairs, nil
}

type fullRaceSink struct {
	locks    *event.LockTracker
	history  map[event.Loc][]event.Access
	pairs    []RacePair
	maxPairs int
}

func (f *fullRaceSink) ThreadStarted(c, p event.ThreadID) { f.locks.ThreadStarted(c, p) }
func (f *fullRaceSink) ThreadFinished(t event.ThreadID)   { f.locks.ThreadFinished(t) }
func (f *fullRaceSink) Joined(a, b event.ThreadID)        { f.locks.Joined(a, b) }
func (f *fullRaceSink) MonitorEnter(t event.ThreadID, l event.ObjID, d int) {
	f.locks.MonitorEnter(t, l, d)
}
func (f *fullRaceSink) MonitorExit(t event.ThreadID, l event.ObjID, d int) {
	f.locks.MonitorExit(t, l, d)
}

func (f *fullRaceSink) Access(a event.Access) {
	// The interned tracker hands out immutable canonical locksets, so
	// the access can keep a reference without copying; every identical
	// lockset in the history then shares one backing array.
	a.Locks = f.locks.Held(a.Thread)
	for _, prev := range f.history[a.Loc] {
		if event.IsRace(prev, a) {
			if f.maxPairs > 0 && len(f.pairs) >= f.maxPairs {
				return
			}
			f.pairs = append(f.pairs, RacePair{First: prev, Second: a})
		}
	}
	f.history[a.Loc] = append(f.history[a.Loc], a)
}
