// Package ownership implements the ownership model of §2.3/§7: the
// first thread to touch a location owns it, and accesses by the owner
// are invisible to the detector until a second thread touches the
// location, at which point it becomes shared and all subsequent
// accesses flow through.
//
// This approximates the happened-before ordering created by thread
// start: the common idiom of a parent initializing data and handing it
// to a child produces no false races, without tracking start edges.
package ownership

import (
	"racedet/internal/rt/event"
	"racedet/internal/rt/loctab"
)

// State is the ownership state of a location.
type State int8

// Ownership states.
const (
	Unowned State = iota // never accessed
	Owned                // accessed by exactly one thread so far
	Shared               // accessed by at least two threads
)

// cell is one location's ownership record; the zero cell is Unowned,
// the dense table's absent value.
type cell struct {
	owner event.ThreadID // meaningful while Owned
	state State
}

// Table tracks per-location owners.
type Table struct {
	cells       loctab.Table[cell]
	locations   int // cells in state Owned or Shared
	transitions uint64

	// maxLocations caps the table (0 = unbounded). Locations that
	// arrive once the table is full are never tracked: they behave as
	// immediately shared, so every access flows to the detector. The
	// filter loses its benefit for those locations but can never absorb
	// a racing access — degradation is strictly more reporting.
	maxLocations int
	overflows    uint64

	// onContact, when set, is invoked synchronously on every
	// owned→shared transition — the moment a second thread first
	// touches a location. The sampling layer uses it to re-arm
	// throttled sites (see internal/rt/sitestate); overflow locations
	// never fire it (they are born shared, no transition happens).
	onContact func(event.Loc)
}

// New returns an empty ownership table.
func New() *Table { return &Table{} }

// NewBounded returns an ownership table tracking at most maxLocations
// locations; overflow locations are treated as born-shared.
func NewBounded(maxLocations int) *Table {
	return &Table{maxLocations: maxLocations}
}

// Clone returns a deep copy of the table for checkpointing. The
// onContact callback is deliberately not copied: a checkpoint is
// passive state and must not fire notifications into the live run.
func (tb *Table) Clone() *Table {
	return &Table{
		cells:        *tb.cells.Clone(),
		locations:    tb.locations,
		transitions:  tb.transitions,
		maxLocations: tb.maxLocations,
		overflows:    tb.overflows,
	}
}

// Filter processes an access by thread t to loc. It returns true if
// the access must be forwarded to the detector (the location is
// shared), false if the access is absorbed by the ownership model.
// becameShared additionally signals the owned→shared transition so the
// caller can evict the location from all caches (§7.2).
func (tb *Table) Filter(t event.ThreadID, loc event.Loc) (forward, becameShared bool) {
	c := tb.cells.Get(loc)
	switch {
	case c == nil || c.state == Unowned:
		if tb.maxLocations > 0 && tb.locations >= tb.maxLocations {
			// Table full: the location is never tracked and acts as
			// shared from its first access on.
			tb.overflows++
			return true, false
		}
		*tb.cells.At(loc) = cell{owner: t, state: Owned}
		tb.locations++
		return false, false
	case c.state == Shared:
		return true, false
	case c.owner == t:
		return false, false
	default:
		// Second thread: the location becomes shared; this access and
		// all subsequent ones go to the detector.
		c.state = Shared
		tb.transitions++
		if tb.onContact != nil {
			tb.onContact(loc)
		}
		return true, true
	}
}

// SetOnContact installs the owned→shared transition callback.
func (tb *Table) SetOnContact(fn func(event.Loc)) { tb.onContact = fn }

// StateOf reports the current ownership state of loc (tests).
func (tb *Table) StateOf(loc event.Loc) State {
	if c := tb.cells.Get(loc); c != nil {
		return c.state
	}
	return Unowned
}

// SharedCount returns how many locations have become shared.
func (tb *Table) SharedCount() int { return int(tb.transitions) }

// Transitions returns the number of owned→shared transitions.
func (tb *Table) Transitions() uint64 { return tb.transitions }

// Locations returns the number of tracked locations (space metric).
func (tb *Table) Locations() int { return tb.locations }

// Overflows returns the number of accesses forwarded because the
// bounded table was full (0 in unbounded mode).
func (tb *Table) Overflows() uint64 { return tb.overflows }
