// Package event defines the runtime vocabulary shared by the
// interpreter and the datarace detectors: thread and object
// identities, logical memory locations, locksets, access events, and
// the weaker-than partial order of §3.1 of the paper.
//
// An access event is the 5-tuple (m, t, L, a, s) of §2.4: memory
// location, thread, lockset, access kind, and source location. The
// IsRace predicate and the weaker-than order are defined here exactly
// as in the paper, including the t⊥ ("at least two distinct threads")
// and t⊤ ("no threads") pseudothreads used by the trie detector.
package event

import (
	"fmt"
	"sort"
	"strings"

	"racedet/internal/lang/token"
)

// ThreadID identifies a thread. Real threads are >= 0; TBot and TTop
// are the lattice pseudothreads.
type ThreadID int32

// Pseudothreads of the thread lattice (§3.1, §3.2.1).
const (
	// TBot is t⊥: "at least two distinct threads". Once a location has
	// been accessed by two threads under the same lockset, the precise
	// identities no longer matter for future race decisions.
	TBot ThreadID = -2
	// TTop is t⊤: "no threads". Trie nodes that represent no accesses
	// hold it; it is the identity of the thread meet.
	TTop ThreadID = -3
	// NoThread marks an absent parent in lifecycle callbacks.
	NoThread ThreadID = -1
)

func (t ThreadID) String() string {
	switch t {
	case TBot:
		return "t⊥"
	case TTop:
		return "t⊤"
	case NoThread:
		return "-"
	}
	return fmt.Sprintf("T%d", int32(t))
}

// ThreadLeq is the partial order t_i ⊑ t_j of §3.1:
// t_i ⊑ t_j ⟺ t_i = t_j ∨ t_i = t⊥.
func ThreadLeq(ti, tj ThreadID) bool { return ti == tj || ti == TBot }

// ThreadMeet is the meet operator ⊓ on the thread lattice (§3.2.1).
func ThreadMeet(ti, tj ThreadID) ThreadID {
	switch {
	case ti == tj:
		return ti
	case ti == TTop:
		return tj
	case tj == TTop:
		return ti
	default:
		return TBot
	}
}

// Kind is the access type: READ or WRITE.
type Kind uint8

// Access kinds. WRITE is the bottom of the access lattice:
// a_i ⊑ a_j ⟺ a_i = a_j ∨ a_i = WRITE.
const (
	Read Kind = iota
	Write
)

func (k Kind) String() string {
	if k == Write {
		return "WRITE"
	}
	return "READ"
}

// KindLeq is a_i ⊑ a_j.
func KindLeq(ai, aj Kind) bool { return ai == aj || ai == Write }

// KindMeet is the meet: equal kinds stay, differing kinds meet at WRITE.
func KindMeet(ai, aj Kind) Kind {
	if ai == aj {
		return ai
	}
	return Write
}

// ObjID identifies a heap object, array, or class object. Real objects
// are positive; join pseudolocks (§2.3) are negative.
type ObjID int64

// PseudoLock returns the dummy synchronization object S_t introduced
// for thread t to model join ordering with mutual exclusion (§2.3).
func PseudoLock(t ThreadID) ObjID { return ObjID(-int64(t) - 1) }

// IsPseudoLock reports whether the object is a join pseudolock.
func (o ObjID) IsPseudoLock() bool { return o < 0 }

func (o ObjID) String() string {
	if o.IsPseudoLock() {
		return fmt.Sprintf("S%d", -int64(o)-1)
	}
	return fmt.Sprintf("o%d", int64(o))
}

// ArraySlot is the Loc.Slot value for array-element accesses: the
// paper associates one memory location with all elements of an array.
const ArraySlot int32 = -1

// StaticSlotBase is the first static-field slot value; static field i
// of a class maps to StaticSlot(i). Keeping statics below ArraySlot
// lets the FieldsMerged variant collapse instance fields while leaving
// static fields of the same class distinct, as the paper specifies.
const StaticSlotBase int32 = -2

// StaticSlot maps a static field index to its Loc.Slot encoding.
func StaticSlot(i int) int32 { return StaticSlotBase - int32(i) }

// Loc is a logical memory location: an object plus a field slot.
// Static fields use the class object as Obj. Array accesses use
// ArraySlot, collapsing all elements of one array to one location.
type Loc struct {
	Obj  ObjID
	Slot int32
}

func (l Loc) String() string {
	if l.Slot == ArraySlot {
		return fmt.Sprintf("%s[]", l.Obj)
	}
	return fmt.Sprintf("%s.#%d", l.Obj, l.Slot)
}

// Lockset is a canonically sorted, duplicate-free set of lock
// identities. The zero value is the empty lockset.
type Lockset []ObjID

// NewLockset builds a canonical lockset from arbitrary lock IDs.
func NewLockset(locks ...ObjID) Lockset {
	ls := append(Lockset(nil), locks...)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	// dedupe
	out := ls[:0]
	for i, l := range ls {
		if i == 0 || ls[i-1] != l {
			out = append(out, l)
		}
	}
	return out
}

// Contains reports whether l holds lock x.
func (l Lockset) Contains(x ObjID) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i] >= x })
	return i < len(l) && l[i] == x
}

// SubsetOf reports l ⊆ other.
func (l Lockset) SubsetOf(other Lockset) bool {
	i, j := 0, 0
	for i < len(l) && j < len(other) {
		switch {
		case l[i] == other[j]:
			i++
			j++
		case l[i] > other[j]:
			j++
		default:
			return false
		}
	}
	return i == len(l)
}

// Intersects reports l ∩ other ≠ ∅.
func (l Lockset) Intersects(other Lockset) bool {
	i, j := 0, 0
	for i < len(l) && j < len(other) {
		switch {
		case l[i] == other[j]:
			return true
		case l[i] < other[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// Intersect returns l ∩ other as a new canonical lockset.
func (l Lockset) Intersect(other Lockset) Lockset {
	var out Lockset
	i, j := 0, 0
	for i < len(l) && j < len(other) {
		switch {
		case l[i] == other[j]:
			out = append(out, l[i])
			i++
			j++
		case l[i] < other[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Equal reports set equality.
func (l Lockset) Equal(other Lockset) bool {
	if len(l) != len(other) {
		return false
	}
	for i := range l {
		if l[i] != other[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (l Lockset) Clone() Lockset { return append(Lockset(nil), l...) }

func (l Lockset) String() string {
	parts := make([]string, len(l))
	for i, x := range l {
		parts[i] = x.String()
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Access is an access event (m, t, L, a, s).
//
// Field order is chosen for cache density, not readability: the event
// pipeline buffers Access values by the thousand (Batcher runs, trace
// decode blocks), so the struct keeps the wide
// pointer-bearing fields together and packs the narrow scalars into
// one trailing word — with the int32 token.Pos fields this is 96
// bytes per event instead of the previous layout's 104.
type Access struct {
	Loc   Loc       // 16 bytes (12 used)
	Locks Lockset   // 24
	Pos   token.Pos // 24
	// FieldName is the human-readable location name ("Class.field" or
	// "[]") used only in reports.
	FieldName string // 16
	Thread    ThreadID
	// LockID is the interned identity of Locks when the producing
	// detector back end interns locksets (LockID and Locks are then set
	// together and Locks is the interner's immutable canonical slice).
	// Zero-valued events carry the empty lockset, consistently.
	LockID LocksetID
	Kind   Kind
}

func (a Access) String() string {
	return fmt.Sprintf("%s %s by %s locks=%s at %s", a.Kind, a.Loc, a.Thread, a.Locks, a.Pos)
}

// IsRace implements the IsRace(e_i, e_j) predicate of §2.4: same
// location, different threads, disjoint locksets, at least one write.
func IsRace(ei, ej Access) bool {
	return ei.Loc == ej.Loc &&
		ei.Thread != ej.Thread &&
		!ei.Locks.Intersects(ej.Locks) &&
		(ei.Kind == Write || ej.Kind == Write)
}

// WeakerThan implements the weaker-than partial order p ⊑ q of
// Definition 2: p.m = q.m ∧ p.L ⊆ q.L ∧ p.t ⊑ q.t ∧ p.a ⊑ q.a.
// By Theorem 1, if p ⊑ q then any future access racing with q also
// races with p, so q need not be remembered.
func WeakerThan(p, q Access) bool {
	return p.Loc == q.Loc &&
		p.Locks.SubsetOf(q.Locks) &&
		ThreadLeq(p.Thread, q.Thread) &&
		KindLeq(p.Kind, q.Kind)
}

// Sink consumes the runtime event stream produced by the interpreter.
// The full detector stack (ownership → cache → trie), each baseline
// detector, and the post-mortem logger all implement it.
type Sink interface {
	// ThreadStarted fires when a thread begins execution, including
	// the main thread (parent == NoThread). Conceptually the thread
	// performs mon-enter(S_child) as its first action (§2.3).
	ThreadStarted(child, parent ThreadID)
	// ThreadFinished fires when a thread's run method returns
	// (mon-exit(S_t)).
	ThreadFinished(t ThreadID)
	// Joined fires in the joining thread after join(t) completes; the
	// joiner conceptually performs mon-enter(S_joinee) and holds it
	// for the rest of the execution.
	Joined(joiner, joinee ThreadID)
	// MonitorEnter fires after t acquires lock; depth is the
	// post-acquire reentrancy depth (1 = outermost).
	MonitorEnter(t ThreadID, lock ObjID, depth int)
	// MonitorExit fires after t releases lock; depth is the
	// post-release reentrancy depth (0 = fully released).
	MonitorExit(t ThreadID, lock ObjID, depth int)
	// Access fires for each executed trace instruction. Locks is nil:
	// sinks maintain per-thread locksets from the monitor callbacks
	// (this keeps the common path allocation-free; a sink materializes
	// the lockset only when it actually needs it).
	Access(a Access)
}

// MultiSink fans the event stream out to several sinks (e.g. the real
// detector plus a post-mortem logger).
type MultiSink []Sink

// ThreadStarted implements Sink.
func (m MultiSink) ThreadStarted(child, parent ThreadID) {
	for _, s := range m {
		s.ThreadStarted(child, parent)
	}
}

// ThreadFinished implements Sink.
func (m MultiSink) ThreadFinished(t ThreadID) {
	for _, s := range m {
		s.ThreadFinished(t)
	}
}

// Joined implements Sink.
func (m MultiSink) Joined(joiner, joinee ThreadID) {
	for _, s := range m {
		s.Joined(joiner, joinee)
	}
}

// MonitorEnter implements Sink.
func (m MultiSink) MonitorEnter(t ThreadID, lock ObjID, depth int) {
	for _, s := range m {
		s.MonitorEnter(t, lock, depth)
	}
}

// MonitorExit implements Sink.
func (m MultiSink) MonitorExit(t ThreadID, lock ObjID, depth int) {
	for _, s := range m {
		s.MonitorExit(t, lock, depth)
	}
}

// Access implements Sink.
func (m MultiSink) Access(a Access) {
	for _, s := range m {
		s.Access(a)
	}
}

// NullSink discards all events; the Base configuration uses it.
type NullSink struct{}

// ThreadStarted implements Sink.
func (NullSink) ThreadStarted(child, parent ThreadID) {}

// ThreadFinished implements Sink.
func (NullSink) ThreadFinished(t ThreadID) {}

// Joined implements Sink.
func (NullSink) Joined(joiner, joinee ThreadID) {}

// MonitorEnter implements Sink.
func (NullSink) MonitorEnter(t ThreadID, lock ObjID, depth int) {}

// MonitorExit implements Sink.
func (NullSink) MonitorExit(t ThreadID, lock ObjID, depth int) {}

// Access implements Sink.
func (NullSink) Access(a Access) {}

// LockTracker maintains per-thread locksets (including join
// pseudolocks) from the lifecycle and monitor callbacks. Detector
// sinks embed it so they observe exactly the lock environment the
// paper's detector sees. Thread IDs are small dense ints, so the
// per-thread state lives in slices for a short hot path.
type LockTracker struct {
	stacks [][]ObjID // per thread: acquisition order, outermost first
	sorted []Lockset // memoized canonical lockset; nil = stale
	ids    []LocksetID
	intern *Interner // nil: Held allocates fresh canonical sets
}

// NewLockTracker returns an empty tracker.
func NewLockTracker() *LockTracker {
	return &LockTracker{}
}

// NewLockTrackerInterned returns a tracker that materializes locksets
// through it: Held returns the interner's immutable canonical slice
// (allocation-free after the first sight of each lockset) and HeldID
// returns its dense identity.
func NewLockTrackerInterned(it *Interner) *LockTracker {
	return &LockTracker{intern: it}
}

func (lt *LockTracker) grow(t ThreadID) {
	for int(t) >= len(lt.stacks) {
		lt.stacks = append(lt.stacks, nil)
		lt.sorted = append(lt.sorted, nil)
		lt.ids = append(lt.ids, EmptyLocksetID)
	}
}

// ThreadStarted installs the thread's own pseudolock.
func (lt *LockTracker) ThreadStarted(child, parent ThreadID) {
	lt.push(child, PseudoLock(child))
}

// ThreadFinished releases the thread's pseudolock (mon-exit(S_t)).
func (lt *LockTracker) ThreadFinished(t ThreadID) {
	lt.remove(t, PseudoLock(t))
}

// Joined grants the joiner the joinee's pseudolock permanently.
func (lt *LockTracker) Joined(joiner, joinee ThreadID) {
	lt.push(joiner, PseudoLock(joinee))
}

// MonitorEnter records an outermost acquisition; reentrant
// acquisitions (depth > 1) are ignored.
func (lt *LockTracker) MonitorEnter(t ThreadID, lock ObjID, depth int) {
	if depth == 1 {
		lt.push(t, lock)
	}
}

// MonitorExit records a full release; nested exits (depth > 0) are
// ignored.
func (lt *LockTracker) MonitorExit(t ThreadID, lock ObjID, depth int) {
	if depth == 0 {
		lt.remove(t, lock)
	}
}

func (lt *LockTracker) push(t ThreadID, lock ObjID) {
	lt.grow(t)
	lt.stacks[t] = append(lt.stacks[t], lock)
	lt.sorted[t] = nil
}

func (lt *LockTracker) remove(t ThreadID, lock ObjID) {
	lt.grow(t)
	st := lt.stacks[t]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == lock {
			lt.stacks[t] = append(st[:i], st[i+1:]...)
			lt.sorted[t] = nil
			return
		}
	}
}

// Held returns the canonical lockset currently held by t. The result
// is memoized until the lock environment changes; callers must not
// mutate it. With an interner attached, the result is the interner's
// immutable canonical slice — repeated lock environments allocate
// nothing.
func (lt *LockTracker) Held(t ThreadID) Lockset {
	lt.grow(t)
	if ls := lt.sorted[t]; ls != nil {
		return ls
	}
	if lt.intern != nil {
		id := lt.intern.Intern(lt.stacks[t])
		lt.ids[t] = id
		ls := lt.intern.Lockset(id)
		lt.sorted[t] = ls
		return ls
	}
	ls := NewLockset(lt.stacks[t]...)
	if ls == nil {
		ls = Lockset{}
	}
	lt.sorted[t] = ls
	return ls
}

// HeldID returns the interned identity of t's current lockset. The
// tracker must have been built with NewLockTrackerInterned.
func (lt *LockTracker) HeldID(t ThreadID) LocksetID {
	lt.grow(t)
	if lt.sorted[t] == nil {
		lt.Held(t)
	}
	return lt.ids[t]
}

// Stack returns t's lock acquisition stack, outermost first; callers
// must not mutate it. The cache's per-lock eviction lists key off its
// top element.
func (lt *LockTracker) Stack(t ThreadID) []ObjID {
	if int(t) >= len(lt.stacks) {
		return nil
	}
	return lt.stacks[t]
}

// Top returns the most recently acquired lock of t, or (0, false) if
// t holds no locks.
func (lt *LockTracker) Top(t ThreadID) (ObjID, bool) {
	if int(t) >= len(lt.stacks) {
		return 0, false
	}
	st := lt.stacks[t]
	if len(st) == 0 {
		return 0, false
	}
	return st[len(st)-1], true
}
