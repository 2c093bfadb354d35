// Package detector composes the paper's full runtime stack — join
// pseudolocks (§2.3), the ownership filter (§7), the per-thread access
// caches (§4), and the trie-based weaker-than detector (§3) — behind
// the event.Sink interface the interpreter feeds.
//
// There is one per-access pipeline, run synchronously on the
// producer's goroutine in event order:
//
//	cache lookup → [hit: done]
//	ownership filter → [owned: cache insert, done; owned→shared:
//	                    evict location from all caches]
//	(sampling only: per-site throttle, see sampling.go)
//	ship: materialize the lockset
//	    → trie: weakness check → race check → update
//	cache insert
//
// Reporting follows Definition 1: the detector reports at least one
// racing access for every memory location involved in a datarace
// (deduplicated per location by default).
package detector

import (
	"fmt"
	"sort"

	"racedet/internal/rt/cache"
	"racedet/internal/rt/event"
	"racedet/internal/rt/ownership"
	"racedet/internal/rt/sitestate"
	"racedet/internal/rt/trie"
)

// Options selects which layers run; the zero value is the paper's
// "Full" runtime configuration. The history is always one trie per
// location (§3); MaxTrieNodes only bounds its size.
type Options struct {
	// NoCache disables the §4 runtime optimizer (Table 2 "NoCache").
	NoCache bool
	// NoOwnership disables the §7 ownership filter (Table 3
	// "NoOwnership"): every location starts shared.
	NoOwnership bool
	// FieldsMerged collapses all instance fields (and the array
	// pseudo-field) of an object into one location (Table 3
	// "FieldsMerged"). Static fields of the same class stay distinct,
	// as in the paper.
	FieldsMerged bool
	// NoPseudoLocks disables the §2.3 join pseudolocks; used to
	// demonstrate the mtrt I/O-statistics false positive that
	// single-common-lock detectors report (§8.3).
	NoPseudoLocks bool
	// ReportAll reports every racing access event rather than one per
	// location (closer to FullRace; quadratic in the worst case).
	ReportAll bool
	// MaxTrieNodes bounds trie history memory (0 = unbounded). Over
	// budget, whole per-location histories collapse to a conservative
	// summary that reports strictly more races, never fewer.
	MaxTrieNodes int
	// MaxCacheThreads bounds the number of live per-thread access
	// caches (0 = unbounded); over budget the least recently used
	// thread's caches are discarded (pure filtering loss).
	MaxCacheThreads int
	// MaxOwnerLocations bounds the ownership table (0 = unbounded);
	// overflow locations are treated as born-shared.
	MaxOwnerLocations int
	// DescribeObj renders an object for reports (e.g. "TspSolver#3
	// allocated at tsp.mj:12:9"); optional.
	DescribeObj func(event.ObjID) string

	// SampleK > 0 enables adaptive per-site throttling: a static access
	// site (source position + access kind) demotes to a counting-only
	// stub after K consecutive clean observations under an unchanged
	// lock environment, and re-arms on ownership contact (see
	// internal/rt/sitestate). Requires the ownership filter; ignored
	// under NoOwnership. Sampling disables the QuickCheck fast path so
	// the filter observes the complete event stream — which is what
	// makes a live sampled run byte-identical to replaying an
	// (unsampled) recorded trace with sampling on.
	SampleK int
	// SampleBudget > 0 additionally enables the target-overhead
	// controller: K is tightened/loosened each window to hold the
	// events-shipped ratio at the budget (0 < budget <= 1). With
	// SampleK == 0 the initial K is sitestate.DefaultK.
	SampleBudget float64

	// Priors seeds the throttle with per-site static lock-discipline
	// priors (see sitestate.Prior): high-prior sites are pinned armed,
	// low-prior sites demote early. Nil means no priors. InvertPriors
	// swaps high and low — the ablation mode. Both are ignored unless
	// sampling is enabled.
	Priors       map[sitestate.Key]sitestate.Prior
	InvertPriors bool
}

// Report describes one reported datarace: the access that triggered
// the report plus what is known about a prior conflicting access.
type Report struct {
	Access      event.Access
	PriorThread event.ThreadID // may be t⊥ (§3.1)
	PriorLocks  event.Lockset
	PriorKind   event.Kind
	ObjDesc     string
}

func (r Report) String() string {
	prior := fmt.Sprintf("earlier %s by %s locks=%s", r.PriorKind, r.PriorThread, r.PriorLocks)
	desc := ""
	if r.ObjDesc != "" {
		desc = " on " + r.ObjDesc
	}
	return fmt.Sprintf("DATARACE %s (%s by %s locks=%s at %s)%s; %s",
		r.Access.FieldName, r.Access.Kind, r.Access.Thread, r.Access.Locks, r.Access.Pos, desc, prior)
}

// Stats aggregates work counters across the layers.
type Stats struct {
	Accesses   uint64 // trace events received
	CacheHits  uint64
	OwnerSkips uint64 // accesses absorbed by the ownership filter
	// Shipped counts accesses delivered to the trie stage — the
	// detection work the filter layers could not absorb. The accounting
	// invariant, sampled or not:
	//
	//	Accesses == Shipped + CacheHits + OwnerSkips + Sample.Suppressed
	Shipped uint64
	// Sample reports the per-site throttling layer's counters (all zero
	// unless SampleK/SampleBudget enabled it).
	Sample sitestate.Stats
	// OwnerLocations is the number of locations the ownership table
	// tracks — the detector-memory growth witness behind the paper's
	// mtrt/NoStatic out-of-memory observation.
	OwnerLocations int
	// OwnerOverflows counts accesses the bounded ownership table
	// forwarded as born-shared (0 in unbounded mode).
	OwnerOverflows uint64
	Trie           trie.Stats
	Cache          cache.Stats
}

// Detector is the composed runtime detector.
type Detector struct {
	opts Options

	locks *event.LockTracker
	cache *cache.Cache
	owner *ownership.Table
	sites *sitestate.Table // non-nil iff per-site throttling is on
	stats Stats            // filter counters; trie counters join at read time
	trie  *trie.Detector   // one trie per location (§3)

	reports     []Report // ObjDesc is rendered at read time
	reportedLoc map[event.Loc]struct{}
	reportedObj map[event.ObjID]struct{}
}

var _ event.BatchSink = (*Detector)(nil)

// New builds a detector configured by opts.
func New(opts Options) *Detector {
	it := event.NewInterner()
	d := &Detector{
		opts:        opts,
		locks:       event.NewLockTrackerInterned(it),
		cache:       cache.New(),
		owner:       ownership.New(),
		reportedLoc: make(map[event.Loc]struct{}),
		reportedObj: make(map[event.ObjID]struct{}),
	}
	if opts.MaxCacheThreads > 0 {
		d.cache = cache.NewBounded(opts.MaxCacheThreads)
	}
	if opts.MaxOwnerLocations > 0 {
		d.owner = ownership.NewBounded(opts.MaxOwnerLocations)
	}
	if sc, on := samplingConfig(opts); on {
		d.sites = sitestate.New(sc)
		d.owner.SetOnContact(d.sites.Contact)
	}
	if opts.MaxTrieNodes > 0 {
		d.trie = trie.NewBounded(opts.MaxTrieNodes)
	} else {
		d.trie = trie.New()
	}
	d.trie.SetInterner(it)
	return d
}

// samplingConfig resolves the Options sampling knobs. Throttling needs
// the ownership filter's contact signal to stay over-report-never-miss,
// so NoOwnership disables it.
func samplingConfig(opts Options) (sitestate.Config, bool) {
	if opts.NoOwnership || (opts.SampleK <= 0 && opts.SampleBudget <= 0) {
		return sitestate.Config{}, false
	}
	return sitestate.Config{
		K:            opts.SampleK,
		Budget:       opts.SampleBudget,
		Priors:       opts.Priors,
		InvertPriors: opts.InvertPriors,
	}, true
}

// ---------------------------------------------------------------------------
// results
//
// The accessors read live state and end nothing: results may be read
// partway through the stream, and feeding may continue afterwards.

// Reports returns the datarace reports in detection order. Object
// descriptions are rendered here, at read time.
func (d *Detector) Reports() []Report {
	reports := append([]Report(nil), d.reports...)
	if d.opts.DescribeObj != nil {
		for i := range reports {
			reports[i].ObjDesc = d.opts.DescribeObj(reports[i].Access.Loc.Obj)
		}
	}
	return reports
}

// RacyObjects returns the distinct objects named in reports, sorted —
// the quantity Table 3 counts.
func (d *Detector) RacyObjects() []event.ObjID {
	objs := make([]event.ObjID, 0, len(d.reportedObj))
	for o := range d.reportedObj {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	return objs
}

// Stats returns the filter counters plus the trie's.
func (d *Detector) Stats() Stats {
	s := d.stats
	s.OwnerLocations = d.owner.Locations()
	s.OwnerOverflows = d.owner.Overflows()
	s.Cache = d.cache.Stats()
	if d.sites != nil {
		s.Sample = d.sites.Stats()
	}
	s.Trie = d.trie.Stats()
	return s
}

// TrieNodeCount exposes the history size (space metric).
func (d *Detector) TrieNodeCount() int { return d.trie.NodeCount() }

// TrieLocationCount exposes the number of locations with history.
func (d *Detector) TrieLocationCount() int { return d.trie.LocationCount() }

// SetDescribeObj installs the object renderer used in reports. The
// runner sets it after the interpreter (which owns the heap) exists;
// it runs only when reports are read.
func (d *Detector) SetDescribeObj(fn func(event.ObjID) string) { d.opts.DescribeObj = fn }

// ---------------------------------------------------------------------------
// event.Sink implementation

// ThreadStarted implements event.Sink.
func (d *Detector) ThreadStarted(child, parent event.ThreadID) {
	if !d.opts.NoPseudoLocks {
		d.locks.ThreadStarted(child, parent)
	}
}

// ThreadFinished implements event.Sink.
func (d *Detector) ThreadFinished(t event.ThreadID) {
	if !d.opts.NoPseudoLocks {
		d.locks.ThreadFinished(t)
	}
	d.cache.ThreadFinished(t)
}

// Joined implements event.Sink.
func (d *Detector) Joined(joiner, joinee event.ThreadID) {
	if !d.opts.NoPseudoLocks {
		d.locks.Joined(joiner, joinee)
	}
}

// MonitorEnter implements event.Sink. The trie sees the lock
// environment only through the locksets ship attaches to accesses.
func (d *Detector) MonitorEnter(t event.ThreadID, lock event.ObjID, depth int) {
	d.locks.MonitorEnter(t, lock, depth)
}

// MonitorExit implements event.Sink. Releasing a lock evicts the
// cache entries whose locksets contain it; reentrant exits are
// ignored, matching §4.2's note on nested locks.
func (d *Detector) MonitorExit(t event.ThreadID, lock event.ObjID, depth int) {
	d.locks.MonitorExit(t, lock, depth)
	if depth == 0 && !d.opts.NoCache {
		d.cache.LockReleased(t, lock)
	}
}

// QuickCheck is the inlined fast path of the §4 runtime optimizer:
// the paper compiles the cache lookup into the instrumented code so a
// hit never calls into the detector. The interpreter calls it before
// materializing a full access event; true means the access was
// absorbed by the cache.
func (d *Detector) QuickCheck(t event.ThreadID, loc event.Loc, kind event.Kind) bool {
	// Under sampling the fast path is off: the throttling layer must
	// observe the complete stream (site counters, touch accounting), and
	// a live sampled run must see exactly what a trace replay feeds it.
	if d.opts.NoCache || d.sites != nil {
		return false
	}
	if d.opts.FieldsMerged && loc.Slot >= event.ArraySlot {
		loc.Slot = 0
	}
	if d.cache.Lookup(t, loc, kind) {
		d.stats.Accesses++
		d.stats.CacheHits++
		return true
	}
	return false
}

// filter is the front half of the per-access pipeline — stats, field
// merging, cache lookup, ownership — shared by Access and AccessBatch.
// It returns the (possibly merged) location and whether the access
// survives to the trie stage; absorbed accesses are fully accounted
// (including the owner-skip cache insert) before it returns.
func (d *Detector) filter(t event.ThreadID, loc event.Loc, kind event.Kind) (event.Loc, bool) {
	d.stats.Accesses++
	// FieldsMerged collapses instance fields and the array pseudo-slot
	// (Slot >= ArraySlot) to one location per object; static slots
	// (Slot <= StaticSlotBase) stay distinct, as in the paper.
	if d.opts.FieldsMerged && loc.Slot >= event.ArraySlot {
		loc.Slot = 0
	}

	// 1. Cache.
	if !d.opts.NoCache {
		if d.cache.Lookup(t, loc, kind) {
			d.stats.CacheHits++
			return loc, false
		}
	}

	// 2. Ownership.
	if !d.opts.NoOwnership {
		forward, becameShared := d.owner.Filter(t, loc)
		if becameShared && !d.opts.NoCache {
			d.cache.EvictLocation(loc)
		}
		if !forward {
			d.stats.OwnerSkips++
			if !d.opts.NoCache {
				top, ok := d.locks.Top(t)
				d.cache.Insert(t, loc, kind, top, ok)
			}
			return loc, false
		}
	}
	return loc, true
}

// ship runs a filter survivor through the trie stage: materialize the
// (interned) lockset, check and update the history, and insert into
// the cache so equal-or-stronger accesses short-circuit.
func (d *Detector) ship(a event.Access, loc event.Loc) {
	d.stats.Shipped++
	a.Loc = loc
	a.Locks = d.locks.Held(a.Thread) // immutable canonical slice
	a.LockID = d.locks.HeldID(a.Thread)
	if race, info := d.trie.Process(a); race {
		d.report(&a, info)
	}
	if !d.opts.NoCache {
		top, ok := d.locks.Top(a.Thread)
		d.cache.Insert(a.Thread, loc, a.Kind, top, ok)
	}
}

// report records a race the trie found on shipped access a, once per
// location unless ReportAll.
func (d *Detector) report(a *event.Access, info trie.RaceInfo) {
	if !d.opts.ReportAll {
		if _, dup := d.reportedLoc[a.Loc]; dup {
			return
		}
		if d.sites != nil {
			// Nothing later on this location can change the verdict.
			d.sites.Reported(a.Loc)
		}
	}
	d.reportedLoc[a.Loc] = struct{}{}
	d.reportedObj[a.Loc.Obj] = struct{}{}
	d.reports = append(d.reports, Report{
		Access:      *a,
		PriorThread: info.PriorThread,
		PriorLocks:  info.PriorLocks,
		PriorKind:   info.PriorKind,
	})
}

// Access implements event.Sink: the full per-access pipeline. The
// interpreter only calls it after QuickCheck missed, so the cache
// lookup here is a second (cheap) miss except for sinks that do not
// use the fast path.
func (d *Detector) Access(a event.Access) {
	if d.sites != nil {
		d.sampledAccess(&a)
		return
	}
	loc, forward := d.filter(a.Thread, a.Loc, a.Kind)
	if forward {
		d.ship(a, loc)
	}
}

// AccessBatch implements event.BatchSink: a batch is a run of accesses
// by one thread under one lock environment, so the tracker's memoized
// lockset is computed at most once for the whole batch. Iterating by
// pointer keeps the hot filter front free of the per-element 96-byte
// copy that calling Access in a loop would cost; the full event is
// copied only for filter survivors, which ship owns by value. The
// batch slice itself is never retained or mutated (MultiSink hands
// the same slice to every batch-aware child).
func (d *Detector) AccessBatch(batch []event.Access) {
	if d.sites != nil {
		for i := range batch {
			d.sampledAccess(&batch[i])
		}
		return
	}
	for i := range batch {
		a := &batch[i]
		loc, forward := d.filter(a.Thread, a.Loc, a.Kind)
		if forward {
			d.ship(*a, loc)
		}
	}
}
