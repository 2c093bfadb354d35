// Package detector composes the paper's full runtime stack — join
// pseudolocks (§2.3), the ownership filter (§7), the per-thread access
// caches (§4), and the trie-based weaker-than detector (§3) — behind
// the event.Sink interface the interpreter feeds.
//
// There is one per-access pipeline. A Detector is a router — the
// front half, run synchronously on the producer's goroutine in event
// order — feeding workers, the back half that owns the trie:
//
//	cache lookup → [hit: done]
//	ownership filter → [owned: cache insert, done; owned→shared:
//	                    evict location from all caches]
//	(sampling only: per-site throttle, see sampling.go)
//	ship: materialize the lockset, stamp the detection order
//	    → worker trie: weakness check → race check → update
//	cache insert
//
// New attaches one inline worker that ship calls directly, with no
// ring, goroutine or batch buffer. NewSharded (sharded.go) attaches N
// ring-fed worker goroutines, each owning the trie slice for its share
// of the location space. The cache, ownership, sitestate and lock
// tracking code exists once, on the router, so both constructors see
// the same filter state and counters by construction.
//
// Reporting follows Definition 1: the detector reports at least one
// racing access for every memory location involved in a datarace
// (deduplicated per location by default).
package detector

import (
	"errors"
	"fmt"
	"sort"

	"racedet/internal/rt/cache"
	"racedet/internal/rt/event"
	"racedet/internal/rt/journal"
	"racedet/internal/rt/ownership"
	"racedet/internal/rt/sitestate"
	"racedet/internal/rt/spsc"
	"racedet/internal/rt/trie"
)

// Options selects which layers run; the zero value is the paper's
// "Full" runtime configuration.
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
	// NoTBot stores exact thread sets in trie nodes instead of
	// collapsing to t⊥ (space ablation; see DESIGN.md §4).
	NoTBot bool
	// PackedTrie uses the §8.2 multi-location trie (one trie per
	// object, per-slot lattice entries) instead of one trie per
	// location. Mutually exclusive with NoTBot.
	PackedTrie bool
	// ReportAll reports every racing access event rather than one per
	// location (closer to FullRace; quadratic in the worst case).
	ReportAll bool
	// MaxTrieNodes bounds trie history memory (0 = unbounded). Over
	// budget, whole per-location histories collapse to a conservative
	// summary that reports strictly more races, never fewer. Only the
	// default per-location trie honors the bound; PackedTrie and NoTBot
	// ignore it (they are ablation configurations).
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

	// JournalCap enables fault tolerance in the sharded back end: each
	// shard keeps a bounded write-ahead journal of up to this many
	// routed messages and checkpoints its state when the journal fills,
	// so a panicked worker can be restarted from the checkpoint and
	// replayed (see supervise.go). 0 disables journaling — a worker
	// panic then surfaces through Err, the pre-supervision behavior.
	// The serial detector ignores it.
	JournalCap int
	// RetryBudget is the number of restart attempts per shard before
	// the shard degrades to the Eraser lockset path instead of failing
	// the run (meaningful only with JournalCap > 0). 0 degrades on the
	// first panic; the degradation is counted in Stats.Recovery.
	RetryBudget int
	// QueueDepth bounds each shard's router→worker queue in messages
	// (0 = DefaultQueueDepth). A full queue blocks the router unless
	// DropOnBackpressure is set, so a slow or restarting worker can
	// never grow router memory without bound.
	QueueDepth int
	// DropOnBackpressure drops access batches — with accounting in
	// Stats.Recovery — instead of blocking when a shard queue is full.
	// Dropped batches are pure detection loss (the run may then under-
	// report); control messages are never dropped, so the cache layers
	// stay sound. Off by default: blocking preserves byte-equivalence.
	DropOnBackpressure bool
	// Faults installs deterministic fault-injection hooks on the
	// sharded back end's hot paths (see internal/faultinject); nil in
	// production.
	Faults FaultInjector
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
	// Recovery quantifies the sharded back end's fault-tolerance work
	// (all zero for the serial detector and for undisturbed runs).
	Recovery RecoveryStats
}

// RecoveryStats accounts the fault-tolerant sharded back end's
// journal, checkpoint, restart, degradation, and backpressure
// activity. Non-zero DegradedShards or DroppedEvents mean the run's
// reports are best-effort for the affected shards; everything else is
// bookkeeping for runs that recovered exactly.
type RecoveryStats struct {
	// Journaled counts messages written to shard journals; Checkpoints
	// counts state snapshots taken; Replayed counts messages re-
	// delivered from journals during recovery.
	Journaled   uint64
	Checkpoints uint64
	Replayed    uint64
	// Restarts counts worker restart attempts after panics.
	Restarts uint64
	// CheckpointCorruptions counts restore attempts abandoned because
	// the checkpoint failed validation (each degrades the shard).
	CheckpointCorruptions uint64
	// DegradedShards counts shards that exhausted their retry budget
	// and fell back to the Eraser lockset path; DegradedEvents counts
	// the accesses that path handled.
	DegradedShards int
	DegradedEvents uint64
	// DroppedBatches/DroppedEvents count access batches discarded under
	// the drop backpressure policy; BackpressureStalls counts blocking
	// sends that found the queue full (including injected fullness).
	DroppedBatches     uint64
	DroppedEvents      uint64
	BackpressureStalls uint64
	// QueueHighWater is the maximum router-queue depth observed across
	// shards (in messages).
	QueueHighWater int
}

// history is the per-location access store: the per-location trie,
// its t⊥ ablation, or the §8.2 packed multi-location trie.
type history interface {
	Process(event.Access) (bool, trie.RaceInfo)
	Stats() trie.Stats
	NodeCount() int
	LocationCount() int
}

// Detector is the composed runtime detector: the router front half
// plus its workers.
type Detector struct {
	opts Options

	locks *event.LockTracker
	cache *cache.Cache
	owner *ownership.Table
	sites *sitestate.Table // non-nil iff per-site throttling is on
	stats Stats            // router-side counters; worker counters join at read time
	seq   uint64           // detection-order stamp of the last shipped access

	// inline is New's worker, called synchronously by ship; nil when the
	// workers are ring-fed. workers lists every worker either way.
	inline  *worker
	workers []*worker
	fan     *fanout // ring-fed plumbing (sharded.go); nil when inline
}

var _ event.BatchSink = (*Detector)(nil)

// New builds a detector whose router drives a single inline worker.
// The fault-tolerance options (JournalCap, RetryBudget, QueueDepth,
// DropOnBackpressure, Faults) concern the ring-fed workers and are
// ignored here.
func New(opts Options) *Detector {
	it := event.NewInterner()
	d := newRouter(opts, it)
	d.inline = newWorker(0, 1, opts, it)
	d.workers = []*worker{d.inline}
	return d
}

// newRouter builds the front half shared by New and NewSharded.
func newRouter(opts Options, it *event.Interner) *Detector {
	d := &Detector{
		opts:  opts,
		locks: event.NewLockTrackerInterned(it),
		cache: cache.New(),
		owner: ownership.New(),
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
// Every accessor first settles the run, then reads the workers. An
// inline detector never latches: its worker is current after every
// call, so results may be read partway through the stream and feeding
// may continue afterwards. A ring-fed detector's first accessor ends
// its event stream (see finalize); from then on the worker state is
// frozen and the accessors are safe for concurrent use.

func (d *Detector) settle() {
	if d.fan != nil {
		d.fan.fin.Do(d.finalize)
	}
}

// Reports returns the datarace reports in detection order. Object
// descriptions are rendered here, at read time.
func (d *Detector) Reports() []Report {
	d.settle()
	var all []shardReport
	for _, w := range d.workers {
		all = append(all, w.reports...)
	}
	// Sequence order is the detection order of a single inline worker.
	sort.Slice(all, func(i, j int) bool { return all[i].seq < all[j].seq })
	reports := make([]Report, len(all))
	for i, sr := range all {
		reports[i] = sr.rep
		if d.opts.DescribeObj != nil {
			reports[i].ObjDesc = d.opts.DescribeObj(sr.rep.Access.Loc.Obj)
		}
	}
	return reports
}

// RacyObjects returns the distinct objects named in reports, sorted —
// the quantity Table 3 counts.
func (d *Detector) RacyObjects() []event.ObjID {
	d.settle()
	set := make(map[event.ObjID]struct{})
	for _, w := range d.workers {
		for o := range w.reportedObj {
			set[o] = struct{}{}
		}
	}
	objs := make([]event.ObjID, 0, len(set))
	for o := range set {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	return objs
}

// Stats returns the router's filter counters plus the trie and
// recovery counters summed across workers.
func (d *Detector) Stats() Stats {
	d.settle()
	s := d.stats
	s.OwnerLocations = d.owner.Locations()
	s.OwnerOverflows = d.owner.Overflows()
	s.Cache = d.cache.Stats()
	if d.sites != nil {
		s.Sample = d.sites.Stats()
	}
	if d.fan != nil {
		d.fan.addRecovery(&s.Recovery)
	}
	for _, w := range d.workers {
		addTrieStats(&s.Trie, w.trie.Stats())
		w.addRecovery(&s.Recovery)
	}
	return s
}

func addTrieStats(dst *trie.Stats, src trie.Stats) {
	dst.Events += src.Events
	dst.WeaknessHits += src.WeaknessHits
	dst.RaceChecks += src.RaceChecks
	dst.NodesVisited += src.NodesVisited
	dst.Races += src.Races
	dst.NodesAllocated += src.NodesAllocated
	dst.NodesPruned += src.NodesPruned
	dst.LocationsStored += src.LocationsStored
	dst.Collapses += src.Collapses
	dst.NodesCollapsed += src.NodesCollapsed
	dst.CollapseHits += src.CollapseHits
}

// TrieNodeCount exposes the history size (space metric).
func (d *Detector) TrieNodeCount() int {
	d.settle()
	n := 0
	for _, w := range d.workers {
		n += w.trie.NodeCount()
	}
	return n
}

// TrieLocationCount exposes the number of locations with history.
func (d *Detector) TrieLocationCount() int {
	d.settle()
	n := 0
	for _, w := range d.workers {
		n += w.trie.LocationCount()
	}
	return n
}

// Err reports every unrecovered worker failure, joined. Only ring-fed
// workers recover panics; an inline worker's panic propagates to the
// producer like any other sink's. Supervised shards that recovered, or
// degraded to the Eraser path, contribute nothing here: the run
// completed and Stats().Recovery tells the story.
func (d *Detector) Err() error {
	d.settle()
	var errs []error
	for _, w := range d.workers {
		if w.err != nil {
			errs = append(errs, w.err)
		}
	}
	return errors.Join(errs...)
}

// SetDescribeObj installs the object renderer used in reports. The
// runner sets it after the interpreter (which owns the heap) exists;
// it runs only when reports are read.
func (d *Detector) SetDescribeObj(fn func(event.ObjID) string) { d.opts.DescribeObj = fn }

// ---------------------------------------------------------------------------
// event.Sink implementation (the router)

// ThreadStarted implements event.Sink.
func (d *Detector) ThreadStarted(child, parent event.ThreadID) {
	if !d.opts.NoPseudoLocks {
		d.locks.ThreadStarted(child, parent)
	}
}

// ThreadFinished implements event.Sink. Thread lifecycle never reaches
// a worker: its only consumers, the lock tracker and the access cache,
// live on the router.
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

// MonitorEnter implements event.Sink. Workers see the lock environment
// only through the locksets ship attaches to later accesses.
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

// ship hands a filter survivor to its worker: materialize the
// (interned) lockset, stamp the detection order, run the inline
// worker's trie stage right here or route to a ring-fed worker, and
// insert into the cache so equal-or-stronger accesses short-circuit.
func (d *Detector) ship(a event.Access, loc event.Loc) {
	d.stats.Shipped++
	a.Loc = loc
	a.Locks = d.locks.Held(a.Thread) // immutable canonical slice
	a.LockID = d.locks.HeldID(a.Thread)
	d.seq++
	if w := d.inline; w != nil {
		if race, info := w.trie.Process(a); race {
			w.report(&a, d.seq, info)
		}
	} else {
		d.route(a)
	}
	if !d.opts.NoCache {
		top, ok := d.locks.Top(a.Thread)
		d.cache.Insert(a.Thread, loc, a.Kind, top, ok)
	}
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

// ---------------------------------------------------------------------------
// the worker: the trie stage

// shardReport is a worker-side report stamped with the triggering
// access's sequence number for the deterministic merge. ObjDesc stays
// empty: DescribeObj reads the interpreter's heap, which a ring-fed
// worker must not touch while the run is live.
type shardReport struct {
	rep Report
	seq uint64
}

// worker owns one trie slice: the whole location space when inline,
// one shard's share when ring-fed. A ring-fed worker's fields are
// goroutine-local; the router talks to it only through the two rings.
type worker struct {
	idx     int
	nshards int
	opts    Options
	intern  *event.Interner // renders reported PriorLocks
	trie    history

	reports     []shardReport
	reportedLoc map[event.Loc]struct{}
	reportedObj map[event.ObjID]struct{}

	// Ring-fed only (sharded.go, supervise.go). journal is nil when
	// Options.JournalCap == 0 and the worker runs unsupervised.
	ring     *spsc.Ring[shardBatch] // router → worker: routed batches
	free     *spsc.Ring[shardBatch] // worker → router: recycled buffers
	events   uint64                 // accesses processed, the fault-hook index
	err      error
	journal  *journal.Log[shardBatch]
	ckpt     journal.Checkpoint[workerSnapshot]
	rec      RecoveryStats
	degraded *degradedShard // non-nil once the shard fell back to Eraser
}

// newWorker builds worker idx of n with an empty trie slice. The
// inline worker shares the router's interner (same goroutine); a
// ring-fed worker must get its own, since the producer keeps mutating
// the router's.
func newWorker(idx, n int, opts Options, it *event.Interner) *worker {
	w := &worker{idx: idx, nshards: n, opts: opts, intern: it}
	w.freshState()
	return w
}

// freshState (re)builds the worker's empty trie slice; used at
// construction and when a restart finds no checkpoint to restore.
func (w *worker) freshState() {
	w.reportedLoc = make(map[event.Loc]struct{})
	w.reportedObj = make(map[event.ObjID]struct{})
	w.reports = nil
	w.events = 0
	switch {
	case w.opts.PackedTrie:
		w.trie = trie.NewPacked()
	case w.opts.NoTBot:
		w.trie = trie.NewNoTBot()
	case w.opts.MaxTrieNodes > 0:
		w.trie = trie.NewBounded(splitBudget(w.opts.MaxTrieNodes, w.nshards))
	default:
		w.trie = trie.New()
	}
	if st, ok := w.trie.(interface {
		SetInterner(*event.Interner)
	}); ok {
		st.SetInterner(w.intern)
	}
}

// splitBudget divides a global memory bound across n shards, never
// below 1 per shard.
func splitBudget(total, n int) int {
	b := total / n
	if b < 1 {
		b = 1
	}
	return b
}

// report records a race the worker's trie found on shipped access a.
func (w *worker) report(a *event.Access, seq uint64, info trie.RaceInfo) {
	if !w.opts.ReportAll {
		if _, dup := w.reportedLoc[a.Loc]; dup {
			return
		}
	}
	w.reportedLoc[a.Loc] = struct{}{}
	w.reportedObj[a.Loc.Obj] = struct{}{}
	w.reports = append(w.reports, shardReport{
		rep: Report{
			Access:      *a,
			PriorThread: info.PriorThread,
			PriorLocks:  info.PriorLocks,
			PriorKind:   info.PriorKind,
		},
		seq: seq,
	})
}

// addRecovery adds the worker's supervision counters to rec.
func (w *worker) addRecovery(rec *RecoveryStats) {
	rec.Restarts += w.rec.Restarts
	rec.Checkpoints += w.rec.Checkpoints
	rec.CheckpointCorruptions += w.rec.CheckpointCorruptions
	if w.degraded != nil {
		rec.DegradedShards++
	}
	rec.DegradedEvents += w.rec.DegradedEvents
	if w.journal != nil {
		js := w.journal.Stats()
		rec.Journaled += js.Appended
		rec.Replayed += js.Replayed
	}
}
