// Package sitestate implements the adaptive per-site throttling table
// behind -sample-k/-sample-budget: LiteRace/Pacer-style cold-site
// sampling at the granularity of static access sites.
//
// A site is one instrumented access in the program text — keyed by
// source position plus access kind, the same identity the per-site
// static facts use — interned to a dense index. Each site carries a
// saturating clean-observation counter: after K consecutive clean
// armed observations (full-pipeline passes with no re-arm signal in
// between) the site is demoted to a cheap counting-only stub that
// bypasses the trie layer. Demotion is revoked — the site is
// re-armed, its counter reset — when the ownership table reports
// new-thread contact on a location the site touched while demoted
// (the Contact callback).
//
// Suppression itself is write-aware and per-location (races are
// per-location: the trie pairs same-location events only). Each
// touched location remembers the thread sets that read and wrote it
// through demoted stubs, and separately which threads ever had an
// access SHIPPED to the trie there: read-read sharing can never race,
// so any number of reader threads may join a location's
// suppressed-reader set, while a write is only ever suppressed for a
// location's sole toucher — counting both suppressed and shipped
// history, since the trie remembers shipped events forever. An access
// that could complete a race pair is never suppressed; it ships, and
// once shipped the location's history only grows, so its recurrences
// keep shipping (cache-filtered) without any site re-arm.
//
// The one deliberate exception is a settled location: one the trie
// has already reported a race on. The detector reports once per
// location (Definition 1), so every further access there is redundant
// for detection and is suppressed outright. (A detector reporting
// every racing access never settles a location.)
//
// The degradation contract mirrors the detector's bounded-memory
// modes: throttling may suppress redundant events but is engineered
// to never miss a stable (recurring) race — an access that could
// complete a race pair against anything the location has seen is
// never suppressed, so a recurring pair always ships and reaches the
// trie. A truly one-shot racing access at a demoted site can still be
// missed; that is the inherent LiteRace-class trade and is documented
// in docs/performance.md.
//
// The table is deliberately deterministic: its evolution is a pure
// function of the event stream (no clocks, no randomness), so a
// sampled run reproduces bit-for-bit under the seeded scheduler, and
// the detector runs it once per access, in event order. The state is
// pointer-free arrays, a dense per-location table and bounded maps.
package sitestate

import (
	"racedet/internal/lang/token"
	"racedet/internal/rt/event"
	"racedet/internal/rt/loctab"
)

// Tuning bounds of the adaptive controller.
const (
	// DefaultK is the initial demotion threshold when -sample-budget is
	// given without an explicit -sample-k.
	DefaultK = 16
	// MinK / MaxK clamp the adaptive controller.
	MinK = 2
	MaxK = 1024
	// DefaultWindow is the controller's measurement window in observed
	// events.
	DefaultWindow = 4096
	// DefaultMaxTouched bounds the suppressed-touch index; once full,
	// further stub accesses are forwarded instead of suppressed (pure
	// loss of throttling, never of detection).
	DefaultMaxTouched = 8192
)

// Prior is a static confidence hint for one site, seeded from the
// lock-discipline tiers: PriorLow marks guarded-consistent sites
// (static analysis found no live inconsistency — cheap to demote),
// PriorHigh marks unguarded and guarded-inconsistent sites (the
// statically suspicious ones — pinned armed, never demoted). Priors
// bias WHERE the budget goes; the coverage contract is enforced by
// the write-aware suppression machinery regardless, so even an
// inverted prior map cannot hide a stable race.
type Prior uint8

// Priors.
const (
	PriorNone Prior = iota
	PriorLow
	PriorHigh
)

// Config configures a Table.
type Config struct {
	// K is the demotion threshold: consecutive clean armed
	// observations before a site demotes. <= 0 with a Budget selects
	// DefaultK.
	K int
	// Budget, when > 0, enables the adaptive controller: every Window
	// observations the shipped ratio is compared against Budget and K
	// is halved (ship too much) or doubled (well under budget), clamped
	// to [MinK, MaxK].
	Budget float64
	// Window is the controller window in observations (0 = DefaultWindow).
	Window int
	// MaxTouched bounds the suppressed-touch index (0 = DefaultMaxTouched).
	MaxTouched int
	// Priors maps site keys to their static discipline prior; sites
	// absent from the map get PriorNone. The map is read-only and may
	// be shared between tables.
	Priors map[Key]Prior
	// InvertPriors swaps PriorLow and PriorHigh at intern time — the
	// ablation mode that proves the coverage contract does not depend
	// on the priors pointing the right way.
	InvertPriors bool
}

// Key is the identity of a static access site: source position plus
// access kind (a read and a write at the same position are distinct
// sites, since their race potential differs).
type Key struct {
	File      string
	Line, Col int32
	Kind      event.Kind
}

// Stats reports the table's work counters.
type Stats struct {
	// Sites is the number of distinct static sites seen.
	Sites int
	// Demotions / Rearms count site state transitions (a site may
	// demote and re-arm many times).
	Demotions uint64
	Rearms    uint64
	// Suppressed counts accesses absorbed by demoted-site stubs — the
	// events the unsampled detector would have shipped to the trie.
	Suppressed uint64
	// ForcedShips counts stub accesses forwarded despite demotion
	// (contact, overflow, armed location, full touch index).
	ForcedShips uint64
	// CurrentK is the live demotion threshold (moves under Budget).
	CurrentK int
	// WindowRatio is the shipped ratio of the last completed controller
	// window (0 before the first window completes).
	WindowRatio float64
	// PriorHighSites / PriorLowSites count interned sites carrying a
	// high (pinned armed) resp. low (fast-demoting) static prior.
	PriorHighSites int
	PriorLowSites  int
	// PriorFastDemotions counts demotions that fired at the reduced
	// PriorLow threshold before the default K would have.
	PriorFastDemotions uint64
}

// state is one site's throttling state; pointer-free so the states
// array costs the GC nothing to scan.
type state struct {
	clean   uint32 // consecutive clean armed observations since last re-arm
	demoted bool
	prior   Prior // static discipline prior, fixed at intern time
}

// touchEntry remembers suppressed stub traffic on one location: which
// sites touched it (a 64-bit Bloom-style site signature, so an
// ownership contact can re-arm them) and which threads read / wrote
// it (exact bitmasks for thread ids below 64; larger ids never
// suppress, see threadBit). canSuppress consults the masks so that a
// write meeting foreign touchers — or any access meeting a foreign
// writer — is never suppressed.
type touchEntry struct {
	sites   uint64
	readers uint64
	writers uint64
}

// threadBit maps a thread id to its mask bit. Ids outside [0, 64) are
// unrepresentable; callers must treat them as "cannot prove anything
// about this thread" — never suppress, conservatively contact.
func threadBit(t event.ThreadID) (uint64, bool) {
	if t < 0 || t >= 64 {
		return 0, false
	}
	return 1 << uint(t), true
}

// shipEntry remembers, per location, which threads ever had an access
// SHIPPED to the trie (reads and writes separately). The trie
// remembers shipped events forever, so a suppressed access could race
// with a long-gone one-shot event; suppression must therefore also be
// refused whenever the location's shipped history could complete a
// race pair with the access at hand. Races are per-location (the trie
// pairs same-location events only), so location granularity is exact.
type shipEntry struct {
	readers uint64
	writers uint64
}

// locState is one location's sampling record: its suppressed-touch
// entry (present iff touch.sites != 0 — every Touch sets a site bit),
// its shipped history, the armed marker, and whether the trie has
// reported a race on it (settled: every further access is redundant
// for detection). The zero record is the absent one.
type locState struct {
	touch   touchEntry
	ship    shipEntry
	armed   bool
	settled bool
}

// Table is the per-site throttling table. Not safe for concurrent use;
// it belongs to the (single) filter owner — the detector's router —
// exactly like the interner.
type Table struct {
	k          int
	budget     float64
	window     int
	maxTouched int
	priors     map[Key]Prior // shared, read-only
	invert     bool

	// SiteID interning: a map per file, keyed by the packed line and
	// column, with the last file's map memoized so the common case
	// hashes one integer and no string. Ids are assigned in first-seen
	// order.
	files    map[string]map[uint64][2]int32
	lastFile string
	lastIDs  map[uint64][2]int32
	states   []state

	// locs holds each location's touch entry (suppressed stub
	// traffic), shipped history (see shipEntry) and armed marker (set
	// at ownership contact, consumed on use: the location's next
	// demoted-site access must ship). nTouched counts the locations
	// with a touch entry, the index MaxTouched bounds. Shipped history
	// grows with the number of locations that ever shipped an event —
	// strictly dominated by the trie those events grow anyway.
	locs     loctab.Table[locState]
	nTouched int

	// Controller window accounting.
	windowN       int
	windowShipped int
	lastRatio     float64

	stats Stats
}

// New builds a table from cfg; K and Budget must not both be zero.
func New(cfg Config) *Table {
	k := cfg.K
	if k <= 0 {
		k = DefaultK
	}
	w := cfg.Window
	if w <= 0 {
		w = DefaultWindow
	}
	mt := cfg.MaxTouched
	if mt <= 0 {
		mt = DefaultMaxTouched
	}
	return &Table{
		k:          k,
		budget:     cfg.Budget,
		window:     w,
		maxTouched: mt,
		priors:     cfg.Priors,
		invert:     cfg.InvertPriors,
		files:      make(map[string]map[uint64][2]int32),
	}
}

// SiteID interns a site and returns its dense index. A position's
// map value holds one id per access kind, plus one so that zero means
// none yet; a kind other than Write counts as a read, as in
// event.Kind.String.
func (st *Table) SiteID(pos token.Pos, kind event.Kind) int32 {
	if st.lastIDs == nil || pos.File != st.lastFile {
		ids := st.files[pos.File]
		if ids == nil {
			ids = make(map[uint64][2]int32)
			st.files[pos.File] = ids
		}
		st.lastFile, st.lastIDs = pos.File, ids
	}
	pk := uint64(uint32(pos.Line))<<32 | uint64(uint32(pos.Col))
	k := 0
	if kind == event.Write {
		k = 1
	}
	ids := st.lastIDs[pk]
	if ids[k] == 0 {
		ids[k] = st.intern(Key{File: pos.File, Line: pos.Line, Col: pos.Col, Kind: kind}) + 1
		st.lastIDs[pk] = ids
	}
	return ids[k] - 1
}

// intern appends a new site for k, in first-seen order, with its
// static prior.
func (st *Table) intern(k Key) int32 {
	id := int32(len(st.states))
	p := st.priors[k]
	if st.invert {
		switch p {
		case PriorLow:
			p = PriorHigh
		case PriorHigh:
			p = PriorLow
		}
	}
	switch p {
	case PriorHigh:
		st.stats.PriorHighSites++
	case PriorLow:
		st.stats.PriorLowSites++
	}
	st.states = append(st.states, state{prior: p})
	return id
}

// Demoted reports whether the site runs in counting-only stub mode.
func (st *Table) Demoted(id int32) bool { return st.states[id].demoted }

// Observe records an armed-site observation: the access ran the full
// pipeline and was shipped to the trie or absorbed by a filter layer.
// K consecutive observations with no intervening re-arm demote the
// site; thread and lockset churn deliberately do NOT reset the
// counter — cache-defeating churn is exactly the repeat traffic the
// throttle exists to absorb, and the cross-thread re-arm web (not a
// per-site environment) is what keeps recurring races reported.
// The site's static prior bends the threshold: PriorHigh sites are
// pinned armed (statically unguarded traffic is exactly what the trie
// must see), PriorLow sites demote at a quarter of the live K —
// statically consistent sites earn the cheap stub sooner.
func (st *Table) Observe(id int32, shipped bool) {
	s := &st.states[id]
	if s.clean != ^uint32(0) {
		s.clean++
	}
	if !s.demoted {
		switch s.prior {
		case PriorHigh:
			// Pinned: never demotes.
		case PriorLow:
			if int(s.clean) >= lowK(st.k) {
				s.demoted = true
				st.stats.Demotions++
				if int(s.clean) < st.k {
					st.stats.PriorFastDemotions++
				}
			}
		default:
			if int(s.clean) >= st.k {
				s.demoted = true
				st.stats.Demotions++
			}
		}
	}
	st.tick(shipped)
}

// lowK is the PriorLow demotion threshold: K/4, floored at MinK, and
// tracking the adaptive controller's live K.
func lowK(k int) int {
	k /= 4
	if k < MinK {
		k = MinK
	}
	return k
}

// Rearm revokes a site's demotion and resets its counter (idempotent
// on armed sites, which only get their counter reset).
func (st *Table) Rearm(id int32) {
	s := &st.states[id]
	if s.demoted {
		s.demoted = false
		st.stats.Rearms++
	}
	s.clean = 0
}

// Contact is the ownership table's owned→shared callback: loc just saw
// its first cross-thread access. Every site that touched the location
// while demoted is re-armed and the touch entry forgotten, and the
// location itself is armed so a site that re-demotes before revisiting
// it still ships its next access there. Sites are matched by their
// signature bit, so an over-full signature re-arms conservatively
// (never too few).
func (st *Table) Contact(loc event.Loc) {
	r := st.locs.At(loc)
	r.armed = true
	sites := r.touch.sites
	if sites == 0 {
		return
	}
	r.touch = touchEntry{}
	st.nTouched--
	for i := range st.states {
		s := &st.states[i]
		if s.demoted && sites&(1<<(uint(i)&63)) != 0 {
			s.demoted = false
			s.clean = 0
			st.stats.Rearms++
		}
	}
}

// ConsumeArmed consumes loc's armed marker if present.
func (st *Table) ConsumeArmed(loc event.Loc) bool {
	r := st.locs.Get(loc)
	if r == nil || !r.armed {
		return false
	}
	r.armed = false
	return true
}

// RecordShip records that an access by t (a write iff write) on loc
// was shipped to the trie. Unrepresentable threads poison the masks:
// every thread is then treated as a foreign shipped toucher.
func (st *Table) RecordShip(loc event.Loc, t event.ThreadID, write bool) {
	bit, repr := threadBit(t)
	e := &st.locs.At(loc).ship
	if !repr {
		bit = ^uint64(0)
	}
	if write {
		e.writers |= bit
	} else {
		e.readers |= bit
	}
}

// canSuppress reports whether a stub access by t (a write iff write)
// on a location with state r is suppressible: suppression must not
// hide half of a potential race pair, against either concurrent
// suppressed traffic or the trie's memory of shipped events:
//
//   - a settled location (the trie reported a race on it) suppresses
//     everything — any thread, any kind; callers check that first,
//     this function assumes it is not settled;
//   - a write is only suppressible when t is the location's sole
//     suppressed toucher AND its sole shipped toucher;
//   - a read only when no foreign writer touched the location, either
//     suppressed or shipped (reads may freely join an all-reader set).
//
// It also refuses for unrepresentable threads and when recording
// would overflow the touch index. It does not mutate the table.
func (st *Table) canSuppress(r *locState, t event.ThreadID, write bool) bool {
	bit, repr := threadBit(t)
	if !repr {
		return false
	}
	e, sh := r.touch, r.ship
	if e.sites == 0 && st.nTouched >= st.maxTouched {
		return false
	}
	if write {
		return (e.readers|e.writers|sh.readers|sh.writers)&^bit == 0
	}
	return (e.writers|sh.writers)&^bit == 0
}

// Reported marks loc settled: the trie has reported a race on it, so
// no later access there can change the detector's verdict.
func (st *Table) Reported(loc event.Loc) { st.locs.At(loc).settled = true }

// Touch records a suppressed stub access: site id by thread t on loc,
// a write iff write. It returns false — the caller must forward the
// access instead of suppressing it — exactly when canSuppress does on
// a location that is not settled.
func (st *Table) Touch(id int32, loc event.Loc, t event.ThreadID, write bool) bool {
	r := st.locs.Get(loc)
	absent := r == nil
	if absent {
		r = new(locState)
	}
	if r.settled {
		// Settled location: nothing left to remember.
		return true
	}
	if !st.canSuppress(r, t, write) {
		return false
	}
	if absent {
		r = st.locs.At(loc)
	}
	if r.touch.sites == 0 {
		st.nTouched++
	}
	bit, _ := threadBit(t)
	e := &r.touch
	if write {
		e.writers |= bit
	} else {
		e.readers |= bit
	}
	e.sites |= 1 << (uint(id) & 63)
	return true
}

// Suppress accounts one stub-suppressed access.
func (st *Table) Suppress() {
	st.stats.Suppressed++
	st.tick(false)
}

// ForcedShip accounts one stub access forwarded despite demotion.
func (st *Table) ForcedShip() {
	st.stats.ForcedShips++
	st.tick(true)
}

// Skipped accounts one stub access absorbed by the ownership filter —
// an event the unsampled pipeline would have absorbed identically.
func (st *Table) Skipped() { st.tick(false) }

// tick is the adaptive controller: once per observed event; every
// window the shipped ratio is compared against the budget and K moves
// by powers of two. Deterministic — a pure function of the stream.
func (st *Table) tick(shipped bool) {
	st.windowN++
	if shipped {
		st.windowShipped++
	}
	if st.windowN < st.window {
		return
	}
	st.lastRatio = float64(st.windowShipped) / float64(st.windowN)
	st.windowN, st.windowShipped = 0, 0
	if st.budget <= 0 {
		return
	}
	switch {
	case st.lastRatio > st.budget:
		// Shipping over budget: demote sites twice as eagerly.
		if st.k > MinK {
			st.k /= 2
			if st.k < MinK {
				st.k = MinK
			}
		}
	case st.lastRatio < st.budget/2:
		// Comfortably under budget: buy back coverage.
		if st.k < MaxK {
			st.k *= 2
		}
	}
}

// Stats returns the table's counters.
func (st *Table) Stats() Stats {
	s := st.stats
	s.Sites = len(st.states)
	s.CurrentK = st.k
	s.WindowRatio = st.lastRatio
	return s
}
