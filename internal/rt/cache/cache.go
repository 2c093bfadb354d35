// Package cache implements the runtime optimizer of §4: per-thread
// direct-mapped caches that filter access events before they reach the
// trie detector.
//
// Each thread owns two caches — one for reads, one for writes —
// indexed by memory location. The design guarantees the §4.2 policy:
// if a lookup hits, the cached access p is weaker than the incoming
// access q:
//
//   - p.t = q.t because caches are per-thread;
//   - p.a = q.a because reads and writes use separate caches;
//   - p.L ⊆ q.L because every entry is evicted when any lock in its
//     lockset is released. The eviction exploits MJ's (and Java's)
//     nested locking discipline: an entry is linked onto the eviction
//     list of the lock that was most recently acquired when the entry
//     was created ("last in, first out"), so releasing a lock evicts
//     exactly the entries whose locksets contain it.
//
// Entries therefore store no thread, kind, or lockset at all — just
// the location — mirroring the paper's ten-instruction hit path.
package cache

import "racedet/internal/rt/event"

// Size is the number of entries per direct-mapped cache, matching the
// paper's 256-entry configuration.
const Size = 256

// entry is one cache slot. Entries form doubly-linked per-lock
// eviction lists so both lock-release eviction and conflict eviction
// are O(1) per entry. Links are 1-based indices into the owning
// threadCache's slots array (0 = none) rather than pointers: the
// arrays stay pointer-free, so the GC never scans them, link updates
// need no write barrier, and a zeroed threadCache is already fully
// initialized — which is what makes constructing one per thread (and
// per replay) cheap.
type entry struct {
	loc   event.Loc
	lock  event.ObjID // owning eviction list; hasL distinguishes "no locks held"
	prev  int32       // 1-based slots index; 0 = list end
	next  int32
	valid bool
	hasL  bool
}

// threadCache is the pair of direct-mapped caches for one thread plus
// its per-lock eviction lists. slots[:Size] is the read cache,
// slots[Size:] the write cache.
type threadCache struct {
	slots [2 * Size]entry
	// lists maps a lock to the 1-based slots index of its eviction
	// list head (0/absent = empty). Heads are dummy-free.
	lists map[event.ObjID]int32
	// lastUse is the logical time of the thread's most recent cache
	// operation; the bounded mode evicts the least recently used
	// thread cache when over budget.
	lastUse uint64
}

// unlink removes slot i from its eviction list (not from the map —
// callers fix the head first when i is the head).
func (tc *threadCache) unlink(i int32) {
	e := &tc.slots[i-1]
	if e.prev != 0 {
		tc.slots[e.prev-1].next = e.next
	}
	if e.next != 0 {
		tc.slots[e.next-1].prev = e.prev
	}
	e.prev, e.next = 0, 0
}

func newThreadCache() *threadCache {
	return &threadCache{lists: make(map[event.ObjID]int32)}
}

// Stats counts cache work for the Table 2 harness.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64 // entries evicted by lock release or conflicts
	// ThreadEvictions counts whole per-thread caches discarded by the
	// bounded mode. Dropping a cache only loses filtering — the next
	// accesses miss and flow to the detector — so degradation costs
	// time, never a race.
	ThreadEvictions uint64
}

// Cache is the runtime optimizer: all threads' caches plus the policy
// hooks that keep them sound. Thread IDs are small dense ints, so the
// per-thread caches live in a slice — the lookup path stays a handful
// of instructions, mirroring the paper's ten-instruction hit path.
type Cache struct {
	threads []*threadCache
	stats   Stats

	// maxThreads caps live per-thread caches (0 = unbounded); tick is
	// the logical clock driving LRU eviction, live the current count.
	maxThreads int
	tick       uint64
	live       int
}

// New returns an empty cache layer.
func New() *Cache {
	return &Cache{}
}

// NewBounded returns a cache layer holding at most maxThreads live
// per-thread caches. When a new thread would exceed the budget, the
// least recently used thread's caches are discarded wholesale: that
// thread's next accesses simply miss and reach the detector, so the
// degradation is pure filtering loss — strictly more detector work,
// never a missed race.
func NewBounded(maxThreads int) *Cache {
	return &Cache{maxThreads: maxThreads}
}

// Stats returns a copy of the work counters.
func (c *Cache) Stats() Stats { return c.stats }

// index is the direct-mapped hash: multiply by a odd constant and take
// the upper bits (the paper multiplies the 32-bit address by a
// constant and keeps the upper 16 bits; we fold object ID and slot).
func index(loc event.Loc) int {
	h := uint64(loc.Obj)*0x9E3779B97F4A7C15 + uint64(uint32(loc.Slot))*0x85EBCA6B
	return int(h>>48) & (Size - 1)
}

func (c *Cache) forThread(t event.ThreadID) *threadCache {
	i := int(t)
	for i >= len(c.threads) {
		c.threads = append(c.threads, nil)
	}
	tc := c.threads[i]
	if tc == nil {
		tc = newThreadCache()
		c.threads[i] = tc
		c.live++
		if c.maxThreads > 0 && c.live > c.maxThreads {
			c.evictLRU(i)
		}
	}
	c.tick++
	tc.lastUse = c.tick
	return tc
}

// evictLRU discards the least recently used thread cache other than
// keep. Index order breaks lastUse ties, so eviction is deterministic.
func (c *Cache) evictLRU(keep int) {
	victim := -1
	for i, tc := range c.threads {
		if tc == nil || i == keep {
			continue
		}
		if victim == -1 || tc.lastUse < c.threads[victim].lastUse {
			victim = i
		}
	}
	if victim >= 0 {
		c.threads[victim] = nil
		c.live--
		c.stats.ThreadEvictions++
	}
}

// Lookup checks whether a weaker access for (t, loc, kind) is cached.
// On a hit the caller may discard the access entirely. On a miss the
// caller must forward the access to the detector and then call Insert.
func (c *Cache) Lookup(t event.ThreadID, loc event.Loc, kind event.Kind) bool {
	// A thread with no cache yet trivially misses; don't allocate one
	// here (in bounded mode that could even evict another thread), the
	// Insert after the detector call will.
	if i := int(t); i < len(c.threads) && c.threads[i] != nil {
		tc := c.threads[i]
		c.tick++
		tc.lastUse = c.tick
		e := tc.slot(loc, kind)
		if e.valid && e.loc == loc {
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	return false
}

// slotIdx returns the 1-based slots index for (loc, kind).
func (tc *threadCache) slotIdx(loc event.Loc, kind event.Kind) int32 {
	i := int32(index(loc)) + 1
	if kind == event.Write {
		i += Size
	}
	return i
}

func (tc *threadCache) slot(loc event.Loc, kind event.Kind) *entry {
	return &tc.slots[tc.slotIdx(loc, kind)-1]
}

// Insert records the access in t's cache. top is the most recently
// acquired lock currently held by t (ok=false when t holds no locks);
// the entry joins that lock's eviction list, which under nested
// locking guarantees the entry dies no later than the first release of
// any lock in its lockset.
func (c *Cache) Insert(t event.ThreadID, loc event.Loc, kind event.Kind, top event.ObjID, ok bool) {
	tc := c.forThread(t)
	i := tc.slotIdx(loc, kind)
	e := &tc.slots[i-1]
	if e.valid {
		// Conflict eviction: drop the previous occupant from its list.
		if e.hasL && tc.lists[e.lock] == i {
			tc.lists[e.lock] = e.next
		}
		tc.unlink(i)
		c.stats.Evictions++
	}
	e.loc = loc
	e.valid = true
	e.hasL = ok
	e.prev, e.next = 0, 0
	if ok {
		e.lock = top
		if head := tc.lists[top]; head != 0 {
			e.next = head
			tc.slots[head-1].prev = i
		}
		tc.lists[top] = i
	} else {
		e.lock = 0
	}
}

// LockReleased evicts every entry of thread t whose lockset contains
// lock. Thanks to the LIFO discipline these are exactly the entries on
// lock's eviction list.
func (c *Cache) LockReleased(t event.ThreadID, lock event.ObjID) {
	if int(t) >= len(c.threads) {
		return
	}
	tc := c.threads[t]
	if tc == nil {
		return
	}
	i := tc.lists[lock]
	for i != 0 {
		e := &tc.slots[i-1]
		next := e.next
		e.valid = false
		e.prev, e.next = 0, 0
		c.stats.Evictions++
		i = next
	}
	delete(tc.lists, lock)
}

// EvictLocation removes loc from every thread's caches (both kinds).
// The ownership model calls this when a location transitions from
// owned to shared (§7.2): entries cached while the location was owned
// no longer imply that a weaker access reached the detector.
func (c *Cache) EvictLocation(loc event.Loc) {
	ri := int32(index(loc)) + 1
	for _, tc := range c.threads {
		if tc == nil {
			continue
		}
		for _, i := range [2]int32{ri, ri + Size} {
			e := &tc.slots[i-1]
			if e.valid && e.loc == loc {
				if e.hasL && tc.lists[e.lock] == i {
					tc.lists[e.lock] = e.next
				}
				tc.unlink(i)
				e.valid = false
				c.stats.Evictions++
			}
		}
	}
}

// ThreadFinished discards the thread's caches.
func (c *Cache) ThreadFinished(t event.ThreadID) {
	if int(t) < len(c.threads) {
		if c.threads[t] != nil {
			c.live--
		}
		c.threads[t] = nil
	}
}
