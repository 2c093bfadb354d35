// Lockset interning: hash-consing locksets into dense LocksetIDs so
// that access events carry one integer instead of a slice, equality is
// pointer-free ID comparison, and the intersection relation the
// detector keeps re-deriving is answered from a memoized relation
// table. The intern table lives for one run (one Interner per detector
// back end), so IDs stay small and dense and the memo tables stay hot.
//
// Interned locksets are immutable: Lockset(id) returns the canonical
// slice itself, never a copy, and every consumer — report paths, the
// trie — may retain it without cloning. This is
// what lets the detector stack drop its defensive lockset copies.
package event

// LocksetID is the dense identity of an interned lockset. ID 0 is
// always the empty lockset.
type LocksetID uint32

// EmptyLocksetID is the interned identity of the empty lockset.
const EmptyLocksetID LocksetID = 0

// Interner hash-conses locksets and memoizes the intersection relation
// on them. It is not safe for concurrent use; each detector owns its own.
type Interner struct {
	sets    []Lockset              // id → canonical set; sets[0] = ∅
	buckets map[uint64][]LocksetID // content hash → candidate ids
	inter   map[uint64]bool        // pack(a,b) → a ∩ b ≠ ∅
	scratch Lockset                // canonicalization buffer (reused)
}

// NewInterner returns an interner holding only the empty lockset.
func NewInterner() *Interner {
	return &Interner{
		sets:    []Lockset{{}},
		buckets: make(map[uint64][]LocksetID),
	}
}

// Size returns the number of distinct interned locksets (including ∅).
func (it *Interner) Size() int { return len(it.sets) }

// Lockset returns the canonical set for id. The result is the intern
// table's own slice: callers must treat it as immutable and may retain
// it without copying.
func (it *Interner) Lockset(id LocksetID) Lockset { return it.sets[id] }

func locksetHash(ls []ObjID) uint64 {
	// FNV-1a over the lock words.
	h := uint64(14695981039346656037)
	for _, l := range ls {
		h ^= uint64(l)
		h *= 1099511628211
	}
	return h
}

// Intern canonicalizes locks (sorting and deduplicating into an
// internal scratch buffer) and returns the dense ID of the resulting
// set. Hitting an already-interned set allocates nothing.
func (it *Interner) Intern(locks []ObjID) LocksetID {
	it.scratch = append(it.scratch[:0], locks...)
	s := it.scratch
	// Insertion sort: lock stacks are tiny and mostly sorted already.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	out := s[:0]
	for i, l := range s {
		if i == 0 || s[i-1] != l {
			out = append(out, l)
		}
	}
	return it.InternCanonical(out)
}

// InternCanonical interns a lockset that is already sorted and
// duplicate-free. The slice is copied on first sight only.
func (it *Interner) InternCanonical(ls Lockset) LocksetID {
	if len(ls) == 0 {
		return EmptyLocksetID
	}
	h := locksetHash(ls)
	for _, id := range it.buckets[h] {
		if it.sets[id].Equal(ls) {
			return id
		}
	}
	id := LocksetID(len(it.sets))
	it.sets = append(it.sets, append(Lockset(nil), ls...))
	it.buckets[h] = append(it.buckets[h], id)
	return id
}

// pack builds the memo key for an ordered ID pair.
func pack(a, b LocksetID) uint64 { return uint64(a)<<32 | uint64(b) }

// Intersects reports sets[a] ∩ sets[b] ≠ ∅, memoized.
func (it *Interner) Intersects(a, b LocksetID) bool {
	if a == EmptyLocksetID || b == EmptyLocksetID {
		return false
	}
	if a == b {
		return true
	}
	if it.inter == nil {
		it.inter = make(map[uint64]bool)
	}
	key := pack(a, b)
	if v, ok := it.inter[key]; ok {
		return v
	}
	v := it.sets[a].Intersects(it.sets[b])
	it.inter[key] = v
	return v
}
