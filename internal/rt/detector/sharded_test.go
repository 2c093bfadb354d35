package detector

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"racedet/internal/rt/event"
	"racedet/internal/rt/trie"
)

// feedRandom drives a sink through a pseudo-random but deterministic
// event stream with threads, locks, shared objects, and join edges —
// dense enough to exercise caches, ownership transitions, and the trie.
func feedRandom(s event.Sink, seed int64, events int) {
	rng := rand.New(rand.NewSource(seed))
	const nThreads = 4
	const nObjs = 12
	const nLocks = 3
	s.ThreadStarted(0, event.NoThread)
	for t := event.ThreadID(1); t < nThreads; t++ {
		s.ThreadStarted(t, 0)
	}
	held := make([][]event.ObjID, nThreads) // lock stacks per thread
	for i := 0; i < events; i++ {
		t := event.ThreadID(rng.Intn(nThreads))
		switch op := rng.Intn(10); {
		case op < 6: // access
			obj := event.ObjID(100 + rng.Intn(nObjs))
			slot := int32(rng.Intn(3))
			kind := event.Read
			if rng.Intn(2) == 0 {
				kind = event.Write
			}
			s.Access(event.Access{
				Loc:       event.Loc{Obj: obj, Slot: slot},
				Thread:    t,
				Kind:      kind,
				FieldName: "F.f",
			})
		case op < 8: // lock
			if len(held[t]) < 2 {
				l := event.ObjID(500 + rng.Intn(nLocks))
				dup := false
				for _, h := range held[t] {
					if h == l {
						dup = true
					}
				}
				if !dup {
					held[t] = append(held[t], l)
					s.MonitorEnter(t, l, 1)
				}
			}
		default: // unlock (LIFO)
			if n := len(held[t]); n > 0 {
				l := held[t][n-1]
				held[t] = held[t][:n-1]
				s.MonitorExit(t, l, 0)
			}
		}
	}
	for t := event.ThreadID(0); t < nThreads; t++ {
		for n := len(held[t]); n > 0; n-- {
			s.MonitorExit(t, held[t][n-1], 0)
		}
	}
	for t := event.ThreadID(1); t < nThreads; t++ {
		s.ThreadFinished(t)
		s.Joined(0, t)
	}
	s.ThreadFinished(0)
}

func reportStrings(b *Detector) []string {
	var out []string
	for _, r := range b.Reports() {
		out = append(out, r.String())
	}
	return out
}

// filterStats is the router's share of Stats: everything but the
// summed trie counters (a packed trie's depend on how an object's
// slots spread across shards) and the ring-only recovery counters.
func filterStats(d *Detector) Stats {
	s := d.Stats()
	s.Trie = trie.Stats{}
	s.Recovery = RecoveryStats{}
	return s
}

// TestShardedMatchesSerial is the detector-level differential check:
// for several option sets, seeds, and shard counts, the ring-fed
// workers' merged reports must be byte-identical to the inline
// worker's, and every filter counter must match. The bounded filter
// tables and the sampling throttle live on the router, so they are
// inside this contract too; only a bounded trie is split.
func TestShardedMatchesSerial(t *testing.T) {
	optSets := map[string]Options{
		"full":        {},
		"nocache":     {NoCache: true},
		"noownership": {NoOwnership: true},
		"reportall":   {ReportAll: true},
		"merged":      {FieldsMerged: true},
		"packed":      {PackedTrie: true},
		"maxowner":    {MaxOwnerLocations: 6},
		"maxcache":    {MaxCacheThreads: 1},
		"sampled":     {SampleK: 2},
	}
	for name, opts := range optSets {
		for seed := int64(0); seed < 5; seed++ {
			serial := New(opts)
			feedRandom(serial, seed, 3000)
			want := reportStrings(serial)
			wantObjs := serial.RacyObjects()
			wantStats := filterStats(serial)
			for _, shards := range []int{1, 2, 8} {
				sh := NewSharded(opts, shards, 16)
				feedRandom(sh, seed, 3000)
				if err := sh.Err(); err != nil {
					t.Fatalf("%s/seed%d/%dshards: worker error: %v", name, seed, shards, err)
				}
				got := reportStrings(sh)
				if len(got) != len(want) {
					t.Fatalf("%s/seed%d/%dshards: %d reports, serial has %d\nsharded: %v\nserial: %v",
						name, seed, shards, len(got), len(want), got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s/seed%d/%dshards: report %d differs\nsharded: %s\nserial:  %s",
							name, seed, shards, i, got[i], want[i])
					}
				}
				gotObjs := sh.RacyObjects()
				if len(gotObjs) != len(wantObjs) {
					t.Fatalf("%s/seed%d/%dshards: racy objects %v, serial %v", name, seed, shards, gotObjs, wantObjs)
				}
				for i := range wantObjs {
					if gotObjs[i] != wantObjs[i] {
						t.Fatalf("%s/seed%d/%dshards: racy objects %v, serial %v", name, seed, shards, gotObjs, wantObjs)
					}
				}
				if got := filterStats(sh); !reflect.DeepEqual(got, wantStats) {
					t.Fatalf("%s/seed%d/%dshards: stats diverge\nsharded: %+v\nserial:  %+v", name, seed, shards, got, wantStats)
				}
			}
		}
	}
}

// TestShardedBatchedProducer checks the batched producer path: a
// Batcher in front of the sharded backend (the interpreter's BatchSize
// wiring) must not change the reports either.
func TestShardedBatchedProducer(t *testing.T) {
	serial := New(Options{})
	feedRandom(serial, 7, 3000)
	want := reportStrings(serial)

	sh := NewSharded(Options{}, 4, 8)
	b := event.NewBatcher(sh, 8)
	feedRandom(b, 7, 3000)
	b.Flush()
	if err := sh.Err(); err != nil {
		t.Fatalf("worker error: %v", err)
	}
	got := reportStrings(sh)
	if len(got) != len(want) {
		t.Fatalf("batched sharded: %d reports, serial %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("report %d differs\nbatched sharded: %s\nserial: %s", i, got[i], want[i])
		}
	}
}

// TestShardedStatsMatchSerial pins the strongest consequence of the
// router-side filter design: because the cache and ownership layers
// run synchronously on the router in exactly the serial order, every
// filter counter — and, since the trie-bound stream is identical, the
// summed trie counters too — matches the serial back end bit for bit.
func TestShardedStatsMatchSerial(t *testing.T) {
	serial := New(Options{})
	feedRandom(serial, 1, 2000)
	want := serial.Stats()

	sh := NewSharded(Options{}, 3, 16)
	feedRandom(sh, 1, 2000)
	got := sh.Stats()

	if got.Accesses != want.Accesses || got.CacheHits != want.CacheHits ||
		got.OwnerSkips != want.OwnerSkips {
		t.Fatalf("filter counters diverge from serial:\nsharded: %+v\nserial:  %+v", got, want)
	}
	if got.Cache != want.Cache {
		t.Fatalf("cache stats diverge from serial:\nsharded: %+v\nserial:  %+v", got.Cache, want.Cache)
	}
	if got.OwnerLocations != want.OwnerLocations || got.OwnerOverflows != want.OwnerOverflows {
		t.Fatalf("ownership stats diverge from serial:\nsharded: %+v\nserial:  %+v", got, want)
	}
	if got.Trie != want.Trie {
		t.Fatalf("summed trie stats diverge from serial:\nsharded: %+v\nserial:  %+v", got.Trie, want.Trie)
	}
	if sh.TrieNodeCount() != serial.TrieNodeCount() {
		t.Fatalf("trie nodes: sharded %d, serial %d", sh.TrieNodeCount(), serial.TrieNodeCount())
	}
	if sh.TrieLocationCount() != serial.TrieLocationCount() {
		t.Fatalf("trie locations: sharded %d, serial %d", sh.TrieLocationCount(), serial.TrieLocationCount())
	}
}

// TestShardedQuickCheckParity drives the inlined §4 fast path against
// both back ends with interleaved QuickCheck/Access calls, the way
// the interpreter does: hit/miss decisions, absorbed accesses, and
// final reports must all agree.
func TestShardedQuickCheckParity(t *testing.T) {
	serial := New(Options{})
	sh := NewSharded(Options{}, 4, 8)

	drive := func(qc interface {
		QuickCheck(event.ThreadID, event.Loc, event.Kind) bool
	}, s event.Sink) {
		s.ThreadStarted(0, event.NoThread)
		s.ThreadStarted(1, 0)
		for i := 0; i < 2000; i++ {
			th := event.ThreadID(i & 1)
			loc := event.Loc{Obj: event.ObjID(100 + i%7), Slot: int32(i % 3)}
			kind := event.Kind(i & 1)
			if qc.QuickCheck(th, loc, kind) {
				continue // absorbed, exactly like the interpreter
			}
			s.Access(event.Access{Loc: loc, Thread: th, Kind: kind, FieldName: "Q.f"})
		}
		s.ThreadFinished(1)
		s.ThreadFinished(0)
	}
	drive(serial, serial)
	drive(sh, sh)

	if err := sh.Err(); err != nil {
		t.Fatal(err)
	}
	want, got := reportStrings(serial), reportStrings(sh)
	compareReports(t, "quickcheck parity", got, want)
	ws, gs := serial.Stats(), sh.Stats()
	if gs.Accesses != ws.Accesses || gs.CacheHits != ws.CacheHits {
		t.Fatalf("fast-path counters diverge: sharded %+v, serial %+v", gs, ws)
	}
}

// TestShardedStarvedRing runs the differential check with ring depth
// 1 and tiny batches, forcing constant wraparound and park/unpark on
// both sides of every ring. Run under -race this is the ring-integration
// memory-ordering stress.
func TestShardedStarvedRing(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		serial := New(Options{})
		feedRandom(serial, seed, 3000)
		want := reportStrings(serial)

		sh := NewSharded(Options{QueueDepth: 1}, 4, 2)
		feedRandom(sh, seed, 3000)
		if err := sh.Err(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		compareReports(t, "starved ring", reportStrings(sh), want)
	}
}

// TestPooledBuffersDoNotAliasReports pins the buffer-recycling
// contract: batch buffers are reused across flushes and across runs
// (the package pool), so an earlier run's reports must stay intact
// while a later run churns through recycled buffers. Reports hold
// value copies plus run-owned interned locksets; if anything ever
// pointed back into a recycled buffer, the second run would scribble
// over the first run's output.
func TestPooledBuffersDoNotAliasReports(t *testing.T) {
	first := NewSharded(Options{}, 2, 4)
	feedRandom(first, 11, 2000)
	before := reportStrings(first) // finalizes: buffers drain to the pool
	if len(before) == 0 {
		t.Fatal("scenario should produce reports")
	}

	for i := int64(0); i < 3; i++ {
		next := NewSharded(Options{}, 2, 4)
		feedRandom(next, 20+i, 2000)
		_ = next.Reports()
	}

	compareReports(t, "after pool reuse", reportStrings(first), before)
}

// TestShardedDescribeObjAtMerge verifies ObjDesc is filled during the
// deterministic merge, matching the serial reports.
func TestShardedDescribeObjAtMerge(t *testing.T) {
	desc := func(o event.ObjID) string { return "OBJ" + o.String() }

	serial := New(Options{NoOwnership: true})
	serial.SetDescribeObj(desc)
	feedRandom(serial, 3, 1000)

	sh := NewSharded(Options{NoOwnership: true}, 2, 16)
	sh.SetDescribeObj(desc)
	feedRandom(sh, 3, 1000)

	want, got := serial.Reports(), sh.Reports()
	if len(want) == 0 {
		t.Fatal("scenario should produce reports")
	}
	if len(got) != len(want) {
		t.Fatalf("got %d reports, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ObjDesc == "" || got[i].ObjDesc != want[i].ObjDesc {
			t.Fatalf("report %d ObjDesc = %q, want %q", i, got[i].ObjDesc, want[i].ObjDesc)
		}
	}
}

// readingSink feeds its Detector and reads every result after each
// 97th access.
type readingSink struct {
	*Detector
	t      *testing.T
	n      int
	fewest int // reports at the first read
}

func (r *readingSink) Access(a event.Access) {
	r.Detector.Access(a)
	if r.n++; r.n%97 != 0 {
		return
	}
	reports := len(r.Reports())
	if r.fewest < 0 {
		r.fewest = reports
	}
	_ = r.RacyObjects()
	_ = r.Stats()
	_ = r.TrieNodeCount()
	_ = r.TrieLocationCount()
	if err := r.Err(); err != nil {
		r.t.Fatal(err)
	}
}

// TestInlineAccessorsDoNotLatch: an inline detector's result accessors
// read live worker state and end nothing, so reading every result
// repeatedly partway through the stream and feeding on must give the
// same final results as one uninterrupted run.
func TestInlineAccessorsDoNotLatch(t *testing.T) {
	for name, opts := range map[string]Options{"full": {}, "sampled": {SampleK: 2}} {
		for seed := int64(0); seed < 3; seed++ {
			whole := New(opts)
			feedRandomSited(whole, seed, 3000)
			read := &readingSink{Detector: New(opts), t: t, fewest: -1}
			feedRandomSited(read, seed, 3000)

			label := fmt.Sprintf("%s/seed%d", name, seed)
			compareReports(t, label, reportStrings(read.Detector), reportStrings(whole))
			if len(read.Reports()) <= read.fewest {
				t.Fatalf("%s: no reports after the first read; the stream cannot show latching", label)
			}
			if got, want := read.Stats(), whole.Stats(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: stats diverge\nread:  %+v\nwhole: %+v", label, got, want)
			}
			if got, want := read.RacyObjects(), whole.RacyObjects(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: racy objects %v, want %v", label, got, want)
			}
			if read.TrieNodeCount() != whole.TrieNodeCount() {
				t.Fatalf("%s: trie nodes %d, want %d", label, read.TrieNodeCount(), whole.TrieNodeCount())
			}
		}
	}
}
