// Ring-fed workers: the location-sharded back half of the pipeline.
//
// NewSharded builds the same router as New and attaches N worker
// goroutines instead of one inline worker. The router still runs every
// filter layer — the per-thread access caches (§4, including the
// inlined QuickCheck fast path), the §7 ownership filter and the
// sampling throttle — synchronously in event order. Only accesses that
// survive them are lockset-materialized, stamped with a sequence
// number, batched, and pushed over a bounded SPSC ring to the worker
// chosen by hash(ObjID, slot). Each worker owns the trie slice for its
// share of the location space and nothing else, so workers never share
// mutable state and no control messages (lock releases, thread
// lifecycle) ever cross the rings.
//
// Determinism contract: the filter layers are the inline detector's
// own code on the same router, so their evolution — hits, evictions,
// ownership transitions, sampling decisions, stats — and the stream of
// trie-bound accesses are identical to an inline run's. A location's
// accesses all hash to the same shard and arrive in stream order, so
// every per-location trie evolution is identical too. Reports carry
// their access's sequence number and merge in sequence order, which is
// the inline detection order; merged reports are byte-identical to
// inline ones (asserted corpus-wide by the differential tests).
//
// Allocation discipline: batch buffers are recycled. Each worker
// returns processed buffers to the router over a second SPSC ring
// (the freelist); the supervised variant, which must keep buffers
// alive in its write-ahead journal, recycles them when a checkpoint
// truncates the journal. Buffers that miss the freelist fall back to
// a package-level pool shared across runs, so steady-state routing
// allocates nothing.
//
// Bounded-memory options: MaxCacheThreads and MaxOwnerLocations bound
// the router's single cache and ownership table, exactly as inline.
// Only MaxTrieNodes is split evenly across shards; bounded-trie
// collapse decisions then depend on per-shard occupancy, so that
// configuration trades byte-equivalence for the usual "strictly
// over-reports, never misses" degradation.
package detector

import (
	"fmt"
	"sync"

	"racedet/internal/rt/event"
	"racedet/internal/rt/journal"
	"racedet/internal/rt/spsc"
)

// DefaultQueueDepth is the per-shard router→worker ring capacity in
// batches when Options.QueueDepth is zero.
const DefaultQueueDepth = 8

// shardAccess is one routed access: the event — lockset already
// materialized by the router — plus the global order stamp for the
// deterministic report merge.
type shardAccess struct {
	a   event.Access
	seq uint64
}

// shardBatch is the unit that crosses a shard ring: a run of routed
// accesses in stream order.
type shardBatch = []shardAccess

// batchPool recycles batch buffers across runs: buffers that miss a
// ring freelist at recycle time, and every buffer still owned at
// finalize, land here instead of in the garbage collector.
var batchPool = sync.Pool{New: func() any { return shardBatch(nil) }}

// getBatch returns an empty buffer with capacity >= want.
func getBatch(want int) shardBatch {
	b := batchPool.Get().(shardBatch)
	if cap(b) < want {
		return make(shardBatch, 0, want)
	}
	return b[:0]
}

// putBatch returns a buffer to the cross-run pool. Elements are
// cleared first so a pooled buffer cannot pin a dead run's interned
// locksets or report strings.
func putBatch(b shardBatch) {
	if cap(b) == 0 {
		return
	}
	b = b[:cap(b)]
	for i := range b {
		b[i] = shardAccess{}
	}
	batchPool.Put(b[:0])
}

// fanout is the router-side plumbing of the ring-fed workers. Its
// fields belong to the producer goroutine until finalize.
type fanout struct {
	pending []shardBatch // per-shard batch buffers being filled
	batch   int

	// Backpressure accounting.
	depthHigh []int // per-shard ring high-water mark, in batches
	dropped   uint64
	droppedEv uint64
	stalls    uint64

	wg  sync.WaitGroup
	fin sync.Once
}

// NewSharded builds a detector whose router feeds n location-sharded
// worker goroutines (n >= 1) with access batches of up to batchSize
// events (<= 0 selects event.DefaultBatchSize). Options are
// interpreted as in New; the trie memory bound is split evenly across
// shards. Results become available once the event stream ends: the
// first result accessor ends it.
func NewSharded(opts Options, n, batchSize int) *Detector {
	if n < 1 {
		n = 1
	}
	if batchSize <= 0 {
		batchSize = event.DefaultBatchSize
	}
	d := newRouter(opts, event.NewInterner())
	d.fan = &fanout{
		pending:   make([]shardBatch, n),
		batch:     batchSize,
		depthHigh: make([]int, n),
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	for i := 0; i < n; i++ {
		w := newWorker(i, n, opts, event.NewInterner())
		w.ring = spsc.New[shardBatch](depth)
		// One spare lap of freelist slots beyond the ring depth: every
		// buffer in flight has a place to come home to, so in steady
		// state the freelist never overflows into the pool.
		w.free = spsc.New[shardBatch](depth + 2)
		if opts.JournalCap > 0 {
			w.journal = journal.New[shardBatch](opts.JournalCap)
		}
		d.workers = append(d.workers, w)
		d.fan.wg.Add(1)
		go w.run(&d.fan.wg)
	}
	return d
}

func (w *worker) run(wg *sync.WaitGroup) {
	defer wg.Done()
	if w.journal != nil {
		// Supervised: every batch is journaled before processing and a
		// panic restarts the worker from its checkpoint (supervise.go).
		// Buffers are recycled when a checkpoint truncates the journal,
		// not here.
		for {
			batch, ok := w.ring.Pop()
			if !ok {
				return
			}
			w.handleSupervised(batch)
		}
	}
	defer func() {
		if r := recover(); r != nil {
			w.err = fmt.Errorf("detector shard %d: panic: %v", w.idx, r)
			// Keep draining so the router can never block on a full
			// ring after a shard dies.
			for {
				if _, ok := w.ring.Pop(); !ok {
					return
				}
			}
		}
	}()
	for {
		batch, ok := w.ring.Pop()
		if !ok {
			return
		}
		w.process(batch)
		w.recycle(batch)
	}
}

// process applies one routed batch to the shard's trie slice.
func (w *worker) process(batch shardBatch) {
	for i := range batch {
		sa := &batch[i]
		w.events++
		if f := w.opts.Faults; f != nil {
			// Fault-injection hook: may sleep (slow worker) or panic. A
			// panic here is indistinguishable from a detector bug, which
			// is exactly what the supervision tests need.
			f.WorkerEvent(w.idx, w.events)
		}
		if race, info := w.trie.Process(sa.a); race {
			w.report(&sa.a, sa.seq, info)
		}
	}
}

// recycle hands a processed buffer back to the router via the
// freelist ring; when the freelist is full the buffer goes to the
// cross-run pool instead. Safe only once nothing references the
// buffer anymore (the trie and the reports copy what they keep).
func (w *worker) recycle(batch shardBatch) {
	if batch == nil {
		return
	}
	if !w.free.TryPush(batch[:0]) {
		putBatch(batch)
	}
}

// shardOf hashes a location to a worker, using the same mixing
// constants as the access cache so related locations spread evenly.
func shardOf(loc event.Loc, n int) int {
	h := uint64(loc.Obj)*0x9E3779B97F4A7C15 + uint64(uint32(loc.Slot))*0x85EBCA6B
	return int((h >> 32) % uint64(n))
}

// route appends a shipped access to its shard's pending batch and
// flushes the batch when full.
func (d *Detector) route(a event.Access) {
	f := d.fan
	i := shardOf(a.Loc, len(d.workers))
	if f.pending[i] == nil {
		// Freelist first (a buffer the worker already processed), then
		// the cross-run pool.
		b, ok := d.workers[i].free.TryPop()
		if !ok {
			b = getBatch(f.batch)
		}
		f.pending[i] = b
	}
	f.pending[i] = append(f.pending[i], shardAccess{a: a, seq: d.seq})
	if len(f.pending[i]) >= f.batch {
		d.flushShard(i)
	}
}

func (d *Detector) flushShard(i int) {
	f := d.fan
	w := d.workers[i]
	if n := w.ring.Len(); n > f.depthHigh[i] {
		f.depthHigh[i] = n
	}
	full := w.ring.Full()
	if fi := d.opts.Faults; fi != nil && fi.QueueFull(i) {
		full = true
	}
	if full {
		if d.opts.DropOnBackpressure {
			// Lossy policy: batches may be dropped, but every loss is
			// accounted, so a run can report exactly what it skipped.
			f.dropped++
			f.droppedEv += uint64(len(f.pending[i]))
			f.pending[i] = f.pending[i][:0]
			return
		}
		// Default policy: block until the worker drains (Push parks the
		// router only while the ring is actually full). Counted so
		// operators can see router stalls and resize the rings.
		f.stalls++
	}
	w.ring.Push(f.pending[i])
	f.pending[i] = nil
}

// finalize ends a ring-fed event stream: flush, close the rings, wait
// for the workers, and drain their freelists into the cross-run pool
// so the next run's router starts with warm buffers. It runs once,
// under the fanout's sync.Once, from the first result accessor.
func (d *Detector) finalize() {
	f := d.fan
	// The final flush always blocks: the workers are about to drain
	// their rings to completion, so the push cannot deadlock, and
	// dropping the tail of the stream under the lossy policy would be
	// pure loss.
	for i, b := range f.pending {
		if len(b) > 0 {
			d.workers[i].ring.Push(b)
			f.pending[i] = nil
		}
	}
	for _, w := range d.workers {
		w.ring.Close()
	}
	f.wg.Wait()
	for _, w := range d.workers {
		for {
			b, ok := w.free.TryPop()
			if !ok {
				break
			}
			putBatch(b)
		}
	}
}

// addRecovery adds the router's backpressure counters to rec.
func (f *fanout) addRecovery(rec *RecoveryStats) {
	rec.DroppedBatches += f.dropped
	rec.DroppedEvents += f.droppedEv
	rec.BackpressureStalls += f.stalls
	for _, h := range f.depthHigh {
		if h > rec.QueueHighWater {
			rec.QueueHighWater = h
		}
	}
}
