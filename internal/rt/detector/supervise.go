// Worker supervision for ring-fed workers: journaled replay,
// checkpoint/restore, bounded restarts with exponential backoff, and
// degradation to the Eraser lockset path when the retry budget runs
// out.
//
// The protocol per routed batch is write-ahead: if the journal is
// full, checkpoint (deep snapshot of the shard's trie state) and
// truncate; then append the batch; then process it under a recover
// wrapper. A panic triggers recoverFrom, which restarts the shard —
// restore a fresh clone of the checkpoint (or an empty trie if none
// was ever taken), replay the journal suffix — up to Options.
// RetryBudget times. Because the panicking batch was journaled before
// processing, replay re-delivers it, so a deterministic fault (the
// interesting kind: a detector bug tripped by a specific input) will
// re-fire during replay and consume another attempt; a transient
// fault recovers with state byte-identical to a run that never
// panicked. When the budget is exhausted — or the checkpoint fails
// validation — the shard degrades: it keeps the best reports it has
// and runs every remaining access through a self-contained Eraser
// lockset state machine that cannot panic, so the run always
// completes with an accounted degradation instead of a lost analysis.
//
// Buffer lifecycle: a supervised shard must keep routed batch buffers
// alive while they sit in the journal (replay re-reads them), so it
// recycles them to the router's freelist only when a checkpoint
// truncates the journal — the unsupervised worker recycles
// immediately after processing instead.
package detector

import (
	"fmt"
	"time"

	"racedet/internal/rt/event"
	"racedet/internal/rt/journal"
	"racedet/internal/rt/trie"
)

// FaultInjector is the deterministic fault-injection surface the
// sharded back end exposes for robustness testing; implementations
// live in internal/faultinject. All methods are called from hot paths
// — the router goroutine (QueueFull) and worker goroutines (the rest)
// — and must be safe for concurrent use.
type FaultInjector interface {
	// WorkerEvent fires on shard's n-th processed access (1-based,
	// counted per shard). It may panic (worker crash) or sleep (slow
	// worker); returning normally injects nothing.
	WorkerEvent(shard int, n uint64)
	// QueueFull reports whether the router should treat shard's queue
	// as full right now, forcing the backpressure path.
	QueueFull(shard int) bool
	// CorruptCheckpoint reports whether the checkpoint shard is about
	// to take should be marked corrupt, forcing restore to fail.
	CorruptCheckpoint(shard int) bool
}

// workerSnapshot is the checkpointed deep copy of a shard's state:
// the trie slice plus the report set and the fault-hook event
// counter. The cache and ownership layers live on the router and are
// untouched by worker faults; the lockset interner is deliberately
// not part of the snapshot either — interning is content-addressed
// and append-only, so entries added by a discarded attempt can never
// change what a later Intern returns.
type workerSnapshot struct {
	trie   history
	events uint64

	reports     []shardReport
	reportedLoc map[event.Loc]struct{}
	reportedObj map[event.ObjID]struct{}
}

// cloneHistory deep-copies any of the trie implementations behind the
// history interface. The constructors in freshState cover exactly
// these types, so an unknown one is an internal invariant violation.
func cloneHistory(h history) history {
	switch t := h.(type) {
	case *trie.Detector:
		return t.Clone()
	case *trie.Packed:
		return t.Clone()
	default:
		panic(fmt.Sprintf("detector: history type %T has no Clone", h))
	}
}

func cloneLocSet(m map[event.Loc]struct{}) map[event.Loc]struct{} {
	n := make(map[event.Loc]struct{}, len(m))
	for k := range m {
		n[k] = struct{}{}
	}
	return n
}

func cloneObjSet(m map[event.ObjID]struct{}) map[event.ObjID]struct{} {
	n := make(map[event.ObjID]struct{}, len(m))
	for k := range m {
		n[k] = struct{}{}
	}
	return n
}

// snapshot deep-copies the worker's state for a checkpoint.
func (w *worker) snapshot() workerSnapshot {
	return workerSnapshot{
		trie:        cloneHistory(w.trie),
		events:      w.events,
		reports:     append([]shardReport(nil), w.reports...),
		reportedLoc: cloneLocSet(w.reportedLoc),
		reportedObj: cloneObjSet(w.reportedObj),
	}
}

// handleSupervised is the supervised worker's per-batch protocol:
// checkpoint when the journal is full, journal the batch, process it
// under a recover wrapper, and run recovery on panic. Once the shard
// has degraded, batches flow straight to the Eraser path (and are
// recycled immediately — nothing journals them anymore).
func (w *worker) handleSupervised(batch shardBatch) {
	if w.degraded != nil {
		w.degraded.handle(w, batch)
		w.recycle(batch)
		return
	}
	if w.journal.Full() {
		w.checkpoint()
	}
	w.journal.Append(batch)
	if err := w.tryProcess(batch); err != nil {
		w.recoverFrom(err)
	}
}

// checkpoint snapshots the shard and truncates the journal. The
// truncated buffers have been fully absorbed by the snapshot (the
// trie and reports copy what they keep), so they are recycled to the
// router's freelist here — the supervised half of the zero-allocation
// steady state. The fault hook may mark the new checkpoint corrupt,
// which a later restore detects (and degrades on) instead of silently
// replaying onto bad state.
func (w *worker) checkpoint() {
	w.ckpt = journal.Capture(w.snapshot(), w.journal.Pos())
	w.rec.Checkpoints++
	if f := w.opts.Faults; f != nil && f.CorruptCheckpoint(w.idx) {
		w.ckpt.Corrupt()
	}
	w.journal.Each(w.recycle)
	w.journal.Truncate()
}

func (w *worker) tryProcess(batch shardBatch) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("detector shard %d: panic: %v", w.idx, r)
		}
	}()
	w.process(batch)
	return nil
}

// restore rebuilds the worker's state from the last checkpoint — a
// fresh clone each time, so the checkpoint itself stays pristine for
// further restores — or from scratch when no checkpoint was ever
// taken. It returns false if the checkpoint exists but fails
// validation; the caller must then degrade rather than trust it.
func (w *worker) restore() bool {
	if !w.ckpt.Taken() {
		w.freshState()
		return true
	}
	if !w.ckpt.Valid() {
		return false
	}
	s := w.ckpt.State
	w.trie = cloneHistory(s.trie)
	w.events = s.events
	w.reports = append([]shardReport(nil), s.reports...)
	w.reportedLoc = cloneLocSet(s.reportedLoc)
	w.reportedObj = cloneObjSet(s.reportedObj)
	return true
}

func (w *worker) tryReplay() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("detector shard %d: panic during replay: %v", w.idx, r)
		}
	}()
	w.journal.Replay(w.process)
	return nil
}

// backoffDelay is the exponential restart backoff: 1ms doubling per
// attempt, capped at 100ms so a stuck shard cannot stall the run for
// long (the router ring is bounded, so the backpressure policy
// governs what happens upstream meanwhile).
func backoffDelay(attempt int) time.Duration {
	if attempt > 7 {
		return 100 * time.Millisecond
	}
	d := time.Millisecond << (attempt - 1)
	if d > 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// recoverFrom drives the restart loop after a processing panic. Each
// attempt restores the checkpoint clone and replays the journal
// suffix; success means the shard's state is exactly what an
// undisturbed run would have — the panicking batch included, since it
// was journaled before processing. Budget exhaustion or a corrupt
// checkpoint degrades the shard instead of failing the run.
func (w *worker) recoverFrom(cause error) {
	for attempt := 1; ; attempt++ {
		if attempt > w.opts.RetryBudget {
			w.degrade(cause)
			return
		}
		w.rec.Restarts++
		time.Sleep(backoffDelay(attempt))
		if !w.restore() {
			w.rec.CheckpointCorruptions++
			w.degrade(cause)
			return
		}
		if err := w.tryReplay(); err != nil {
			cause = err
			continue
		}
		return
	}
}

// ---------------------------------------------------------------------------
// degraded mode: the Eraser lockset path

// degrade switches the shard to the Eraser path for the rest of the
// run. The shard keeps the most trustworthy reports available — the
// checkpoint's when it is valid (the current set may include effects
// of a poisoned partial attempt), the current best effort otherwise —
// and then pushes the journal suffix through the Eraser machine so
// the accesses since the checkpoint are still analyzed. The
// per-location dedup map carries over, so a location already reported
// by the trie is not re-reported by Eraser. The journaled buffers are
// not recycled — the journal is simply abandoned (bounded by
// JournalCap, a one-time cost on an already-degraded shard).
func (w *worker) degrade(cause error) {
	_ = cause // the run completes; Stats.Recovery carries the story
	w.degraded = &degradedShard{locs: make(map[event.Loc]*eraserLoc)}
	if w.ckpt.Valid() {
		s := w.ckpt.State
		w.reports = append([]shardReport(nil), s.reports...)
		w.reportedLoc = cloneLocSet(s.reportedLoc)
		w.reportedObj = cloneObjSet(s.reportedObj)
	}
	w.journal.Replay(func(b shardBatch) { w.degraded.handle(w, b) })
}

// eraserLoc is one location's Eraser state: Virgin → Exclusive →
// Shared / Shared-Modified with candidate-lockset intersection, as in
// internal/rt/eraser but over the router-materialized locksets the
// shard batches already carry. One deliberate deviation from classic
// Eraser: the first access's lockset participates in the candidate
// intersection (classic Eraser discards it to tolerate init
// patterns). The stream a degraded shard sees has already been
// deduplicated by the router's cache, so the redundant accesses that
// would normally drain the candidate set may never arrive; folding
// the first lockset in errs toward reporting — strictly more reports,
// never fewer, which is the degraded mode's contract.
type eraserLoc struct {
	state      int8
	firstT     event.ThreadID
	firstLocks event.Lockset
	candidate  event.Lockset
}

const (
	eraserVirgin int8 = iota
	eraserExclusive
	eraserShared
	eraserSharedModified
)

// degradedShard is the panic-free fallback detector for one shard. It
// deliberately calls no fault hooks and allocates only maps and small
// structs, so a degraded shard always drains its ring to completion.
type degradedShard struct {
	locs map[event.Loc]*eraserLoc
}

func (g *degradedShard) handle(w *worker, batch shardBatch) {
	for _, sa := range batch {
		g.access(w, sa)
	}
}

func (g *degradedShard) access(w *worker, sa shardAccess) {
	w.rec.DegradedEvents++
	a := sa.a
	ls := g.locs[a.Loc]
	if ls == nil {
		ls = &eraserLoc{state: eraserVirgin}
		g.locs[a.Loc] = ls
	}
	held := a.Locks // interned canonical slice, never mutated

	switch ls.state {
	case eraserVirgin:
		ls.state = eraserExclusive
		ls.firstT = a.Thread
		ls.firstLocks = held
	case eraserExclusive:
		if a.Thread == ls.firstT {
			return
		}
		ls.candidate = ls.firstLocks.Intersect(held)
		if a.Kind == event.Write {
			ls.state = eraserSharedModified
		} else {
			ls.state = eraserShared
		}
	case eraserShared:
		ls.candidate = ls.candidate.Intersect(held)
		if a.Kind == event.Write {
			ls.state = eraserSharedModified
		}
	case eraserSharedModified:
		ls.candidate = ls.candidate.Intersect(held)
	}

	if ls.state == eraserSharedModified && len(ls.candidate) == 0 {
		if _, dup := w.reportedLoc[a.Loc]; dup {
			return
		}
		w.reportedLoc[a.Loc] = struct{}{}
		w.reportedObj[a.Loc.Obj] = struct{}{}
		// Eraser knows no prior access: report the conservative bottom
		// (t⊥, empty lockset, write), the same shape a collapsed trie
		// summary produces.
		w.reports = append(w.reports, shardReport{
			rep: Report{
				Access:      a,
				PriorThread: event.TBot,
				PriorLocks:  event.Lockset{},
				PriorKind:   event.Write,
			},
			seq: sa.seq,
		})
	}
}
