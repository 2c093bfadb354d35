package trace

import (
	"bufio"
	"encoding/binary"
	"io"
	"sort"

	"racedet/internal/rt/event"
)

// DefaultSegmentTarget is the segment payload size a Writer cuts at
// (at the next block boundary). 64 KiB keeps segments small enough
// that parallel replay has work to spread and large enough that the
// per-segment framing and delta-state resets are noise.
const DefaultSegmentTarget = 64 << 10

// maxBlockEvents bounds one access block, so a long single-threaded
// run still produces segment cuts (and so a decoder can size buffers
// from the block header without trusting it unboundedly).
const maxBlockEvents = 4096

// Writer is the recording sink: it implements event.Sink and streams
// the compact binary trace to an io.Writer. The caller must call
// Finalize when the run ends — the trailer it writes is what marks the
// trace complete; without it readers reject the file as truncated.
//
// The writer buffers internally; errors from the underlying writer are
// sticky and reported by Finalize (and Err).
type Writer struct {
	w   *bufio.Writer
	err error
	off int64 // bytes emitted so far (header + segments)

	headerDone bool
	finalized  bool

	intern *event.Interner
	track  *event.LockTracker

	stringIDs map[string]uint64
	strings   []string

	// Distinct accessed objects, in first-seen order, for the
	// description table; describe renders them at Finalize.
	seenObjs map[event.ObjID]struct{}
	objs     []event.ObjID
	describe func(event.ObjID) string

	segTarget int
	seg       []byte // current segment payload
	segEvents uint64
	segBlocks uint64
	index     []SegmentInfo

	// Pending access block: records already encoded into blk, header
	// written on close (the count is not known until then).
	blk       []byte
	blkThread event.ThreadID
	blkLock   event.LocksetID
	blkCount  uint64
	blkOpen   bool
	prevObj   int64
	prevSlot  int64
	prevLine  int64
	prevCol   int64

	totalEvents uint64
}

// SegmentInfo locates one segment: the absolute byte offset and length
// of its payload plus its event and block counts. The reader gets the
// same structure back from the trace's segment index.
type SegmentInfo struct {
	Off    uint64
	Len    uint64
	Events uint64
	Blocks uint64
}

// NewWriter returns a recording sink streaming to w with the default
// segment target.
func NewWriter(w io.Writer) *Writer { return NewWriterSize(w, 0) }

// NewWriterSize returns a recording sink cutting segments at about
// segTarget payload bytes (0 selects DefaultSegmentTarget). Tests use
// tiny targets to force multi-segment traces.
func NewWriterSize(w io.Writer, segTarget int) *Writer {
	if segTarget <= 0 {
		segTarget = DefaultSegmentTarget
	}
	intern := event.NewInterner()
	return &Writer{
		w:         bufio.NewWriterSize(w, 32<<10),
		intern:    intern,
		track:     event.NewLockTrackerInterned(intern),
		stringIDs: map[string]uint64{"": 0},
		strings:   []string{""},
		seenObjs:  map[event.ObjID]struct{}{},
		segTarget: segTarget,
	}
}

// SetDescribeObj installs the object renderer (typically the
// interpreter's DescribeObj) consulted at Finalize to build the
// description table. Install it after the run, before Finalize —
// descriptions reflect the heap's final state, matching when live
// detectors render their reports. Nil skips the table.
func (w *Writer) SetDescribeObj(fn func(event.ObjID) string) { w.describe = fn }

// Err returns the sticky write error, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) write(b []byte) {
	if w.err != nil || w.finalized {
		return
	}
	n, err := w.w.Write(b)
	w.off += int64(n)
	if err != nil {
		w.err = err
	}
}

func (w *Writer) ensureHeader() {
	if w.headerDone {
		return
	}
	w.headerDone = true
	var hdr []byte
	hdr = append(hdr, Magic[:]...)
	hdr = putUvarint(hdr, Version)
	w.write(hdr)
}

func (w *Writer) stringID(s string) uint64 {
	if id, ok := w.stringIDs[s]; ok {
		return id
	}
	id := uint64(len(w.strings))
	w.stringIDs[s] = id
	w.strings = append(w.strings, s)
	return id
}

// closeBlock flushes the pending access block into the segment buffer.
func (w *Writer) closeBlock() {
	if !w.blkOpen {
		return
	}
	w.blkOpen = false
	w.seg = putUvarint(w.seg, opAccessBlock)
	w.seg = putZigzag(w.seg, int64(w.blkThread))
	w.seg = putUvarint(w.seg, uint64(w.blkLock))
	w.seg = putUvarint(w.seg, w.blkCount)
	w.seg = append(w.seg, w.blk...)
	w.blk = w.blk[:0]
	w.segEvents += w.blkCount
	w.segBlocks++
	w.blkCount = 0
	w.maybeCut()
}

// maybeCut flushes the segment when it passed the target size. Called
// only at block boundaries, so segments stay independently decodable.
func (w *Writer) maybeCut() {
	if len(w.seg) >= w.segTarget {
		w.flushSegment()
	}
}

func (w *Writer) flushSegment() {
	if w.segEvents == 0 {
		w.seg = w.seg[:0]
		w.segBlocks = 0
		return
	}
	w.ensureHeader()
	var hdr []byte
	hdr = putUvarint(hdr, uint64(len(w.seg)))
	hdr = putUvarint(hdr, w.segEvents)
	hdr = putUvarint(hdr, w.segBlocks)
	w.write(hdr)
	payloadOff := uint64(w.off)
	w.write(w.seg)
	w.index = append(w.index, SegmentInfo{
		Off:    payloadOff,
		Len:    uint64(len(w.seg)),
		Events: w.segEvents,
		Blocks: w.segBlocks,
	})
	w.totalEvents += w.segEvents
	w.seg = w.seg[:0]
	w.segEvents = 0
	w.segBlocks = 0
}

// control encodes a single control event (already a closed block).
func (w *Writer) control(op uint64, operands ...int64) {
	if w.finalized {
		return
	}
	w.closeBlock()
	w.seg = putUvarint(w.seg, op)
	for _, v := range operands {
		w.seg = putZigzag(w.seg, v)
	}
	w.segEvents++
	w.segBlocks++
	w.maybeCut()
}

// ThreadStarted implements event.Sink.
func (w *Writer) ThreadStarted(child, parent event.ThreadID) {
	w.control(opThreadStart, int64(child), int64(parent))
	w.track.ThreadStarted(child, parent)
}

// ThreadFinished implements event.Sink.
func (w *Writer) ThreadFinished(t event.ThreadID) {
	w.control(opThreadFinish, int64(t))
	w.track.ThreadFinished(t)
}

// Joined implements event.Sink.
func (w *Writer) Joined(joiner, joinee event.ThreadID) {
	w.control(opJoin, int64(joiner), int64(joinee))
	w.track.Joined(joiner, joinee)
}

// MonitorEnter implements event.Sink.
func (w *Writer) MonitorEnter(t event.ThreadID, lock event.ObjID, depth int) {
	w.control(opMonEnter, int64(t), int64(lock), int64(depth))
	w.track.MonitorEnter(t, lock, depth)
}

// MonitorExit implements event.Sink.
func (w *Writer) MonitorExit(t event.ThreadID, lock event.ObjID, depth int) {
	w.control(opMonExit, int64(t), int64(lock), int64(depth))
	w.track.MonitorExit(t, lock, depth)
}

// Access implements event.Sink: append a delta-encoded record to the
// thread's pending block, opening one if needed.
func (w *Writer) Access(a event.Access) {
	if w.finalized {
		return
	}
	if w.blkOpen && (w.blkThread != a.Thread || w.blkCount >= maxBlockEvents) {
		w.closeBlock()
	}
	if !w.blkOpen {
		w.blkOpen = true
		w.blkThread = a.Thread
		w.blkLock = w.track.HeldID(a.Thread)
		w.prevObj, w.prevSlot, w.prevLine, w.prevCol = 0, 0, 0, 0
	}
	if _, ok := w.seenObjs[a.Loc.Obj]; !ok {
		w.seenObjs[a.Loc.Obj] = struct{}{}
		w.objs = append(w.objs, a.Loc.Obj)
	}
	fieldID := w.stringID(a.FieldName)
	fileID := w.stringID(a.Pos.File)
	w.blk = putUvarint(w.blk, fieldID<<1|uint64(a.Kind&1))
	obj, slot := int64(a.Loc.Obj), int64(a.Loc.Slot)
	line, col := int64(a.Pos.Line), int64(a.Pos.Col)
	w.blk = putZigzag(w.blk, obj-w.prevObj)
	w.blk = putZigzag(w.blk, slot-w.prevSlot)
	w.blk = putUvarint(w.blk, fileID)
	w.blk = putZigzag(w.blk, line-w.prevLine)
	w.blk = putZigzag(w.blk, col-w.prevCol)
	w.prevObj, w.prevSlot, w.prevLine, w.prevCol = obj, slot, line, col
	w.blkCount++
}

// Finalize flushes pending events and writes the lockset table, string
// table, segment index, and the fixed trailer that marks the trace
// complete. It must be called exactly when the run ends — including
// runs cut short by an error, so the partial trace is still a valid,
// replayable artifact. Idempotent; returns the first write error.
func (w *Writer) Finalize() error {
	if w.finalized {
		return w.err
	}
	w.closeBlock()
	w.flushSegment()
	w.ensureHeader()

	var buf []byte

	// Lockset table: every interned set, dense by ID, lock IDs
	// delta-encoded (canonical sets are sorted, so deltas past the
	// first are non-negative — but pseudolocks make the values
	// themselves negative, hence zigzag).
	locksetsOff := uint64(w.off)
	buf = putUvarint(buf[:0], uint64(w.intern.Size()))
	for id := 0; id < w.intern.Size(); id++ {
		ls := w.intern.Lockset(event.LocksetID(id))
		buf = putUvarint(buf, uint64(len(ls)))
		prev := int64(0)
		for _, l := range ls {
			buf = putZigzag(buf, int64(l)-prev)
			prev = int64(l)
		}
	}
	w.write(buf)

	// Object-description table, delta-encoded by object ID with the
	// renderings interned into the string table. Built before the
	// string table is written (it adds strings), sorted so the deltas
	// stay small and the output deterministic.
	var descBuf []byte
	if w.describe != nil {
		sort.Slice(w.objs, func(i, j int) bool { return w.objs[i] < w.objs[j] })
		descBuf = putUvarint(descBuf, uint64(len(w.objs)))
		prev := int64(0)
		for _, o := range w.objs {
			descBuf = putZigzag(descBuf, int64(o)-prev)
			prev = int64(o)
			descBuf = putUvarint(descBuf, w.stringID(w.describe(o)))
		}
	} else {
		descBuf = putUvarint(descBuf, 0)
	}

	// String table (field names, source files, object descriptions).
	stringsOff := uint64(w.off)
	buf = putUvarint(buf[:0], uint64(len(w.strings)))
	for _, s := range w.strings {
		buf = putUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	w.write(buf)

	descsOff := uint64(w.off)
	w.write(descBuf)

	// Segment index.
	indexOff := uint64(w.off)
	buf = putUvarint(buf[:0], uint64(len(w.index)))
	for _, s := range w.index {
		buf = putUvarint(buf, s.Off)
		buf = putUvarint(buf, s.Len)
		buf = putUvarint(buf, s.Events)
		buf = putUvarint(buf, s.Blocks)
	}
	w.write(buf)

	// Fixed trailer.
	buf = buf[:0]
	buf = binary.LittleEndian.AppendUint64(buf, locksetsOff)
	buf = binary.LittleEndian.AppendUint64(buf, stringsOff)
	buf = binary.LittleEndian.AppendUint64(buf, descsOff)
	buf = binary.LittleEndian.AppendUint64(buf, indexOff)
	buf = binary.LittleEndian.AppendUint64(buf, w.totalEvents)
	buf = append(buf, EndMagic[:]...)
	w.write(buf)

	if ferr := w.w.Flush(); ferr != nil && w.err == nil {
		w.err = ferr
	}
	w.finalized = true
	return w.err
}
