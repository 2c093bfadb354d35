package trace

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync"

	"racedet/internal/lang/token"
	"racedet/internal/rt/event"
)

// Reader is an open, validated trace. It is an index over an immutable
// byte slice (mmap-ed when possible), so opening a multi-gigabyte
// trace touches only the header, the trailer tables, and the segment
// index; segment payloads are faulted in as they are decoded. A Reader
// is safe for concurrent segment decoding — it is never mutated after
// NewReader returns.
type Reader struct {
	data    []byte
	unmap   func() error
	version uint64

	locksets []event.Lockset
	strings  []string
	descs    map[event.ObjID]string
	segs     []SegmentInfo
	total    uint64
}

// OpenFile opens and validates a trace file, memory-mapping it when
// the platform supports it and falling back to reading it into memory
// otherwise. Close releases the mapping.
func OpenFile(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if data, unmap, merr := mapFile(f, st.Size()); merr == nil {
		r, rerr := NewReader(data)
		if rerr != nil {
			unmap()
			return nil, rerr
		}
		r.unmap = unmap
		return r, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return NewReader(data)
}

// Close releases the file mapping, if any. The Reader (and any slices
// decoded from it) must not be used afterwards.
func (r *Reader) Close() error {
	if r.unmap != nil {
		u := r.unmap
		r.unmap = nil
		r.data = nil
		return u()
	}
	return nil
}

// Segments returns the number of independently decodable segments.
func (r *Reader) Segments() int { return len(r.segs) }

// SegmentInfo returns the index entry of segment i.
func (r *Reader) SegmentInfo(i int) SegmentInfo { return r.segs[i] }

// TotalEvents returns the recorded event count (control + access).
func (r *Reader) TotalEvents() uint64 { return r.total }

// Size returns the trace size in bytes.
func (r *Reader) Size() int64 { return int64(len(r.data)) }

// Version returns the trace format version.
func (r *Reader) Version() int { return int(r.version) }

// Lockset returns interned lockset id (the recording-side interner's
// dense identity, as referenced by access-block headers).
func (r *Reader) Lockset(id event.LocksetID) event.Lockset { return r.locksets[id] }

// NewReader validates data as a finalized trace and indexes it. It
// parses only the header, trailer, tables, and segment index; segment
// payloads are decoded lazily by Replay. Every defect — bad magic,
// missing trailer, out-of-range ID, inconsistent bound or count —
// returns a *FormatError; no input can make it panic.
func NewReader(data []byte) (*Reader, error) {
	if len(data) < len(Magic)+1+trailerSize {
		return nil, errf(int64(len(data)), "file too small for a trace (%d bytes)", len(data))
	}
	if string(data[:len(Magic)]) != string(Magic[:]) {
		return nil, errf(0, "bad magic: not a .mjtrace file")
	}
	hr := &byteReader{data: data, pos: len(Magic)}
	version, err := hr.uvarint()
	if err != nil {
		return nil, err
	}
	if version == 0 || version > Version {
		return nil, errf(int64(len(Magic)), "unsupported trace version %d (reader supports <= %d)", version, Version)
	}
	headerEnd := uint64(hr.pos)

	trailer := data[len(data)-trailerSize:]
	if string(trailer[5*8:]) != string(EndMagic[:]) {
		return nil, errf(int64(len(data)-8), "missing end-of-trace magic: truncated or unfinalized trace")
	}
	locksetsOff := binary.LittleEndian.Uint64(trailer[0:])
	stringsOff := binary.LittleEndian.Uint64(trailer[8:])
	descsOff := binary.LittleEndian.Uint64(trailer[16:])
	indexOff := binary.LittleEndian.Uint64(trailer[24:])
	total := binary.LittleEndian.Uint64(trailer[32:])
	tablesEnd := uint64(len(data) - trailerSize)
	if locksetsOff < headerEnd || stringsOff < locksetsOff || descsOff < stringsOff ||
		indexOff < descsOff || indexOff > tablesEnd {
		return nil, errf(int64(len(data)-trailerSize),
			"inconsistent trailer offsets (locksets=%d strings=%d descs=%d index=%d end=%d)",
			locksetsOff, stringsOff, descsOff, indexOff, tablesEnd)
	}

	r := &Reader{data: data, version: version, total: total}
	if err := r.parseLocksets(data[locksetsOff:stringsOff], int64(locksetsOff)); err != nil {
		return nil, err
	}
	if err := r.parseStrings(data[stringsOff:descsOff], int64(stringsOff)); err != nil {
		return nil, err
	}
	if err := r.parseDescs(data[descsOff:indexOff], int64(descsOff)); err != nil {
		return nil, err
	}
	if err := r.parseIndex(data[indexOff:tablesEnd], int64(indexOff), headerEnd, locksetsOff); err != nil {
		return nil, err
	}
	var sum uint64
	for _, s := range r.segs {
		sum += s.Events
	}
	if sum != total {
		return nil, errf(-1, "event count mismatch: index sums to %d, trailer says %d", sum, total)
	}
	return r, nil
}

func (r *Reader) parseLocksets(sec []byte, base int64) error {
	br := &byteReader{data: sec, base: base}
	count, err := br.uvarint()
	if err != nil {
		return err
	}
	if count == 0 || count > uint64(len(sec))+1 {
		return errf(base, "implausible lockset count %d for a %d-byte table", count, len(sec))
	}
	r.locksets = make([]event.Lockset, count)
	r.locksets[0] = event.Lockset{}
	for id := uint64(0); id < count; id++ {
		n, err := br.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(sec)) {
			return errf(br.off(), "implausible lockset size %d", n)
		}
		ls := make(event.Lockset, n)
		prev := int64(0)
		for i := range ls {
			d, err := br.zigzag()
			if err != nil {
				return err
			}
			prev += d
			ls[i] = event.ObjID(prev)
		}
		r.locksets[id] = ls
	}
	if !br.done() {
		return errf(br.off(), "trailing bytes after lockset table")
	}
	return nil
}

func (r *Reader) parseStrings(sec []byte, base int64) error {
	br := &byteReader{data: sec, base: base}
	count, err := br.uvarint()
	if err != nil {
		return err
	}
	if count == 0 || count > uint64(len(sec))+1 {
		return errf(base, "implausible string count %d for a %d-byte table", count, len(sec))
	}
	r.strings = make([]string, count)
	for id := uint64(0); id < count; id++ {
		n, err := br.uvarint()
		if err != nil {
			return err
		}
		b, err := br.bytes(n)
		if err != nil {
			return err
		}
		r.strings[id] = string(b)
	}
	if !br.done() {
		return errf(br.off(), "trailing bytes after string table")
	}
	return nil
}

func (r *Reader) parseDescs(sec []byte, base int64) error {
	br := &byteReader{data: sec, base: base}
	count, err := br.uvarint()
	if err != nil {
		return err
	}
	if count > uint64(len(sec)) {
		return errf(base, "implausible description count %d for a %d-byte table", count, len(sec))
	}
	if count > 0 {
		r.descs = make(map[event.ObjID]string, count)
	}
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		d, err := br.zigzag()
		if err != nil {
			return err
		}
		prev += d
		sid, err := br.uvarint()
		if err != nil {
			return err
		}
		if sid >= uint64(len(r.strings)) {
			return errf(br.off(), "description string ID %d out of range (table has %d)", sid, len(r.strings))
		}
		r.descs[event.ObjID(prev)] = r.strings[sid]
	}
	if !br.done() {
		return errf(br.off(), "trailing bytes after description table")
	}
	return nil
}

// DescribeObj renders an object for race reports from the recorded
// description table ("" when the recording had none). Plug it into a
// replay back end via SetDescribeObj so replayed reports match the
// live run's byte for byte.
func (r *Reader) DescribeObj(o event.ObjID) string { return r.descs[o] }

func (r *Reader) parseIndex(sec []byte, base int64, bodyStart, bodyEnd uint64) error {
	br := &byteReader{data: sec, base: base}
	count, err := br.uvarint()
	if err != nil {
		return err
	}
	if count > uint64(len(sec)) {
		return errf(base, "implausible segment count %d for a %d-byte index", count, len(sec))
	}
	r.segs = make([]SegmentInfo, count)
	prevEnd := bodyStart
	for i := range r.segs {
		var s SegmentInfo
		if s.Off, err = br.uvarint(); err != nil {
			return err
		}
		if s.Len, err = br.uvarint(); err != nil {
			return err
		}
		if s.Events, err = br.uvarint(); err != nil {
			return err
		}
		if s.Blocks, err = br.uvarint(); err != nil {
			return err
		}
		if s.Off < prevEnd || s.Off > bodyEnd || s.Len > bodyEnd-s.Off {
			return errf(br.off(), "segment %d out of bounds: [%d,%d) not within body [%d,%d)",
				i, s.Off, s.Off+s.Len, prevEnd, bodyEnd)
		}
		// Every event and every block consumes at least one payload
		// byte, so these counts bound the decode buffers safely —
		// decodeSegment pre-allocates from them.
		if s.Events > s.Len || s.Blocks > s.Len {
			return errf(br.off(), "segment %d claims %d events in %d blocks for a %d-byte payload",
				i, s.Events, s.Blocks, s.Len)
		}
		prevEnd = s.Off + s.Len
		r.segs[i] = s
	}
	if !br.done() {
		return errf(br.off(), "trailing bytes after segment index")
	}
	return nil
}

// Op is one decoded control event or access block.
type Op struct {
	Kind    uint8 // opThreadStart..opMonExit, or opAccessBlock
	A, B    int64 // operands (thread IDs, lock object, joiner/joinee)
	Depth   int
	Lockset event.LocksetID // access blocks: recorded lock environment
	Start   int             // access blocks: range into decodedSeg.accesses
	N       int
}

// decodedSeg is one segment decoded into deliverable form. Buffers are
// pooled and reused across segments (and across Replay calls).
type decodedSeg struct {
	ops      []Op
	accesses []event.Access
}

var segPool = sync.Pool{New: func() any { return new(decodedSeg) }}

func (d *decodedSeg) reset() {
	d.ops = d.ops[:0]
	for i := range d.accesses {
		d.accesses[i] = event.Access{} // do not pin strings across pool reuse
	}
	d.accesses = d.accesses[:0]
}

// checkThread validates a thread ID read just before br's position.
// Real threads are numbered from 0 and each has a ThreadStart event,
// so a valid ID is below the trace's total event count; parent
// additionally admits event.NoThread, the main thread's absent parent.
// The bound also keeps the detectors' per-thread slices, which are
// sized by the largest thread ID, proportional to the trace.
func (r *Reader) checkThread(br *byteReader, t int64, parent bool) error {
	if (t >= 0 && uint64(t) < r.total) || (parent && t == int64(event.NoThread)) {
		return nil
	}
	return errf(br.off(), "thread ID %d out of range (trace has %d events)", t, r.total)
}

// decodeSegment decodes segment i into d (which it resets first). All
// lockset and string IDs are validated against the trailer tables, and
// all thread IDs against the event count (see checkThread).
func (r *Reader) decodeSegment(i int, d *decodedSeg) error {
	d.reset()
	info := r.segs[i]
	// The index records exact per-segment counts, so the output
	// buffers can be sized once up front — no growslice (and no
	// 96-byte struct moves) in the decode loop. The counts are
	// cross-checked against the payload below, so a lying index
	// surfaces as a FormatError, not an over-allocation: NewReader
	// already bounded them against the file size.
	if uint64(cap(d.accesses)) < info.Events {
		d.accesses = make([]event.Access, 0, info.Events)
	}
	if uint64(cap(d.ops)) < info.Blocks {
		d.ops = make([]Op, 0, info.Blocks)
	}
	br := &byteReader{data: r.data[info.Off : info.Off+info.Len], base: int64(info.Off)}
	var events, blocks uint64
	for !br.done() {
		op, err := br.uvarint()
		if err != nil {
			return err
		}
		blocks++
		switch op {
		case opAccessBlock:
			thread, err := br.zigzag()
			if err != nil {
				return err
			}
			if err := r.checkThread(br, thread, false); err != nil {
				return err
			}
			lockID, err := br.uvarint()
			if err != nil {
				return err
			}
			if lockID >= uint64(len(r.locksets)) {
				return errf(br.off(), "lockset ID %d out of range (table has %d)", lockID, len(r.locksets))
			}
			count, err := br.uvarint()
			if err != nil {
				return err
			}
			if events > info.Events || count > info.Events-events {
				return errf(br.off(), "access block of %d events exceeds segment's remaining %d",
					count, info.Events-events)
			}
			start := len(d.accesses)
			var obj, slot, line, col int64
			data := br.data
			for n := uint64(0); n < count; n++ {
				var hdr, fileID uint64
				var dObj, dSlot, dLine, dCol int64
				// Fast path: a record is six varints, and with delta
				// encoding almost all of them are single-byte — test
				// all six with one bounds check and one OR, decode
				// them without the per-varint method calls.
				if p := br.pos; p+6 <= len(data) &&
					data[p]|data[p+1]|data[p+2]|data[p+3]|data[p+4]|data[p+5] < 0x80 {
					hdr = uint64(data[p])
					dObj = unzigzag(uint64(data[p+1]))
					dSlot = unzigzag(uint64(data[p+2]))
					fileID = uint64(data[p+3])
					dLine = unzigzag(uint64(data[p+4]))
					dCol = unzigzag(uint64(data[p+5]))
					br.pos = p + 6
				} else {
					var err error
					if hdr, err = br.uvarint(); err != nil {
						return err
					}
					if dObj, err = br.zigzag(); err != nil {
						return err
					}
					if dSlot, err = br.zigzag(); err != nil {
						return err
					}
					if fileID, err = br.uvarint(); err != nil {
						return err
					}
					if dLine, err = br.zigzag(); err != nil {
						return err
					}
					if dCol, err = br.zigzag(); err != nil {
						return err
					}
				}
				fieldID := hdr >> 1
				if fieldID >= uint64(len(r.strings)) {
					return errf(br.off(), "field-name string ID %d out of range (table has %d)", fieldID, len(r.strings))
				}
				if fileID >= uint64(len(r.strings)) {
					return errf(br.off(), "file string ID %d out of range (table has %d)", fileID, len(r.strings))
				}
				obj += dObj
				slot += dSlot
				line += dLine
				col += dCol
				d.accesses = append(d.accesses, event.Access{
					Loc:       event.Loc{Obj: event.ObjID(obj), Slot: int32(slot)},
					Pos:       token.Pos{File: r.strings[fileID], Line: int32(line), Col: int32(col)},
					FieldName: r.strings[fieldID],
					Thread:    event.ThreadID(thread),
					Kind:      event.Kind(hdr & 1),
				})
			}
			d.ops = append(d.ops, Op{
				Kind:    opAccessBlock,
				A:       thread,
				Lockset: event.LocksetID(lockID),
				Start:   start,
				N:       int(count),
			})
			events += count
		case opThreadStart, opJoin:
			a, err := br.zigzag()
			if err != nil {
				return err
			}
			b, err := br.zigzag()
			if err != nil {
				return err
			}
			if err := r.checkThread(br, a, false); err != nil {
				return err
			}
			if err := r.checkThread(br, b, op == opThreadStart); err != nil {
				return err
			}
			d.ops = append(d.ops, Op{Kind: uint8(op), A: a, B: b})
			events++
		case opThreadFinish:
			a, err := br.zigzag()
			if err != nil {
				return err
			}
			if err := r.checkThread(br, a, false); err != nil {
				return err
			}
			d.ops = append(d.ops, Op{Kind: uint8(op), A: a})
			events++
		case opMonEnter, opMonExit:
			t, err := br.zigzag()
			if err != nil {
				return err
			}
			if err := r.checkThread(br, t, false); err != nil {
				return err
			}
			lock, err := br.zigzag()
			if err != nil {
				return err
			}
			depth, err := br.zigzag()
			if err != nil {
				return err
			}
			d.ops = append(d.ops, Op{Kind: uint8(op), A: t, B: lock, Depth: int(depth)})
			events++
		default:
			return errf(br.off(), "unknown opcode %d", op)
		}
	}
	if events != info.Events || blocks != info.Blocks {
		return errf(int64(info.Off), "segment %d decodes to %d events in %d blocks; index says %d/%d",
			i, events, blocks, info.Events, info.Blocks)
	}
	return nil
}

// feed delivers one decoded segment to the sink in stream order.
// Access blocks go through AccessBatch when the sink supports it: a
// block is one thread's run under one lock environment, so the sink
// can resolve the lockset once per block. Batch slices are only valid
// during the call (the buffers are pooled), matching the BatchSink
// contract.
func feed(d *decodedSeg, sink event.Sink, batch event.BatchSink) {
	for _, op := range d.ops {
		switch op.Kind {
		case opAccessBlock:
			run := d.accesses[op.Start : op.Start+op.N]
			if batch != nil {
				batch.AccessBatch(run)
			} else {
				for _, a := range run {
					sink.Access(a)
				}
			}
		case opThreadStart:
			sink.ThreadStarted(event.ThreadID(op.A), event.ThreadID(op.B))
		case opThreadFinish:
			sink.ThreadFinished(event.ThreadID(op.A))
		case opJoin:
			sink.Joined(event.ThreadID(op.A), event.ThreadID(op.B))
		case opMonEnter:
			sink.MonitorEnter(event.ThreadID(op.A), event.ObjID(op.B), op.Depth)
		case opMonExit:
			sink.MonitorExit(event.ThreadID(op.A), event.ObjID(op.B), op.Depth)
		}
	}
}

// ReplayStats summarizes one replay pass.
type ReplayStats struct {
	// Events is every delivered event; Accesses the access subset.
	Events   uint64
	Accesses uint64
	// Segments is the number of segments decoded; Bytes the trace size.
	Segments int
	Bytes    int64
}

// Replay streams the recorded events into sink in their original
// order. parallel bounds the segment-decode workers (<= 0 selects
// GOMAXPROCS); delivery to the sink is always sequential and in
// segment order, so the sink observes exactly the recorded stream
// regardless of parallelism — decoding is what fans out, not
// delivery. A Reader may be replayed any number of times,
// concurrently if each call uses its own sink.
func (r *Reader) Replay(sink event.Sink, parallel int) (ReplayStats, error) {
	stats := ReplayStats{Bytes: r.Size()}
	batch, _ := sink.(event.BatchSink)
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > len(r.segs) {
		parallel = len(r.segs)
	}

	account := func(d *decodedSeg) {
		stats.Segments++
		stats.Events += uint64(len(d.ops)) // control ops…
		for _, op := range d.ops {
			if op.Kind == opAccessBlock {
				stats.Events-- // …the block op itself is not an event
				stats.Events += uint64(op.N)
				stats.Accesses += uint64(op.N)
			}
		}
	}

	if parallel <= 1 {
		d := segPool.Get().(*decodedSeg)
		defer segPool.Put(d)
		for i := range r.segs {
			if err := r.decodeSegment(i, d); err != nil {
				return stats, err
			}
			account(d)
			feed(d, sink, batch)
		}
		return stats, nil
	}

	// Parallel decode, ordered delivery: a bounded window of futures
	// keeps up to `parallel` segments decoding ahead of the feeder.
	type segRes struct {
		d   *decodedSeg
		err error
	}
	futures := make(chan chan segRes, parallel)
	go func() {
		sem := make(chan struct{}, parallel)
		for i := range r.segs {
			ch := make(chan segRes, 1)
			futures <- ch
			sem <- struct{}{}
			go func(i int, ch chan segRes) {
				defer func() { <-sem }()
				d := segPool.Get().(*decodedSeg)
				if err := r.decodeSegment(i, d); err != nil {
					segPool.Put(d)
					ch <- segRes{nil, err}
					return
				}
				ch <- segRes{d, nil}
			}(i, ch)
		}
		close(futures)
	}()

	var firstErr error
	for ch := range futures {
		res := <-ch
		if firstErr != nil {
			if res.d != nil {
				segPool.Put(res.d)
			}
			continue // drain remaining futures; decoders already run
		}
		if res.err != nil {
			firstErr = res.err
			continue
		}
		account(res.d)
		feed(res.d, sink, batch)
		segPool.Put(res.d)
	}
	return stats, firstErr
}

// String renders a short human-readable summary.
func (r *Reader) String() string {
	return fmt.Sprintf("mjtrace v%d: %d events, %d segments, %d locksets, %d strings, %d bytes",
		r.version, r.total, len(r.segs), len(r.locksets), len(r.strings), len(r.data))
}
