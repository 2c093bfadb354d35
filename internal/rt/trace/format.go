// Package trace defines the compact, versioned, mmap-able binary
// event-trace format (.mjtrace) and its record/replay engines: the
// "record once, analyze many" decoupling of §1/§2.6 of the paper.
//
// A trace captures the complete runtime event stream of one execution
// — thread lifecycle, monitor operations, and field/array accesses —
// exactly as the interpreter emitted it. Replaying the stream through
// a fresh detector therefore reproduces
// the live run's verdicts byte for byte, without the interpreter in
// the loop: the detectors reconstruct their lock environments from the
// recorded monitor/lifecycle events precisely as they do live.
//
// # Wire format (version 1)
//
//	header   magic "mjtrace\x00", uvarint version
//	body     segment*            (independently decodable chunks)
//	tables   lockset, string, object-description tables  (at Finalize)
//	index    per-segment offset/length/event counts
//	trailer  fixed 48 bytes: table offsets, totals, end magic "ecartjm\x00"
//
// Each segment is length-prefixed (uvarint payload length, event
// count, block count) and contains per-thread blocks. All varint
// delta-encoder state resets at segment boundaries, so segments decode
// independently — the parallel replay engine decodes N segments
// concurrently and feeds them downstream in order. A block is either a
// single control event (thread start/finish/join, monitor enter/exit)
// or a run of accesses by one thread under one lock environment, which
// replay hands to a batch-aware sink (event.BatchSink) in one call.
//
// Access records are delta-encoded: object and slot as zigzag varint
// deltas against the previous access of the block, source positions as
// a string-table file ID plus zigzag line/column deltas, field names
// as string-table IDs. Locksets are interned during recording
// (event.Interner) and each access block carries its lockset's dense
// ID; the table of interned locksets is serialized once in the
// trailer section. Replay does not need the recorded locksets —
// detectors re-derive them from the control events, which is what
// makes replayed verdicts identical by construction — but they make
// every block's lock environment available to segment-local consumers
// (the planned predictive layer) without a full replay.
//
// The object-description table maps each accessed object ID to its
// report rendering (e.g. "class Singleton", captured from the
// interpreter's heap at the end of the recording run), so replayed
// race reports are byte-identical to live ones — descriptions are the
// one report ingredient detectors cannot re-derive from the event
// stream alone.
//
// The trailer is written by Finalize. A truncated or unfinalized file
// is detected by its missing end magic and rejected with a structured
// *FormatError — never a panic — as is any out-of-range lockset or
// string ID, overlapping segment bound, or count mismatch.
package trace

import (
	"encoding/binary"
	"fmt"
)

// Format constants.
var (
	// Magic opens every trace file.
	Magic = [8]byte{'m', 'j', 't', 'r', 'a', 'c', 'e', 0}
	// EndMagic closes a finalized trace; its absence marks truncation.
	EndMagic = [8]byte{'e', 'c', 'a', 'r', 't', 'j', 'm', 0}
)

// Version is the current format version. Readers reject anything newer.
const Version = 1

// trailerSize is the fixed trailer: locksetsOff, stringsOff, descsOff,
// indexOff, totalEvents (uint64 little-endian each) + EndMagic.
const trailerSize = 5*8 + 8

// Block opcodes. opAccessBlock heads a run of accesses by one thread
// under one lock environment; the rest are single control events.
const (
	opAccessBlock = iota + 1
	opThreadStart
	opThreadFinish
	opJoin
	opMonEnter
	opMonExit
)

// FormatError is the structured decode failure: a malformed,
// truncated, or internally inconsistent trace. Every reader path
// returns it instead of panicking, so corrupt input is an ordinary
// error (CLI exit 3), never a crash.
type FormatError struct {
	// Off is the byte offset the failure was detected at (-1 when the
	// failure is not tied to one offset, e.g. a count mismatch).
	Off int64
	// Msg describes the defect.
	Msg string
}

func (e *FormatError) Error() string {
	if e.Off < 0 {
		return "trace: " + e.Msg
	}
	return fmt.Sprintf("trace: %s (at byte %d)", e.Msg, e.Off)
}

func errf(off int64, format string, args ...any) error {
	return &FormatError{Off: off, Msg: fmt.Sprintf(format, args...)}
}

// zigzag maps signed to unsigned so small negative deltas stay short
// varints (thread IDs, pseudolock object IDs, position deltas).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// putUvarint appends a varint to buf.
func putUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// putZigzag appends a zigzag varint to buf.
func putZigzag(buf []byte, v int64) []byte {
	return binary.AppendUvarint(buf, zigzag(v))
}

// byteReader walks a byte slice with bounds-checked varint reads. All
// failures surface as *FormatError carrying the absolute offset (base
// + local position).
type byteReader struct {
	data []byte
	pos  int
	base int64 // absolute file offset of data[0], for diagnostics
}

func (r *byteReader) off() int64 { return r.base + int64(r.pos) }

func (r *byteReader) uvarint() (uint64, error) {
	// Delta encoding makes single-byte varints the overwhelmingly
	// common case; decode them without the binary.Uvarint loop. This
	// is the replay engine's innermost read (six per access record),
	// so the fast path is kept small enough to inline — the multi-byte
	// and error cases live in uvarintSlow.
	if r.pos < len(r.data) {
		if b := r.data[r.pos]; b < 0x80 {
			r.pos++
			return uint64(b), nil
		}
	}
	return r.uvarintSlow()
}

//go:noinline
func (r *byteReader) uvarintSlow() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, errf(r.off(), "truncated or malformed varint")
	}
	r.pos += n
	return v, nil
}

func (r *byteReader) zigzag() (int64, error) {
	if r.pos < len(r.data) {
		if b := r.data[r.pos]; b < 0x80 {
			r.pos++
			return int64(b>>1) ^ -int64(b&1), nil
		}
	}
	u, err := r.uvarintSlow()
	if err != nil {
		return 0, err
	}
	return unzigzag(u), nil
}

func (r *byteReader) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(r.data)-r.pos) {
		return nil, errf(r.off(), "truncated: need %d bytes, have %d", n, len(r.data)-r.pos)
	}
	b := r.data[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b, nil
}

func (r *byteReader) done() bool { return r.pos >= len(r.data) }
