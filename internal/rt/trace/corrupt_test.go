package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"racedet/internal/rt/event"
)

// craft hand-builds a minimal one-segment trace: one access block with
// one record, a two-entry lockset table (∅ and {5}), and a two-entry
// string table ("" and "f"). The ID arguments are written verbatim
// into the block, so out-of-range values produce a structurally valid
// trace whose payload references a missing table entry — exactly the
// corruption decodeSegment must reject.
func craft(lockID, fieldID, fileID uint64) []byte {
	var seg []byte
	seg = putUvarint(seg, opAccessBlock)
	seg = putZigzag(seg, 0) // thread 0
	seg = putUvarint(seg, lockID)
	seg = putUvarint(seg, 1) // one access
	seg = putUvarint(seg, fieldID<<1|1)
	seg = putZigzag(seg, 7) // obj
	seg = putZigzag(seg, 1) // slot
	seg = putUvarint(seg, fileID)
	seg = putZigzag(seg, 3) // line
	seg = putZigzag(seg, 2) // col

	var out []byte
	out = append(out, Magic[:]...)
	out = putUvarint(out, Version)
	out = putUvarint(out, uint64(len(seg)))
	out = putUvarint(out, 1) // events
	out = putUvarint(out, 1) // blocks
	payloadOff := uint64(len(out))
	out = append(out, seg...)

	locksetsOff := uint64(len(out))
	out = putUvarint(out, 2)
	out = putUvarint(out, 0) // lockset 0: ∅
	out = putUvarint(out, 1) // lockset 1: {5}
	out = putZigzag(out, 5)

	stringsOff := uint64(len(out))
	out = putUvarint(out, 2)
	out = putUvarint(out, 0) // ""
	out = putUvarint(out, 1) // "f"
	out = append(out, 'f')

	descsOff := uint64(len(out))
	out = putUvarint(out, 0) // no object descriptions

	indexOff := uint64(len(out))
	out = putUvarint(out, 1)
	out = putUvarint(out, payloadOff)
	out = putUvarint(out, uint64(len(seg)))
	out = putUvarint(out, 1)
	out = putUvarint(out, 1)

	out = binary.LittleEndian.AppendUint64(out, locksetsOff)
	out = binary.LittleEndian.AppendUint64(out, stringsOff)
	out = binary.LittleEndian.AppendUint64(out, descsOff)
	out = binary.LittleEndian.AppendUint64(out, indexOff)
	out = binary.LittleEndian.AppendUint64(out, 1) // total events
	out = append(out, EndMagic[:]...)
	return out
}

func TestCraftedTraceValid(t *testing.T) {
	r, err := NewReader(craft(1, 1, 1))
	if err != nil {
		t.Fatalf("NewReader on crafted trace: %v", err)
	}
	var c collector
	stats, err := r.Replay(&c, 1)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if stats.Events != 1 || stats.Accesses != 1 || len(c.lines) != 1 {
		t.Fatalf("stats=%+v, %d lines", stats, len(c.lines))
	}
	want := `A t=0 WRITE obj=7 slot=1 field="f" pos=f:3:2 locks={} lockid=0`
	if c.lines[0] != want {
		t.Fatalf("decoded access:\n got %s\nwant %s", c.lines[0], want)
	}
	if !r.Lockset(1).Contains(5) {
		t.Fatal("lockset 1 does not contain lock 5")
	}
}

func replayErr(t *testing.T, data []byte) error {
	t.Helper()
	r, err := NewReader(data)
	if err != nil {
		return err
	}
	for _, parallel := range []int{1, 4} {
		if _, rerr := r.Replay(event.NullSink{}, parallel); rerr != nil {
			err = rerr
		}
	}
	return err
}

func TestOutOfRangeLocksetID(t *testing.T) {
	err := replayErr(t, craft(9, 1, 1))
	if err == nil {
		t.Fatal("out-of-range lockset ID accepted")
	}
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("error is %T, want *FormatError: %v", err, err)
	}
	if !strings.Contains(err.Error(), "lockset ID 9 out of range") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestOutOfRangeFieldStringID(t *testing.T) {
	err := replayErr(t, craft(1, 9, 1))
	if err == nil || !strings.Contains(err.Error(), "string ID 9 out of range") {
		t.Fatalf("want field string-ID error, got: %v", err)
	}
}

func TestOutOfRangeFileStringID(t *testing.T) {
	err := replayErr(t, craft(1, 1, 9))
	if err == nil || !strings.Contains(err.Error(), "string ID 9 out of range") {
		t.Fatalf("want file string-ID error, got: %v", err)
	}
}

// TestOutOfRangeThreadIDs byte-patches the thread operand of a
// recorded control event and access block. A negative thread (other
// than a ThreadStart's NoThread parent) used to index the detectors'
// per-thread slices and panic; a huge one sized them to the ID. Both
// must be rejected as a *FormatError at decode time.
func TestOutOfRangeThreadIDs(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.ThreadStarted(0, event.NoThread)
	w.ThreadStarted(5, 0)
	for i := 0; i < 10; i++ {
		w.Access(event.Access{Loc: event.Loc{Obj: 1}, Thread: 5, Kind: event.Write})
	}
	if err := w.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	data := buf.Bytes()
	if err := replayErr(t, data); err != nil {
		t.Fatalf("unpatched trace rejected: %v", err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	seg := r.SegmentInfo(0)
	payload := int(seg.Off)

	cases := []struct {
		name    string
		op      byte  // opcode whose thread operand is patched
		thread  int64 // replacement thread ID (single-byte zigzag)
		wantErr string
	}{
		{"access block thread -5", opAccessBlock, -5, "thread ID -5 out of range"},
		{"access block thread 63", opAccessBlock, 63, "thread ID 63 out of range"},
		{"thread start child -5", opThreadStart, -5, "thread ID -5 out of range"},
		{"thread start child 63", opThreadStart, 63, "thread ID 63 out of range"},
	}
	for _, c := range cases {
		// The first occurrence of (opcode, zigzag 5) in the payload is
		// the event's own thread operand: ThreadStart(0,-1) comes
		// first, then ThreadStart(5,0), then the access block.
		at := bytes.Index(data[payload:payload+int(seg.Len)], []byte{c.op, byte(zigzag(5))})
		if at < 0 {
			t.Fatalf("%s: thread operand not found", c.name)
		}
		bad := append([]byte(nil), data...)
		bad[payload+at+1] = byte(zigzag(c.thread))
		err := replayErr(t, bad)
		var fe *FormatError
		if !errors.As(err, &fe) || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: want *FormatError %q, got %T %v", c.name, c.wantErr, err, err)
		}
	}
}

func TestBadMagic(t *testing.T) {
	data, _ := record(t, 0, 200)
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	_, err := NewReader(bad)
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("want bad-magic error, got: %v", err)
	}
}

func TestBadVersion(t *testing.T) {
	data, _ := record(t, 0, 200)
	bad := append([]byte(nil), data...)
	bad[len(Magic)] = 0x7F // version 127
	_, err := NewReader(bad)
	if err == nil || !strings.Contains(err.Error(), "unsupported trace version 127") {
		t.Fatalf("want version error, got: %v", err)
	}
}

// TestTruncations checks that EVERY proper prefix of a valid trace is
// rejected with a structured error — the trailer is what marks a trace
// complete, so any truncation must read as "unfinalized", never panic,
// never decode garbage.
func TestTruncations(t *testing.T) {
	data, _ := record(t, 256, 400)
	for n := 0; n < len(data); n++ {
		_, err := NewReader(data[:n])
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("truncation to %d: error is %T, want *FormatError: %v", n, err, err)
		}
	}
}

// TestByteFlips corrupts every byte of a valid trace in turn and
// checks that open + replay never panic. A flip may surface as a
// *FormatError at any layer — or decode cleanly when it lands in
// string-table content — but it must always be handled.
func TestByteFlips(t *testing.T) {
	data, _ := record(t, 256, 400)
	bad := make([]byte, len(data))
	for i := range data {
		copy(bad, data)
		bad[i] ^= 0xFF
		r, err := NewReader(bad)
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("flip at %d: NewReader error is %T, want *FormatError: %v", i, err, err)
			}
			continue
		}
		if _, err := r.Replay(event.NullSink{}, 1); err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("flip at %d: Replay error is %T, want *FormatError: %v", i, err, err)
			}
		}
	}
}

func TestFormatErrorRendering(t *testing.T) {
	if got := errf(42, "boom").Error(); !strings.Contains(got, "at byte 42") || !strings.Contains(got, "boom") {
		t.Fatalf("FormatError with offset renders %q", got)
	}
	if got := errf(-1, "boom").Error(); strings.Contains(got, "at byte") {
		t.Fatalf("FormatError without offset renders %q", got)
	}
}
