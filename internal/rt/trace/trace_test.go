package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"racedet/internal/lang/token"
	"racedet/internal/rt/event"
)

// collector renders every sink callback to one line, giving tests a
// byte-level view of an event stream for exact comparison.
type collector struct {
	lines []string
}

func (c *collector) add(format string, args ...any) {
	c.lines = append(c.lines, fmt.Sprintf(format, args...))
}

func (c *collector) ThreadStarted(child, parent event.ThreadID) { c.add("S %d %d", child, parent) }
func (c *collector) ThreadFinished(t event.ThreadID)            { c.add("F %d", t) }
func (c *collector) Joined(joiner, joinee event.ThreadID)       { c.add("J %d %d", joiner, joinee) }
func (c *collector) MonitorEnter(t event.ThreadID, lock event.ObjID, depth int) {
	c.add("+ %d %d %d", t, lock, depth)
}
func (c *collector) MonitorExit(t event.ThreadID, lock event.ObjID, depth int) {
	c.add("- %d %d %d", t, lock, depth)
}
func (c *collector) Access(a event.Access) {
	c.add("A t=%d %v obj=%d slot=%d field=%q pos=%s locks=%v lockid=%d",
		a.Thread, a.Kind, a.Loc.Obj, a.Loc.Slot, a.FieldName, a.Pos, a.Locks, a.LockID)
}

// drive emits a deterministic synthetic event stream: several threads,
// nested monitors, joins, pseudolock-shaped negative object IDs, and
// accesses spanning multiple files, fields, and slot kinds (instance,
// array, static). Returns the number of events emitted.
func drive(s event.Sink, accesses int) int {
	rng := rand.New(rand.NewSource(42))
	files := []string{"a.mj", "b.mj", ""}
	fields := []string{"Point.x", "Point.y", "[]", "Counter.n", ""}
	events := 0
	s.ThreadStarted(0, event.NoThread)
	events++
	for t := event.ThreadID(1); t <= 3; t++ {
		s.ThreadStarted(t, 0)
		events++
	}
	threads := []event.ThreadID{0, 1, 2, 3}
	depth := map[event.ThreadID]int{}
	for i := 0; i < accesses; i++ {
		t := threads[rng.Intn(len(threads))]
		switch rng.Intn(10) {
		case 0:
			lock := event.ObjID(rng.Intn(5) + 100)
			depth[t]++
			s.MonitorEnter(t, lock, depth[t])
			events++
		case 1:
			if depth[t] > 0 {
				lock := event.ObjID(rng.Intn(5) + 100)
				depth[t]--
				s.MonitorExit(t, lock, depth[t])
				events++
			}
		default:
			s.Access(event.Access{
				Loc: event.Loc{
					Obj:  event.ObjID(rng.Intn(1000) - 4), // includes negative pseudolock-range IDs
					Slot: []int32{0, 1, 7, event.ArraySlot, event.StaticSlot(2)}[rng.Intn(5)],
				},
				Pos: token.Pos{
					File: files[rng.Intn(len(files))],
					Line: int32(rng.Intn(500)),
					Col:  int32(rng.Intn(80)),
				},
				FieldName: fields[rng.Intn(len(fields))],
				Thread:    t,
				Kind:      event.Kind(rng.Intn(2)),
			})
			events++
		}
	}
	for t := event.ThreadID(3); t >= 1; t-- {
		s.ThreadFinished(t)
		s.Joined(0, t)
		events += 2
	}
	s.ThreadFinished(0)
	events++
	return events
}

// record drives the synthetic stream through a Writer and returns the
// finalized trace bytes.
func record(t *testing.T, segTarget, accesses int) ([]byte, int) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriterSize(&buf, segTarget)
	n := drive(w, accesses)
	if err := w.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	return buf.Bytes(), n
}

func TestRoundTrip(t *testing.T) {
	data, n := record(t, 512, 5000)

	var want collector
	drive(&want, 5000)

	r, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if r.Segments() < 2 {
		t.Fatalf("want a multi-segment trace with a 512-byte target, got %d segments", r.Segments())
	}
	if r.TotalEvents() != uint64(n) {
		t.Fatalf("TotalEvents = %d, want %d", r.TotalEvents(), n)
	}

	for _, parallel := range []int{1, 4} {
		var got collector
		stats, err := r.Replay(&got, parallel)
		if err != nil {
			t.Fatalf("Replay(parallel=%d): %v", parallel, err)
		}
		if stats.Events != uint64(n) {
			t.Errorf("parallel=%d: stats.Events = %d, want %d", parallel, stats.Events, n)
		}
		if stats.Segments != r.Segments() {
			t.Errorf("parallel=%d: stats.Segments = %d, want %d", parallel, stats.Segments, r.Segments())
		}
		if len(got.lines) != len(want.lines) {
			t.Fatalf("parallel=%d: %d events replayed, want %d", parallel, len(got.lines), len(want.lines))
		}
		for i := range want.lines {
			if got.lines[i] != want.lines[i] {
				t.Fatalf("parallel=%d: event %d:\n got %s\nwant %s", parallel, i, got.lines[i], want.lines[i])
			}
		}
	}
}

func TestLocksetTableRecorded(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.ThreadStarted(0, event.NoThread)
	w.MonitorEnter(0, 100, 1)
	w.Access(event.Access{Loc: event.Loc{Obj: 1, Slot: 0}, Thread: 0, Kind: event.Write})
	w.MonitorExit(0, 100, 0)
	w.ThreadFinished(0)
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	// The access ran under {pseudolock(0), lock 100}; that set must be
	// in the table and referenced by the block.
	found := false
	for id := 0; id < r.Locksets(); id++ {
		ls := r.Lockset(event.LocksetID(id))
		if ls.Contains(100) && ls.Contains(event.PseudoLock(0)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("lockset table %d entries, none contains {S0, o100}", r.Locksets())
	}
}

func TestDescriptionTable(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.ThreadStarted(0, event.NoThread)
	w.Access(event.Access{Loc: event.Loc{Obj: 3}, Thread: 0, Kind: event.Write})
	w.Access(event.Access{Loc: event.Loc{Obj: 11}, Thread: 0, Kind: event.Read})
	w.Access(event.Access{Loc: event.Loc{Obj: 3}, Thread: 0, Kind: event.Read}) // dup: one table entry
	w.SetDescribeObj(func(o event.ObjID) string { return fmt.Sprintf("obj#%d", o) })
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.DescribeObj(3); got != "obj#3" {
		t.Fatalf("DescribeObj(3) = %q", got)
	}
	if got := r.DescribeObj(11); got != "obj#11" {
		t.Fatalf("DescribeObj(11) = %q", got)
	}
	if got := r.DescribeObj(99); got != "" {
		t.Fatalf("DescribeObj(99) = %q, want empty", got)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(buf.Bytes())
	if err != nil {
		t.Fatalf("NewReader on empty trace: %v", err)
	}
	if r.Segments() != 0 || r.TotalEvents() != 0 {
		t.Fatalf("empty trace: %d segments, %d events", r.Segments(), r.TotalEvents())
	}
	var c collector
	stats, err := r.Replay(&c, 4)
	if err != nil || stats.Events != 0 || len(c.lines) != 0 {
		t.Fatalf("replaying empty trace: stats=%+v err=%v events=%d", stats, err, len(c.lines))
	}
}

func TestFinalizeIdempotent(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	drive(w, 100)
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	size := buf.Len()
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != size {
		t.Fatalf("second Finalize grew the trace: %d -> %d bytes", size, buf.Len())
	}
	// Post-finalize events must be dropped, not appended.
	w.Access(event.Access{Thread: 0})
	w.ThreadFinished(0)
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != size {
		t.Fatalf("post-Finalize events grew the trace: %d -> %d bytes", size, buf.Len())
	}
}

// failingWriter errors after n bytes.
type failingWriter struct{ n int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errors.New("disk full")
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriterErrorSticky(t *testing.T) {
	w := NewWriterSize(&failingWriter{n: 100}, 64)
	drive(w, 2000)
	if err := w.Finalize(); err == nil {
		t.Fatal("Finalize on a failing writer returned nil")
	}
	if w.Err() == nil {
		t.Fatal("Err() is nil after a write failure")
	}
}

func TestOpenFile(t *testing.T) {
	data, n := record(t, 0, 2000)
	path := filepath.Join(t.TempDir(), "t.mjtrace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenFile(path)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer r.Close()
	if r.TotalEvents() != uint64(n) {
		t.Fatalf("TotalEvents = %d, want %d", r.TotalEvents(), n)
	}
	var got, want collector
	drive(&want, 2000)
	if _, err := r.Replay(&got, 0); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(got.lines) != len(want.lines) {
		t.Fatalf("replayed %d events, want %d", len(got.lines), len(want.lines))
	}
	for i := range want.lines {
		if got.lines[i] != want.lines[i] {
			t.Fatalf("event %d:\n got %s\nwant %s", i, got.lines[i], want.lines[i])
		}
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestOpenFileMissing(t *testing.T) {
	if _, err := OpenFile(filepath.Join(t.TempDir(), "nope.mjtrace")); err == nil {
		t.Fatal("OpenFile on a missing file returned nil error")
	}
}
