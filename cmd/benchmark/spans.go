package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans stay
// in memory during the run and are written out when it ends.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"` // 0 for a root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Program  string `json:"program,omitempty"`
	Op       int64  `json:"op"`
	StartNs  int64  `json:"start_ns"` // from the start of the run
	EndNs    int64  `json:"end_ns"`
	// AllocBytes is the heap allocated while the span was open,
	// children included.
	AllocBytes uint64 `json:"alloc_bytes"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer collects spans. A nil *tracer records nothing, which is how
// the untraced run passes through the same code at no cost.
type tracer struct {
	workload string
	t0       time.Time

	ops atomic.Int64 // op ids, unique across the run

	mu     sync.Mutex
	nextID int64
	spans  []span
}

func newTracer(workload string) *tracer { return &tracer{workload: workload, t0: time.Now()} }

// nextOp returns a fresh op id (0 from a nil tracer).
func (t *tracer) nextOp() int64 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t      *tracer
	s      span
	alloc0 uint64
}

func (t *tracer) start(name, program string, op, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	o := &openSpan{t: t, s: span{ID: id, Parent: parent, Name: name, Workload: t.workload, Program: program, Op: op}}
	o.alloc0 = heapAllocBytes()
	o.s.StartNs = int64(time.Since(t.t0))
	return o
}

// id is the span's identifier, 0 for a nil span, so children of an
// untraced call pass a root parent.
func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end() span {
	if o == nil {
		return span{}
	}
	o.s.EndNs = int64(time.Since(o.t.t0))
	o.s.AllocBytes = heapAllocBytes() - o.alloc0
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
	return o.s
}

// timed runs fn inside a span and returns the span.
func (t *tracer) timed(name, program string, op, parent int64, fn func()) span {
	o := t.start(name, program, op, parent)
	fn()
	return o.end()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) map[int64]time.Duration {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, k int) bool { return kids[i].StartNs < kids[k].StartNs })
		covered, upTo := int64(0), s.StartNs
		for _, c := range kids {
			lo, hi := max(c.StartNs, upTo), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[s.ID] = s.dur() - time.Duration(covered)
	}
	return out
}

// writeSpans writes the spans as a JSON array.
func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printSpanSummary prints, per span name, the count, total time and
// total self time.
func printSpanSummary(w io.Writer, spans []span) {
	self := selfTimes(spans)
	type row struct {
		name        string
		n           int
		total, self time.Duration
	}
	rows := map[string]*row{}
	var names []string
	for _, s := range spans {
		r, ok := rows[s.Name]
		if !ok {
			r = &row{name: s.Name}
			rows[s.Name] = r
			names = append(names, s.Name)
		}
		r.n++
		r.total += s.dur()
		r.self += self[s.ID]
	}
	sort.Slice(names, func(i, k int) bool { return rows[names[i]].self > rows[names[k]].self })
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		r := rows[n]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", r.name, r.n, ms(r.total), ms(r.self))
	}
}
