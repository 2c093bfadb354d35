// Package deadlock implements the lock-order-graph potential-deadlock
// detector the paper lists as future work ("we plan to broaden the
// static/dynamic coanalysis approach to tackle other problems such as
// deadlock detection", §10), in the style of Goodlock.
//
// The detector observes the same runtime event stream as the race
// detectors. Whenever a thread acquires lock b while holding lock a,
// it records the edge a → b together with the acquiring thread and the
// gate locks held outside the pair. After the run, cycles in the
// lock-order graph are potential deadlocks; a cycle is suppressed when
// (a) all of its edges were created by one thread (a single thread
// cannot deadlock with itself under reentrant monitors), or (b) all
// edges share a common gate lock that serializes the two acquisition
// sequences.
package deadlock

import (
	"fmt"
	"sort"
	"strings"

	"racedet/internal/rt/event"
)

// edge is one observed ordered acquisition a → b.
type edge struct {
	from, to event.ObjID
}

// edgeInfo accumulates the contexts in which an edge was observed.
type edgeInfo struct {
	threads map[event.ThreadID]struct{}
	// gates is the intersection over all observations of the locks
	// held besides from/to — candidates for a serializing gate.
	gates    event.Lockset
	observed bool
}

// Report is one potential deadlock: a cycle in the lock-order graph.
type Report struct {
	// Cycle lists the locks in acquisition-cycle order (len >= 2).
	Cycle []event.ObjID
	// Threads are the distinct threads contributing edges.
	Threads []event.ThreadID
}

func (r Report) String() string {
	locks := make([]string, len(r.Cycle))
	for i, l := range r.Cycle {
		locks[i] = l.String()
	}
	threads := make([]string, len(r.Threads))
	for i, t := range r.Threads {
		threads[i] = t.String()
	}
	return fmt.Sprintf("POTENTIAL DEADLOCK: lock cycle %s (threads %s)",
		strings.Join(locks, " -> ")+" -> "+locks[0], strings.Join(threads, ","))
}

// Detector builds the lock-order graph from the event stream.
type Detector struct {
	locks *event.LockTracker
	edges map[edge]*edgeInfo
}

var _ event.Sink = (*Detector)(nil)

// New returns an empty deadlock detector.
func New() *Detector {
	return &Detector{
		locks: event.NewLockTracker(),
		edges: make(map[edge]*edgeInfo),
	}
}

// ThreadStarted implements event.Sink. Join pseudolocks never
// participate in deadlocks (they are not real monitors), so the
// tracker here runs without them.
func (d *Detector) ThreadStarted(child, parent event.ThreadID) {}

// ThreadFinished implements event.Sink.
func (d *Detector) ThreadFinished(t event.ThreadID) {}

// Joined implements event.Sink.
func (d *Detector) Joined(joiner, joinee event.ThreadID) {}

// MonitorEnter implements event.Sink: records lock-order edges.
func (d *Detector) MonitorEnter(t event.ThreadID, lock event.ObjID, depth int) {
	if depth != 1 {
		return
	}
	held := d.locks.Stack(t)
	for _, prev := range held {
		e := edge{from: prev, to: lock}
		info := d.edges[e]
		if info == nil {
			info = &edgeInfo{threads: make(map[event.ThreadID]struct{})}
			d.edges[e] = info
		}
		info.threads[t] = struct{}{}
		// Gate locks: everything held except the edge's endpoints.
		var gates []event.ObjID
		for _, g := range held {
			if g != prev && g != lock {
				gates = append(gates, g)
			}
		}
		gl := event.NewLockset(gates...)
		if !info.observed {
			info.gates = gl
			info.observed = true
		} else {
			info.gates = info.gates.Intersect(gl)
		}
	}
	d.locks.MonitorEnter(t, lock, depth)
}

// MonitorExit implements event.Sink.
func (d *Detector) MonitorExit(t event.ThreadID, lock event.ObjID, depth int) {
	d.locks.MonitorExit(t, lock, depth)
}

// Access implements event.Sink (ignored; deadlock analysis only needs
// monitor events).
func (d *Detector) Access(a event.Access) {}

// Reports finds the cycles in the lock-order graph and returns the
// potential deadlocks after gate-lock and single-thread suppression.
// Each cycle is reported once, in canonical rotation.
func (d *Detector) Reports() []Report {
	// Adjacency list with deterministic ordering.
	adj := make(map[event.ObjID][]event.ObjID)
	for e := range d.edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for _, tos := range adj {
		sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
	}
	nodes := make([]event.ObjID, 0, len(adj))
	for n := range adj {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	seen := map[string]bool{}
	var reports []Report

	// Bounded DFS cycle enumeration: lock-order graphs are tiny (one
	// node per lock object that ever nested).
	var path []event.ObjID
	onPath := map[event.ObjID]bool{}
	var dfs func(start, cur event.ObjID, depth int)
	dfs = func(start, cur event.ObjID, depth int) {
		if depth > 8 {
			return
		}
		for _, next := range adj[cur] {
			if next == start && len(path) >= 2 {
				cycle := append([]event.ObjID(nil), path...)
				if rep, ok := d.classify(cycle); ok {
					key := canonical(cycle)
					if !seen[key] {
						seen[key] = true
						reports = append(reports, rep)
					}
				}
				continue
			}
			if onPath[next] || next < start {
				// next < start: that cycle will be found from its own
				// smallest node, keeping enumeration canonical.
				continue
			}
			onPath[next] = true
			path = append(path, next)
			dfs(start, next, depth+1)
			path = path[:len(path)-1]
			delete(onPath, next)
		}
	}
	for _, n := range nodes {
		path = path[:0]
		onPath = map[event.ObjID]bool{n: true}
		path = append(path, n)
		dfs(n, n, 0)
	}
	return reports
}

// classify applies the suppression rules to a candidate cycle.
func (d *Detector) classify(cycle []event.ObjID) (Report, bool) {
	// Collect the edges of the cycle.
	infos := make([]*edgeInfo, len(cycle))
	for i := range cycle {
		from := cycle[i]
		to := cycle[(i+1)%len(cycle)]
		info := d.edges[edge{from, to}]
		if info == nil {
			return Report{}, false
		}
		infos[i] = info
	}

	// Single-thread suppression: if every edge can be attributed to
	// one common thread, the cycle cannot deadlock (reentrancy).
	common := map[event.ThreadID]struct{}{}
	for t := range infos[0].threads {
		common[t] = struct{}{}
	}
	for _, info := range infos[1:] {
		for t := range common {
			if _, ok := info.threads[t]; !ok {
				delete(common, t)
			}
		}
	}
	multiThreaded := false
	if len(common) == 0 {
		multiThreaded = true
	} else {
		// A common thread exists; the cycle is real only if some edge
		// was ALSO taken by a different thread.
		for _, info := range infos {
			if len(info.threads) > 1 {
				multiThreaded = true
			}
		}
	}
	if !multiThreaded {
		return Report{}, false
	}

	// Gate-lock suppression: a lock held around every edge serializes
	// the acquisition sequences.
	gates := infos[0].gates
	for _, info := range infos[1:] {
		gates = gates.Intersect(info.gates)
	}
	if len(gates) > 0 {
		return Report{}, false
	}

	// Gather the contributing threads for the report.
	tset := map[event.ThreadID]struct{}{}
	for _, info := range infos {
		for t := range info.threads {
			tset[t] = struct{}{}
		}
	}
	threads := make([]event.ThreadID, 0, len(tset))
	for t := range tset {
		threads = append(threads, t)
	}
	sort.Slice(threads, func(i, j int) bool { return threads[i] < threads[j] })
	return Report{Cycle: cycle, Threads: threads}, true
}

// canonical renders a cycle rotation-independently.
func canonical(cycle []event.ObjID) string {
	// Rotate so the smallest lock leads.
	min := 0
	for i, l := range cycle {
		if l < cycle[min] {
			min = i
		}
	}
	parts := make([]string, len(cycle))
	for i := range cycle {
		parts[i] = cycle[(min+i)%len(cycle)].String()
	}
	return strings.Join(parts, ">")
}
