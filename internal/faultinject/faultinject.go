// Package faultinject provides deterministic, seedable fault injection
// for the racedetd daemon's robustness tests and its -inject flag.
//
// A Plan is a set of faults that fire at exact points in a run —
// "panic inside the first admitted job's session twice", "fail the
// WAL's third write" — so a failing recovery scenario replays exactly.
// All trigger state is atomic because the hooks run on every session
// goroutine concurrently.
//
// The textual spec syntax (-inject, semicolon-separated). Session-level
// faults target the daemon (internal/service); job indices count
// admitted jobs from 1 and job=* matches every job:
//
//	session-panic:job=J[,times=T]  panic inside job J's session runner
//	                               (T firings, default 1; the service
//	                               retries and eventually degrades)
//	client-disconnect:job=J        drop job J's client mid-request; the
//	                               session must still complete
//	slow-client:job=J,delay=D      stall job J's request body by D
//	admission-full:times=T         report the admission queue full T
//	                               times (load-shed with retry-after)
//
// Disk-level faults target durable write paths (the racedetd WAL in
// internal/service/durable). The disk= selector names the stream
// ("wal"; * matches any); write and sync operations are counted per
// stream from 1, so at=N pins a fault to an exact operation and a
// failing crash-recovery scenario replays exactly:
//
//	enospc:disk=S,times=T      fail T writes of stream S with ENOSPC
//	shortwrite:disk=S,at=N     tear stream S's N-th write: half the
//	                           payload reaches the disk, then an error
//	fsyncfail:disk=S,times=T   fail T fsyncs of stream S
//	crash:disk=S,at=N          kill the whole process (SIGKILL, no
//	                           deferred cleanup) at stream S's N-th
//	                           write — the kill-9 harness
package faultinject

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// anyJob is the wildcard job selector of the session-level faults.
const anyJob = 0

// Session-level fault types (racedetd daemon; see internal/service).

type sessionPanicFault struct {
	job  uint64 // anyJob = every job
	left atomic.Int64
}

type disconnectFault struct {
	job  uint64
	done atomic.Bool
}

type slowClientFault struct {
	job   uint64
	delay time.Duration
}

type admissionFault struct {
	left atomic.Int64
}

// Disk-level fault types (durable write paths; see
// internal/service/durable). disk = "*" matches every stream.

type enospcFault struct {
	disk string
	left atomic.Int64
}

type shortWriteFault struct {
	disk string
	at   uint64
	done atomic.Bool
}

type fsyncFault struct {
	disk string
	left atomic.Int64
}

type crashFault struct {
	disk string
	at   uint64
}

// Plan is a deterministic set of faults; safe for concurrent use.
type Plan struct {
	sessPanics  []*sessionPanicFault
	disconnects []*disconnectFault
	slowClients []*slowClientFault
	admissions  []*admissionFault

	enospcs     []*enospcFault
	shortWrites []*shortWriteFault
	fsyncFails  []*fsyncFault
	crashes     []*crashFault

	// Per-stream operation counters for the at= selectors; the maps are
	// keyed by the stream tag so independent streams count independently.
	diskWrites sync.Map // string -> *atomic.Uint64
	diskSyncs  sync.Map // string -> *atomic.Uint64

	fired atomic.Uint64
}

func matchJob(sel, job uint64) bool { return sel == anyJob || sel == job }

func matchDisk(sel, disk string) bool { return sel == "*" || sel == disk }

func diskOp(m *sync.Map, tag string) uint64 {
	v, _ := m.LoadOrStore(tag, new(atomic.Uint64))
	return v.(*atomic.Uint64).Add(1)
}

// SessionEvent implements the daemon's session hook: it panics while a
// matching session-panic fault has firings left. The service runs every
// session under a recover barrier, so the panic is contained, counted,
// retried, and eventually degraded — exactly the path the differential
// tests exercise.
func (p *Plan) SessionEvent(job uint64) {
	for _, f := range p.sessPanics {
		if matchJob(f.job, job) && f.left.Add(-1) >= 0 {
			p.fired.Add(1)
			panic(fmt.Sprintf("faultinject: injected session panic on job %d", job))
		}
	}
}

// ClientDisconnect reports whether the client of the given job should
// be treated as having dropped the connection mid-request (one-shot).
func (p *Plan) ClientDisconnect(job uint64) bool {
	for _, f := range p.disconnects {
		if matchJob(f.job, job) && f.done.CompareAndSwap(false, true) {
			p.fired.Add(1)
			return true
		}
	}
	return false
}

// SlowClient returns how long the given job's request handling should
// stall to simulate a slow client (0 = no matching fault).
func (p *Plan) SlowClient(job uint64) time.Duration {
	for _, f := range p.slowClients {
		if matchJob(f.job, job) {
			p.fired.Add(1)
			return f.delay
		}
	}
	return 0
}

// AdmissionFull implements the daemon's admission hook: true while an
// admission-full fault has firings left, forcing the load-shed path.
func (p *Plan) AdmissionFull() bool {
	for _, f := range p.admissions {
		if f.left.Add(-1) >= 0 {
			p.fired.Add(1)
			return true
		}
	}
	return false
}

// DiskWrite implements the durable-write hook: it is consulted once
// before every write of the tagged stream, counting operations from 1.
// A non-nil error means the write must fail; partial true additionally
// asks the caller to tear the write (persist roughly half the payload
// before failing), modeling a torn page. A matching crash fault does
// not return: it SIGKILLs the process at exactly this operation, so no
// deferred cleanup, rollback, or response can run — the only honest
// model of kill -9.
func (p *Plan) DiskWrite(tag string) (partial bool, err error) {
	n := diskOp(&p.diskWrites, tag)
	for _, f := range p.crashes {
		if matchDisk(f.disk, tag) && n == f.at {
			p.fired.Add(1)
			proc, _ := os.FindProcess(os.Getpid())
			proc.Kill() // SIGKILL: never returns
		}
	}
	for _, f := range p.shortWrites {
		if matchDisk(f.disk, tag) && n == f.at && f.done.CompareAndSwap(false, true) {
			p.fired.Add(1)
			return true, fmt.Errorf("faultinject: injected short write on %s op %d", tag, n)
		}
	}
	for _, f := range p.enospcs {
		if matchDisk(f.disk, tag) && f.left.Add(-1) >= 0 {
			p.fired.Add(1)
			return false, fmt.Errorf("faultinject: injected ENOSPC on %s op %d: %w", tag, n, syscall.ENOSPC)
		}
	}
	return false, nil
}

// DiskSync implements the fsync hook of durable streams: a non-nil
// error while a matching fsyncfail fault has firings left.
func (p *Plan) DiskSync(tag string) error {
	n := diskOp(&p.diskSyncs, tag)
	for _, f := range p.fsyncFails {
		if matchDisk(f.disk, tag) && f.left.Add(-1) >= 0 {
			p.fired.Add(1)
			return fmt.Errorf("faultinject: injected fsync failure on %s op %d", tag, n)
		}
	}
	return nil
}

// Fired returns how many injections have triggered so far. Tests use
// it to assert the plan actually disturbed the run (a panic planned
// past the end of the stream never fires).
func (p *Plan) Fired() uint64 { return p.fired.Load() }

// HasDiskFaults reports whether the plan contains durable-write faults
// (which the session hooks never consult).
func (p *Plan) HasDiskFaults() bool {
	return len(p.enospcs) > 0 || len(p.shortWrites) > 0 ||
		len(p.fsyncFails) > 0 || len(p.crashes) > 0
}

// HasSessionFaults reports whether the plan contains daemon-level
// faults.
func (p *Plan) HasSessionFaults() bool {
	return len(p.sessPanics) > 0 || len(p.disconnects) > 0 ||
		len(p.slowClients) > 0 || len(p.admissions) > 0
}

// Parse builds a Plan from the textual spec syntax documented at the
// top of the package. An empty spec yields an empty plan.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, argstr, _ := strings.Cut(part, ":")
		args, err := parseArgs(argstr)
		if err != nil {
			return nil, fmt.Errorf("fault %q: %w", part, err)
		}
		switch kind {
		case "session-panic":
			job, err := args.job()
			if err != nil {
				return nil, fmt.Errorf("fault %q: %w", part, err)
			}
			times := uint64(1)
			if _, ok := args["times"]; ok {
				if times, err = args.uintArg("times"); err != nil {
					return nil, fmt.Errorf("fault %q: %w", part, err)
				}
			}
			f := &sessionPanicFault{job: job}
			f.left.Store(int64(times))
			p.sessPanics = append(p.sessPanics, f)
		case "client-disconnect":
			job, err := args.job()
			if err != nil {
				return nil, fmt.Errorf("fault %q: %w", part, err)
			}
			p.disconnects = append(p.disconnects, &disconnectFault{job: job})
		case "slow-client":
			job, err := args.job()
			if err != nil {
				return nil, fmt.Errorf("fault %q: %w", part, err)
			}
			d, err := time.ParseDuration(args["delay"])
			if err != nil {
				return nil, fmt.Errorf("fault %q: bad delay: %w", part, err)
			}
			p.slowClients = append(p.slowClients, &slowClientFault{job: job, delay: d})
		case "admission-full":
			times, err := args.uintArg("times")
			if err != nil {
				return nil, fmt.Errorf("fault %q: %w", part, err)
			}
			f := &admissionFault{}
			f.left.Store(int64(times))
			p.admissions = append(p.admissions, f)
		case "enospc":
			times, err := args.uintArg("times")
			if err != nil {
				return nil, fmt.Errorf("fault %q: %w", part, err)
			}
			f := &enospcFault{disk: args.disk()}
			f.left.Store(int64(times))
			p.enospcs = append(p.enospcs, f)
		case "shortwrite":
			at, err := args.uintArg("at")
			if err != nil {
				return nil, fmt.Errorf("fault %q: %w", part, err)
			}
			p.shortWrites = append(p.shortWrites, &shortWriteFault{disk: args.disk(), at: at})
		case "fsyncfail":
			times, err := args.uintArg("times")
			if err != nil {
				return nil, fmt.Errorf("fault %q: %w", part, err)
			}
			f := &fsyncFault{disk: args.disk()}
			f.left.Store(int64(times))
			p.fsyncFails = append(p.fsyncFails, f)
		case "crash":
			at, err := args.uintArg("at")
			if err != nil {
				return nil, fmt.Errorf("fault %q: %w", part, err)
			}
			p.crashes = append(p.crashes, &crashFault{disk: args.disk(), at: at})
		default:
			return nil, fmt.Errorf("fault %q: unknown kind %q", part, kind)
		}
	}
	return p, nil
}

type faultArgs map[string]string

func parseArgs(s string) (faultArgs, error) {
	args := faultArgs{}
	if strings.TrimSpace(s) == "" {
		return args, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || k == "" || v == "" {
			return nil, fmt.Errorf("bad argument %q (want key=value)", kv)
		}
		args[k] = v
	}
	return args, nil
}

// job parses the job= selector of session-level faults: a 1-based
// admitted-job index, or * / any for every job.
func (a faultArgs) job() (uint64, error) {
	v, ok := a["job"]
	if !ok || v == "*" || v == "any" {
		return anyJob, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("bad job %q (want positive index, * or any)", v)
	}
	return n, nil
}

// disk parses the disk= selector of durable-write faults: a stream tag
// such as "wal", defaulting to * (any stream) when absent.
func (a faultArgs) disk() string {
	v, ok := a["disk"]
	if !ok || v == "any" {
		return "*"
	}
	return v
}

func (a faultArgs) uintArg(key string) (uint64, error) {
	v, ok := a[key]
	if !ok {
		return 0, fmt.Errorf("missing %s=", key)
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil || n == 0 {
		return 0, fmt.Errorf("bad %s %q (want positive integer)", key, v)
	}
	return n, nil
}
