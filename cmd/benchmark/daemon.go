package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"racedet/internal/service"
)

// daemonRate is the open-loop arrival rate in jobs per second. It is
// about a quarter of the closed-loop capacity measured when the
// benchmark was defined (README.md has the numbers): light enough that
// the fastest verdict of each job kind is an unloaded one, which keeps
// best_op_ms_geomean steady. It is frozen so that every later change is
// measured at the same offered load.
const daemonRate = 25.0

// daemonClients bounds the goroutines that generate daemon load, and so
// the client connections open at once: one per CPU of the reference
// machine.
const daemonClients = 2

// openShare is the share of a daemon run spent in the open loop; the
// rest measures closed-loop capacity.
const openShare = 0.6

type daemonWorkload struct {
	progs  []program
	kinds  []string // job kind names, indexed by job.kind
	traces [][]byte
	dir    string

	srv       *service.Server
	served    chan error
	transport *http.Transport
	client    *service.Client

	open   *jobStream
	mu     sync.Mutex // guards closed
	closed *jobStream
}

// setupDaemon records the trace jobs' traces, starts an in-process
// daemon with its default sessions on a loopback listener, and warms
// its fact cache with one job per program, as a long-running daemon
// would be.
func setupDaemon(seed int64, progs []program, outDir string) (st state, err error) {
	traces, err := recordTraces(seed, "daemon.record", progs)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(outDir, "daemon-")
	if err != nil {
		return nil, err
	}
	// WAL records are encoded and written, but not fsync'd: the
	// latency of a shared disk would otherwise dominate the numbers.
	srv := service.New(service.Options{
		FactCacheDir: filepath.Join(dir, "facts"),
		StateDir:     filepath.Join(dir, "state"),
		WalSync:      "none",
	})
	if _, err := srv.Recover(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("daemon recover: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(0)
		os.RemoveAll(dir)
		return nil, err
	}
	transport := &http.Transport{MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients}
	kinds := make([]string, jobKinds(len(progs)))
	for k := range kinds {
		kinds[k] = kindName(k, progs)
	}
	w := &daemonWorkload{
		progs:     progs,
		kinds:     kinds,
		traces:    traces,
		dir:       dir,
		srv:       srv,
		served:    make(chan error, 1),
		transport: transport,
		client:    &service.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: transport}},
		open:      newJobStream(newStream(seed, "daemon.open"), len(progs)),
		closed:    newJobStream(newStream(seed, "daemon.closed"), len(progs)),
	}
	go func() { w.served <- srv.Serve(ln) }()
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	warm := newStream(seed, "daemon.warm")
	for i := range progs {
		if _, err := w.do(job{Program: i, Seed: scheduleSeed(warm)}, nil, 0, 0); err != nil {
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	return w, nil
}

func (w *daemonWorkload) close() {
	w.srv.Drain(30 * time.Second)
	<-w.served
	w.transport.CloseIdleConnections()
	os.RemoveAll(w.dir)
}

// do submits one job and checks its verdict.
func (w *daemonWorkload) do(j job, tr *tracer, op, parent int64) (*service.JobResult, error) {
	p := w.progs[j.Program]
	req := service.JobRequest{File: p.file}
	switch {
	case j.Trace:
		req.Trace = w.traces[j.Program]
	case j.Edited:
		req.Source, req.Seed = editedSource(p.source, j.EditID), j.Seed
	default:
		req.Source, req.Seed = p.source, j.Seed
	}
	s := tr.start("service.Client.Analyze", p.name, op, parent)
	res, err := w.client.Analyze(req)
	s.end()
	if err != nil {
		return nil, err
	}
	return res, p.checkJob(res)
}

func (w *daemonWorkload) run(d time.Duration, tr *tracer) *outcome {
	out := newOutcome(w.kinds)
	out.service = &serviceOutcome{verdictMs: newSamples(w.kinds...)}
	alloc0 := heapAllocBytes()
	openD := time.Duration(float64(d) * openShare)
	w.openLoop(openD, tr, out)
	w.closedLoop(d-openD, tr, out)
	out.allocBytes = heapAllocBytes() - alloc0
	return out
}

// openLoop offers Poisson arrivals at daemonRate for d. Each job is
// timed from its due time, so a job that waits for one of the
// daemonClients connections counts that wait as latency.
func (w *daemonWorkload) openLoop(d time.Duration, tr *tracer, out *outcome) {
	jobs := arrivals(w.open, daemonRate, d)
	before, errBefore := w.client.Metrics()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				due := start.Add(j.Due)
				time.Sleep(time.Until(due))
				sent := time.Now()
				op := tr.nextOp()
				s := tr.start("job", w.progs[j.Program].name, op, 0)
				res, err := w.do(j, tr, op, s.id())
				s.end()
				out.recordJob(w.kinds[j.kind(len(w.progs))], due, sent, time.Now(), res, err)
			}
		}()
	}
	wg.Wait()
	after, errAfter := w.client.Metrics()
	if errBefore != nil || errAfter != nil {
		out.count(fmt.Errorf("scraping /metrics: %v %v", errBefore, errAfter))
		return
	}
	sourceJobs := (after["jobs_admitted"] - after["trace_jobs"]) - (before["jobs_admitted"] - before["trace_jobs"])
	if sourceJobs > 0 {
		out.service.factHitRatio = float64(after["factcache_program_hits"]-before["factcache_program_hits"]) / float64(sourceJobs)
	}
	out.service.queueHighWater = after["queue_high_water"]
}

// closedLoop keeps daemonClients clients busy for d: the daemon's
// capacity.
func (w *daemonWorkload) closedLoop(d time.Duration, tr *tracer, out *outcome) {
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				w.mu.Lock()
				j := w.closed.next()
				w.mu.Unlock()
				op := tr.nextOp()
				t0 := time.Now()
				s := tr.start("job", w.progs[j.Program].name, op, 0)
				_, err := w.do(j, tr, op, s.id())
				s.end()
				out.recordClosed(w.kinds[j.kind(len(w.progs))], time.Since(t0), err)
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	out.throughputOps = done.Load()
	out.throughputElapsed = time.Since(start)
}
