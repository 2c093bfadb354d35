// Command racedetd is the detection-as-a-service daemon: a persistent
// process that accepts compile+analyze jobs from many concurrent
// clients over a local HTTP API and runs each in an isolated,
// supervised detector session (see internal/service). A job may also
// upload a recorded binary trace (racedet -record prog.mjtrace)
// instead of source; the session then replays the trace through its
// detector without compiling or running anything — the daemon side of
// the record-once/analyze-many workflow.
//
//	racedetd -listen 127.0.0.1:7421 -factcache /var/cache/racedet
//
// Endpoints: POST /analyze, GET /healthz, GET /metrics.
//
// Exit codes:
//
//	0  clean drain: every in-flight job finished before the deadline
//	2  drain deadline exceeded: remaining jobs were counted aborted
//	3  usage / flag / listener error
//	4  forced exit on a second signal before the drain finished
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"racedet/internal/faultinject"
	"racedet/internal/service"
)

const (
	exitClean         = 0
	exitDrainDeadline = 2
	exitUsage         = 3
	exitForced        = 4
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("racedetd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen   = fs.String("listen", "127.0.0.1:7421", "TCP listen address (host:port; port 0 picks a free port)")
		socket   = fs.String("socket", "", "listen on a unix socket at this path instead of TCP")
		sessions = fs.Int("max-sessions", 0, "max concurrently running sessions (0 = GOMAXPROCS)")
		queue    = fs.Int("queue-depth", 0, "jobs allowed to wait for a slot before load-shedding (0 = default 16, negative = no queue)")
		jobTO    = fs.Duration("job-timeout", 0, "per-job wall-clock watchdog (0 = default 30s, negative = off)")
		livelock = fs.Int("livelock", 0, "per-job livelock watchdog window in scheduler slices (0 = default, negative = off)")
		retries  = fs.Int("retry-budget", 0, "session panic retries before degrading to the Eraser pass (0 = default 3)")
		backoff  = fs.Duration("retry-backoff", 0, "base of the exponential session retry backoff (0 = default 5ms)")
		factDir  = fs.String("factcache", "", "shared fact cache directory for warm compiles across sessions")
		inject   = fs.String("inject", "", "deterministic fault plan (testing), e.g. 'session-panic:job=2,times=1'")
		drainTO  = fs.Duration("drain-timeout", 30*time.Second, "max wait for in-flight jobs on SIGTERM before counting them aborted")
		batch    = fs.Int("batch", 0, "per-session event batch size (0 = default)")
		maxTrace = fs.Int("max-trace-bytes", 0, "max uploaded trace size for replay jobs (0 = default 8MiB, negative = request-body limit only)")
		sampleK  = fs.Int("sample-k", 0, "per-session adaptive throttling: demote an access site after K clean observations (0 = off; jobs may override)")
		sampleB  = fs.Float64("sample-budget", 0, "per-session adaptive throttling: target shipped-events ratio in (0,1] (0 = off; jobs may override)")
		stateDir = fs.String("state-dir", "", "durable state directory: admitted jobs are journaled to a WAL here and recovered after a crash")
		walSync  = fs.String("wal-sync", "always", "WAL durability: 'always' fsyncs every append, 'none' trusts the page cache")
		quiet    = fs.Bool("q", false, "suppress the per-job lifecycle log on stderr")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: racedetd [flags]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "racedetd: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return exitUsage
	}

	if *walSync != "always" && *walSync != "none" {
		fmt.Fprintf(stderr, "racedetd: -wal-sync: unknown mode %q (want 'always' or 'none')\n", *walSync)
		return exitUsage
	}
	if *sampleK < 0 {
		fmt.Fprintf(stderr, "racedetd: -sample-k must be >= 0 (got %d); 0 disables throttling\n", *sampleK)
		return exitUsage
	}
	if *sampleB < 0 || *sampleB > 1 {
		fmt.Fprintf(stderr, "racedetd: -sample-budget must be in [0, 1] (got %g); 0 disables the adaptive controller\n", *sampleB)
		return exitUsage
	}

	var plan *faultinject.Plan
	if *inject != "" {
		p, err := faultinject.Parse(*inject)
		if err != nil {
			fmt.Fprintf(stderr, "racedetd: -inject: %v\n", err)
			return exitUsage
		}
		plan = p
	}

	logw := io.Writer(stderr)
	if *quiet {
		logw = io.Discard
	}
	srv := service.New(service.Options{
		MaxSessions:    *sessions,
		QueueDepth:     *queue,
		JobTimeout:     *jobTO,
		LivelockWindow: *livelock,
		RetryBudget:    *retries,
		RetryBackoff:   *backoff,
		FactCacheDir:   *factDir,
		BatchSize:      *batch,
		MaxTraceBytes:  *maxTrace,
		SampleK:        *sampleK,
		SampleBudget:   *sampleB,
		StateDir:       *stateDir,
		WalSync:        *walSync,
		Faults:         plan,
		Log:            logw,
	})

	// Crash recovery runs to completion before the daemon accepts or
	// even listens for work: every job acknowledged by the previous
	// incarnation has a result again once the listening line prints.
	rec, err := srv.Recover()
	if err != nil {
		fmt.Fprintf(stderr, "racedetd: recover: %v\n", err)
		return exitUsage
	}
	if rec.Enabled {
		fmt.Fprintf(stderr, "racedetd: recovered state: replayed=%d completed=%d rerun=%d deduped=%d tail_truncated=%v\n",
			rec.Replayed, rec.Completed, rec.Rerun, rec.Deduped, rec.TailTruncated)
	}

	var (
		l   net.Listener
		url string
	)
	if *socket != "" {
		l, err = net.Listen("unix", *socket)
		url = "unix://" + *socket
	} else {
		l, err = net.Listen("tcp", *listen)
		if err == nil {
			url = "http://" + l.Addr().String()
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "racedetd: listen: %v\n", err)
		return exitUsage
	}

	// The one line tooling depends on: the resolved address (port 0 is
	// common in tests and CI smokes).
	fmt.Fprintf(stdout, "racedetd listening on %s\n", url)
	if f, ok := stdout.(interface{ Sync() error }); ok {
		f.Sync()
	}

	// First SIGTERM/SIGINT: graceful drain. Second: force exit 4.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	drained := make(chan service.DrainReport, 1)
	go func() {
		sig := <-sigCh
		fmt.Fprintf(stderr, "racedetd: %v: draining (up to %v)\n", sig, *drainTO)
		go func() { drained <- srv.Drain(*drainTO) }()
		sig = <-sigCh
		fmt.Fprintf(stderr, "racedetd: second %v: forcing exit\n", sig)
		srv.ForceClose()
		os.Exit(exitForced)
	}()

	if err := srv.Serve(l); err != nil {
		fmt.Fprintf(stderr, "racedetd: serve: %v\n", err)
		return exitUsage
	}
	// Serve only returns nil once Drain closed the listeners, so the
	// report is already (or imminently) available.
	rep := <-drained
	snap := srv.Metrics()
	fmt.Fprintf(stdout, "racedetd drained: clean=%v admitted=%d completed=%d failed=%d degraded=%d aborted=%d\n",
		rep.Clean, snap.JobsAdmitted, snap.JobsCompleted, snap.JobsFailed,
		snap.JobsDegraded, snap.JobsAbortedAtDrain)
	if !rep.Clean {
		return exitDrainDeadline
	}
	return exitClean
}
