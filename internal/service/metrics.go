package service

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
)

// metrics is the daemon's live counter set. Every field is atomic so
// session goroutines, the admission path, and the /metrics scraper
// never contend on a lock; Snapshot() gives tests and the exporter a
// consistent-enough view (individual counters are exact, cross-counter
// sums can be mid-transition only while jobs are still in flight).
type metrics struct {
	// Admission.
	jobsAdmitted         atomic.Uint64 // sessions that got a slot
	jobsShed             atomic.Uint64 // load-shed with Retry-After (queue full)
	jobsRejectedDraining atomic.Uint64 // refused because the daemon is draining

	// Terminal job states. Every admitted job ends in exactly one of
	// these (or jobsAbortedAtDrain); the drain tests assert the sum.
	jobsCompleted      atomic.Uint64 // clean analysis (racy or not)
	jobsFailed         atomic.Uint64 // compile error, bad request, runtime failure
	jobsDegraded       atomic.Uint64 // retry budget exhausted, Eraser-only verdict
	jobsAbortedAtDrain atomic.Uint64 // still running when the drain deadline hit
	jobsDeduped        atomic.Uint64 // served a stored result for a repeated idempotency key

	// Durability (the -state-dir WAL; see internal/service/durable).
	// WAL-level counters (records, append errors, fsync high-water)
	// live in the store itself and are merged in by Server.Metrics.
	jobsRecovered   atomic.Uint64 // admitted-but-incomplete jobs re-run at startup
	factWriteErrors atomic.Uint64 // fact-cache stores that degraded to cache-off

	// Session robustness.
	sessionPanics  atomic.Uint64 // contained panics inside session runners
	sessionRetries atomic.Uint64 // retry attempts after contained panics
	watchdogFires  atomic.Uint64 // per-job wall-clock watchdog expiries
	livelockFires  atomic.Uint64 // per-job livelock detections

	// Client behavior.
	clientDisconnects atomic.Uint64 // jobs whose client vanished mid-request
	slowClientStalls  atomic.Uint64 // injected slow-client stalls honored

	// Queueing gauges.
	sessionsActive atomic.Int64
	sessionsPeak   atomic.Int64
	queueWaiting   atomic.Int64
	queueHighWater atomic.Int64

	// Detection outcomes.
	racesReported atomic.Uint64
	traceJobs     atomic.Uint64 // admitted jobs replaying an uploaded trace

	// Shared fact cache (aggregated across sessions).
	factProgramHits atomic.Uint64
	factFnHits      atomic.Uint64
	factFnMisses    atomic.Uint64

	// Adaptive throttling, aggregated across all sessions' runs. Per
	// run the filter accounts for every observed event exactly once:
	// observed == shipped + cache hits + owner skips + suppressed, so
	// events_suppressed here is work the trie never had to do.
	eventsShipped    atomic.Uint64
	eventsSuppressed atomic.Uint64
	sitesDemoted     atomic.Uint64
	sitesRearmed     atomic.Uint64

	// Static lock-discipline priors, aggregated across all sessions'
	// sampled runs that enabled them.
	priorHighSites     atomic.Uint64
	priorLowSites      atomic.Uint64
	priorFastDemotions atomic.Uint64

	draining atomic.Bool
}

// maxInt64 raises a gauge's high-water mark without locking.
func maxInt64(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot is a point-in-time copy of the daemon's counters, exposed
// for tests and the /metrics endpoint. Field names match the exported
// metric names (snake_case, racedetd_ prefix).
type Snapshot struct {
	JobsAdmitted         uint64
	JobsShed             uint64
	JobsRejectedDraining uint64
	JobsCompleted        uint64
	JobsFailed           uint64
	JobsDegraded         uint64
	JobsAbortedAtDrain   uint64
	JobsDeduped          uint64

	// Durability. The Wal* gauges mirror the live WAL store; they are
	// zero when the daemon runs without -state-dir.
	JobsRecovered        uint64
	WalRecords           uint64
	WalCorruptTailTrunc  uint64
	WalAppendErrors      uint64
	WalFsyncMaxNs        int64
	FactcacheWriteErrors uint64

	SessionPanics  uint64
	SessionRetries uint64
	WatchdogFires  uint64
	LivelockFires  uint64

	ClientDisconnects uint64
	SlowClientStalls  uint64

	SessionsActive int64
	SessionsPeak   int64
	QueueWaiting   int64
	QueueHighWater int64

	RacesReported uint64
	TraceJobs     uint64

	FactProgramHits uint64
	FactFnHits      uint64
	FactFnMisses    uint64

	EventsShipped    uint64
	EventsSuppressed uint64
	SitesDemoted     uint64
	SitesRearmed     uint64

	PriorHighSites     uint64
	PriorLowSites      uint64
	PriorFastDemotions uint64

	Draining bool
}

// Terminal is the number of admitted jobs that reached a terminal
// state. A drained daemon must satisfy Terminal == JobsAdmitted: no
// admitted job may ever be dropped without a counted outcome. A
// deduplicated job (stored result served for a repeated idempotency
// key) is terminal too — it was admitted, occupied a slot, and ended.
func (s Snapshot) Terminal() uint64 {
	return s.JobsCompleted + s.JobsFailed + s.JobsDegraded + s.JobsAbortedAtDrain + s.JobsDeduped
}

func (m *metrics) snapshot() Snapshot {
	return Snapshot{
		JobsAdmitted:         m.jobsAdmitted.Load(),
		JobsShed:             m.jobsShed.Load(),
		JobsRejectedDraining: m.jobsRejectedDraining.Load(),
		JobsCompleted:        m.jobsCompleted.Load(),
		JobsFailed:           m.jobsFailed.Load(),
		JobsDegraded:         m.jobsDegraded.Load(),
		JobsAbortedAtDrain:   m.jobsAbortedAtDrain.Load(),
		JobsDeduped:          m.jobsDeduped.Load(),
		JobsRecovered:        m.jobsRecovered.Load(),
		FactcacheWriteErrors: m.factWriteErrors.Load(),
		SessionPanics:        m.sessionPanics.Load(),
		SessionRetries:       m.sessionRetries.Load(),
		WatchdogFires:        m.watchdogFires.Load(),
		LivelockFires:        m.livelockFires.Load(),
		ClientDisconnects:    m.clientDisconnects.Load(),
		SlowClientStalls:     m.slowClientStalls.Load(),
		SessionsActive:       m.sessionsActive.Load(),
		SessionsPeak:         m.sessionsPeak.Load(),
		QueueWaiting:         m.queueWaiting.Load(),
		QueueHighWater:       m.queueHighWater.Load(),
		RacesReported:        m.racesReported.Load(),
		TraceJobs:            m.traceJobs.Load(),
		FactProgramHits:      m.factProgramHits.Load(),
		FactFnHits:           m.factFnHits.Load(),
		FactFnMisses:         m.factFnMisses.Load(),
		EventsShipped:        m.eventsShipped.Load(),
		EventsSuppressed:     m.eventsSuppressed.Load(),
		SitesDemoted:         m.sitesDemoted.Load(),
		SitesRearmed:         m.sitesRearmed.Load(),
		PriorHighSites:       m.priorHighSites.Load(),
		PriorLowSites:        m.priorLowSites.Load(),
		PriorFastDemotions:   m.priorFastDemotions.Load(),
		Draining:             m.draining.Load(),
	}
}

// WriteTo renders the snapshot in the Prometheus text exposition
// style: one "racedetd_<name> <value>" line per counter, sorted by
// name so scrapes are byte-stable for a stable counter state.
func (s Snapshot) WriteTo(w io.Writer) (int64, error) {
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	lines := map[string]int64{
		"jobs_admitted":                int64(s.JobsAdmitted),
		"jobs_shed":                    int64(s.JobsShed),
		"jobs_rejected_draining":       int64(s.JobsRejectedDraining),
		"jobs_completed":               int64(s.JobsCompleted),
		"jobs_failed":                  int64(s.JobsFailed),
		"jobs_degraded":                int64(s.JobsDegraded),
		"jobs_aborted_at_drain":        int64(s.JobsAbortedAtDrain),
		"jobs_deduped":                 int64(s.JobsDeduped),
		"jobs_recovered":               int64(s.JobsRecovered),
		"wal_records":                  int64(s.WalRecords),
		"wal_corrupt_tail_truncations": int64(s.WalCorruptTailTrunc),
		"wal_append_errors":            int64(s.WalAppendErrors),
		"wal_fsync_max_ns":             s.WalFsyncMaxNs,
		"factcache_write_errors":       int64(s.FactcacheWriteErrors),
		"session_panics":               int64(s.SessionPanics),
		"session_retries":              int64(s.SessionRetries),
		"watchdog_fires":               int64(s.WatchdogFires),
		"livelock_fires":               int64(s.LivelockFires),
		"client_disconnects":           int64(s.ClientDisconnects),
		"slow_client_stalls":           int64(s.SlowClientStalls),
		"sessions_active":              s.SessionsActive,
		"sessions_peak":                s.SessionsPeak,
		"queue_waiting":                s.QueueWaiting,
		"queue_high_water":             s.QueueHighWater,
		"races_reported":               int64(s.RacesReported),
		"trace_jobs":                   int64(s.TraceJobs),
		"factcache_program_hits":       int64(s.FactProgramHits),
		"factcache_fn_hits":            int64(s.FactFnHits),
		"factcache_fn_misses":          int64(s.FactFnMisses),
		"events_shipped":               int64(s.EventsShipped),
		"events_suppressed":            int64(s.EventsSuppressed),
		"sites_demoted":                int64(s.SitesDemoted),
		"sites_rearmed":                int64(s.SitesRearmed),
		"prior_high_sites":             int64(s.PriorHighSites),
		"prior_low_sites":              int64(s.PriorLowSites),
		"prior_fast_demotions":         int64(s.PriorFastDemotions),
		"draining":                     int64(b(s.Draining)),
	}
	names := make([]string, 0, len(lines))
	for n := range lines {
		names = append(names, n)
	}
	sort.Strings(names)
	var total int64
	for _, n := range names {
		nn, err := fmt.Fprintf(w, "racedetd_%s %d\n", n, lines[n])
		total += int64(nn)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
