// Adaptive per-site throttling: the sampled access pipeline.
//
// The decision procedure runs synchronously, in event order, so a live
// sampled run and a replay of its (unsampled) recorded trace ship the
// same event stream (pinned by the corpus differentials).
//
// Per access at an ARMED site: the normal pipeline runs (cache →
// ownership → trie) and the outcome is recorded as a site observation;
// K consecutive observations with no intervening re-arm demote the
// site. Every shipped access — armed or stub — is recorded in the
// per-location shipped history and inserted into the per-thread cache
// (the unsampled pipeline caches every delivered access; the sampled
// one must too, or recurring racy-shaped traffic would re-ship on
// every repeat).
//
// Per access at a DEMOTED site, in order:
//
//  1. the location carries an armed marker (set by the ownership
//     table's contact callback) → re-arm the site and run the armed
//     pipeline;
//  2. otherwise run the ownership filter (its state must evolve
//     exactly as in the unsampled run — it is the re-arm signal):
//     - owned→shared transition: the first cross-thread contact is
//     never suppressed — re-arm and deliver (the Contact callback
//     has already re-armed every other site that touched the
//     location and armed the location itself);
//     - absorbed (still owned): identical to the unsampled pipeline,
//     counted as an owner skip;
//     - forwarded but not tracked as shared (bounded-table overflow,
//     born-shared): never suppressed — the unsampled run ships every
//     such access and overflow locations emit no contact signal;
//     - shared and suppressible (see sitestate.Table.Touch): suppress
//     and remember the touch;
//     - shared and racy-shaped: the site stays demoted and the access
//     rides the cache — a hit is absorbed exactly as in the
//     unsampled pipeline, a miss ships and is cached. No re-arm is
//     needed: shipped history only grows, so the location keeps
//     refusing suppression and the forwarded recurrences complete
//     any race pair in the trie.
//
// Throttling therefore suppresses two provably-redundant classes:
// repeat traffic that cannot complete a race pair (read-read sharing,
// sole-toucher traffic — judged against both suppressed and shipped
// history), and all traffic on locations whose shipped history already
// proves a race report (see shipEntry.proven). Stable (recurring)
// races survive; the residual one-shot blind spot is documented in
// sitestate and docs/performance.md.
package detector

import (
	"racedet/internal/rt/event"
	"racedet/internal/rt/ownership"
)

// sampledAccess is the per-access pipeline when throttling is on
// (d.sites != nil). It never mutates *a.
func (d *Detector) sampledAccess(a *event.Access) {
	d.stats.Accesses++
	loc := a.Loc
	if d.opts.FieldsMerged && loc.Slot >= event.ArraySlot {
		loc.Slot = 0
	}
	t := a.Thread
	id := d.sites.SiteID(a.Pos, a.Kind)
	wr := a.Kind == event.Write

	if d.sites.Demoted(id) {
		switch {
		case d.sites.ConsumeArmed(loc):
			d.sites.Rearm(id)
		default:
			// Counting-only stub: ownership runs, the trie does not.
			forward, becameShared := d.owner.Filter(t, loc)
			switch {
			case becameShared:
				if !d.opts.NoCache {
					d.cache.EvictLocation(loc)
				}
				d.sites.Rearm(id)
				d.sites.ConsumeArmed(loc) // Contact armed it; this is the ship
				d.shipFromStub(a, loc, t, wr)
			case !forward:
				d.stats.OwnerSkips++
				d.sites.Skipped()
			case d.owner.StateOf(loc) != ownership.Shared:
				d.shipFromStub(a, loc, t, wr)
			case d.sites.Touch(id, loc, t, wr):
				d.sites.Suppress()
			default:
				// Racy-shaped against suppressed or shipped history: the
				// location is permanently unsuppressible (the shipped bits
				// only grow), so the site stays demoted and repeats ride
				// the cache exactly as in the unsampled pipeline. No
				// re-arm: the forwarded event itself completes the pair.
				if !d.opts.NoCache && d.cache.Lookup(t, loc, a.Kind) {
					d.stats.CacheHits++
					d.sites.Skipped()
					return
				}
				d.shipFromStub(a, loc, t, wr)
			}
			return
		}
	}

	// Armed pipeline: cache → ownership → trie, outcome observed.
	if !d.opts.NoCache && d.cache.Lookup(t, loc, a.Kind) {
		d.stats.CacheHits++
		d.sites.Observe(id, false)
		return
	}
	forward, becameShared := d.owner.Filter(t, loc)
	if becameShared && !d.opts.NoCache {
		d.cache.EvictLocation(loc)
	}
	if !forward {
		d.stats.OwnerSkips++
		if !d.opts.NoCache {
			top, ok := d.locks.Top(t)
			d.cache.Insert(t, loc, a.Kind, top, ok)
		}
		d.sites.Observe(id, false)
		return
	}
	d.sites.RecordShip(loc, t, wr, len(a.Locks) == 0)
	d.ship(*a, loc)
	if !d.opts.NoCache {
		top, ok := d.locks.Top(t)
		d.cache.Insert(t, loc, a.Kind, top, ok)
	}
	d.sites.Observe(id, true)
}

// shipFromStub forwards an access the demoted stub may not suppress:
// record it in the shipped history, deliver it to the trie, and insert
// it into the per-thread cache (the unsampled pipeline caches every
// delivered access; the stub must too, or recurring racy-shaped
// traffic re-ships on every repeat).
func (d *Detector) shipFromStub(a *event.Access, loc event.Loc, t event.ThreadID, wr bool) {
	d.sites.RecordShip(loc, t, wr, len(a.Locks) == 0)
	d.ship(*a, loc)
	if !d.opts.NoCache {
		top, ok := d.locks.Top(t)
		d.cache.Insert(t, loc, a.Kind, top, ok)
	}
	d.sites.ForcedShip()
}
