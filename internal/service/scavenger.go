package service

import (
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"sync"
	"time"

	"tap25d"
	"tap25d/internal/metrics"
	"tap25d/internal/obs"
	"tap25d/internal/placer"
)

// scavenger reclaims jobs whose workers died or wedged: it scans the
// non-terminal records, and any running job whose lease heartbeat deadline has
// passed is taken over under an incremented fencing epoch and re-queued (with
// exponential backoff) — or failed terminally once its retry budget is spent,
// or retired as canceled if a durable cancel marker arrived meanwhile. Every
// worker runs one, so recovery needs no distinguished process: whichever
// survivor sweeps first wins the reclaim race (serialized by the O_EXCL lease
// acquire), and the rest skip.
type scavenger struct {
	queue    *queue
	leaseDir string
	workerID string
	ttl      time.Duration
	budget   int           // crash retries before terminal failure
	backoff  time.Duration // first re-dispatch delay; doubles per retry
	backoffM time.Duration // backoff cap
	obs      *tap25d.Observer
	log      *slog.Logger
	count    func(f func(c *metrics.Counters))
	// publish forwards a reclaim event into the job's SSE stream (nil for
	// standalone workers without a hub).
	publish func(jobID string, e tap25d.RunEvent)
	// onFinal runs when a reclaim drove the job terminal (retry budget spent,
	// or canceled).
	onFinal func(j *Job)

	mu        sync.Mutex
	lastSweep time.Time
}

// maybeSweep runs a sweep if at least every has passed since the last one.
func (sc *scavenger) maybeSweep(now time.Time, every time.Duration) {
	sc.mu.Lock()
	due := now.Sub(sc.lastSweep) >= every
	if due {
		sc.lastSweep = now
	}
	sc.mu.Unlock()
	if due {
		sc.sweep(now)
	}
}

// sweep reconciles every non-terminal job against its lease. It returns the
// number of jobs reclaimed (the server's boot sweep reports it as a gauge).
func (sc *scavenger) sweep(now time.Time) int {
	sc.queue.rescan()
	reclaimed := 0
	for _, j := range sc.queue.List() {
		if j.Terminal() {
			continue
		}
		l, err := readLease(sc.leaseDir, j.ID)
		switch {
		case err == nil && !l.expired(now):
			// Live lease: the holder owns the job, whatever the record says.
			continue
		case err == nil || errors.Is(err, placer.ErrCheckpointCorrupt):
			// Expired (or torn) lease. Clear it; for running jobs, reclaim.
			removeExpiredLease(sc.leaseDir, j.ID)
			if j.State == StateRunning && sc.reclaim(j, now) {
				reclaimed++
			}
		case errors.Is(err, fs.ErrNotExist):
			// No lease at all. Queued jobs simply await a claim. A running
			// job with no lease is a worker that died between markRunning
			// and its crash — or a lease file lost with its directory entry.
			// Grant it one full TTL of grace from its start time before
			// presuming death, in case the claimer is mid-acquire.
			if j.State == StateRunning && j.StartedAt != nil &&
				now.Sub(*j.StartedAt) > sc.ttl+sc.ttl/2 {
				if sc.reclaim(j, now) {
					reclaimed++
				}
			}
		default:
			sc.log.Warn("lease unreadable during sweep", "job_id", j.ID, "error", err)
		}
	}
	return reclaimed
}

// reclaim takes over one expired running job: acquire its lease at the next
// fencing epoch (losing the O_EXCL race to a peer scavenger — or to the
// revenant worker itself — means someone else owns recovery now), re-verify
// the record, then route the job to queued-with-backoff, failed, or canceled.
// The record write precedes the lease release, preserving the invariant that
// a released lease always leaves a non-running or re-queued record behind.
func (sc *scavenger) reclaim(j *Job, now time.Time) bool {
	start := time.Now()
	epoch := j.Epoch + 1
	l, err := acquireLease(sc.leaseDir, j.ID, sc.workerID, epoch, sc.ttl, now)
	if err != nil {
		if !errors.Is(err, ErrLeaseHeld) {
			sc.log.Warn("reclaim lease acquire failed", "job_id", j.ID, "error", err)
		}
		return false
	}
	// Re-read the record under our lease: if the dying worker finalized it,
	// or a peer already reclaimed it (epoch moved), stand down.
	cur, err := sc.queue.reload(j.ID)
	if err != nil || cur.State != StateRunning || cur.Epoch != j.Epoch {
		releaseLease(sc.leaseDir, l)
		return false
	}

	canceled := sc.queue.cancelRequested(j.ID)
	retries := cur.Retries + 1
	overBudget := retries > sc.budget
	var detail string
	final, err := sc.queue.update(j.ID, func(rec *Job) {
		rec.Epoch = epoch
		rec.WorkerID = ""
		rec.StartedAt = nil
		rec.Retries = retries
		switch {
		case canceled:
			rec.State = StateCanceled
			at := now.UTC()
			rec.FinishedAt = &at
			detail = fmt.Sprintf("lease expired (worker %s); cancel requested", cur.WorkerID)
		case overBudget:
			rec.State = StateFailed
			at := now.UTC()
			rec.FinishedAt = &at
			rec.Error = fmt.Sprintf(
				"worker %s lease expired and retry budget spent (%d reclaims, budget %d)",
				cur.WorkerID, retries, sc.budget)
			detail = rec.Error
		default:
			rec.State = StateQueued
			gate := now.UTC().Add(sc.retryDelay(retries))
			rec.NotBefore = &gate
			detail = fmt.Sprintf(
				"lease of worker %s expired; retry %d/%d after %s",
				cur.WorkerID, retries, sc.budget, time.Until(gate).Round(time.Millisecond))
		}
	}, func(rec *Job) {
		// Counted before the new state is visible (see queue.update).
		sc.count(func(c *metrics.Counters) {
			c.JobsReclaims++
			switch rec.State {
			case StateQueued:
				c.JobsRetries++
			case StateFailed:
				c.JobsFailed++
			case StateCanceled:
				c.JobsCanceled++
			}
		})
	})
	if err != nil {
		sc.obs.Add("service_persist_errors", 1)
		sc.log.Error("reclaim persist failed", "job_id", j.ID, "error", err)
		releaseLease(sc.leaseDir, l)
		return false
	}
	releaseLease(sc.leaseDir, l)

	sc.obs.ObserveTracedSpan(final.TraceID, obs.PhaseJobReclaim,
		fmt.Sprintf("%s epoch %d", j.ID, epoch), start, time.Since(start))
	if sc.publish != nil {
		sc.publish(j.ID, tap25d.RunEvent{Kind: "reclaim", Error: detail})
	}
	if final.Terminal() {
		sc.queue.clearCancel(j.ID)
		if sc.onFinal != nil {
			sc.onFinal(final)
		}
	}
	sc.log.Warn("job reclaimed",
		"job_id", j.ID, "trace", final.TraceID, "from_worker", cur.WorkerID,
		"by", sc.workerID, "epoch", epoch, "state", final.State, "detail", detail)
	return true
}

// retryDelay is the exponential re-dispatch backoff for the nth reclaim
// (n ≥ 1): backoff·2^(n-1), capped.
func (sc *scavenger) retryDelay(n int) time.Duration {
	d := sc.backoff
	for i := 1; i < n; i++ {
		d *= 2
		if d >= sc.backoffM {
			return sc.backoffM
		}
	}
	if d > sc.backoffM {
		d = sc.backoffM
	}
	return d
}
