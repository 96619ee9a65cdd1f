package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"tap25d"
	"tap25d/internal/metrics"
	"tap25d/internal/obs"
)

// ErrOverloaded rejects a submission while the queue is beyond its configured
// depth limit (load shedding). HTTP 503 with a Retry-After hint.
var ErrOverloaded = errors.New("service: queue depth limit reached")

// Config parameterizes a Service. The zero value of every optional field is
// a sensible default; DataDir is required.
type Config struct {
	// DataDir is the service's state root: job records under <DataDir>/jobs,
	// leases under <DataDir>/leases, per-job checkpoints under
	// <DataDir>/ckpt/<job id>. Created if missing. Any number of
	// cmd/tap25d-worker processes may attach to the same directory.
	DataDir string
	// Workers is the in-process placement worker pool size (default:
	// GOMAXPROCS/2, minimum 1 — each placement job is itself internally
	// parallel). Negative runs zero local workers: the server only serves the
	// API and scavenges, and external tap25d-worker processes do the work.
	Workers int
	// TenantQuota caps each tenant's active (queued+running) jobs; exceeding
	// it rejects the submission with ErrQuotaExhausted (HTTP 429). 0 means
	// unlimited.
	TenantQuota int
	// MaxQueueDepth sheds load: submissions beyond this many active
	// (queued+running) jobs are rejected with ErrOverloaded (HTTP 503 plus a
	// Retry-After hint) regardless of tenant. 0 means unlimited.
	MaxQueueDepth int
	// LeaseTTL is the job-lease heartbeat deadline (default 10s): a worker
	// that fails to renew for this long is presumed dead and its job is
	// reclaimed by a peer.
	LeaseTTL time.Duration
	// RetryBudget is the number of crash reclamations a job survives before
	// failing terminally (default 3; negative means none).
	RetryBudget int
	// RetryBackoff is the re-dispatch delay after a job's first reclamation,
	// doubling per reclamation (default 1s, capped at one minute).
	RetryBackoff time.Duration
	// CheckpointEvery is the per-run checkpoint cadence in SA steps
	// (default 25). Smaller loses less work on a kill; larger does less I/O.
	CheckpointEvery int
	// ProgressEvery is the step-event cadence fanned out over SSE
	// (default 10; 0 keeps lifecycle events only).
	ProgressEvery int
	// Observer, when non-nil, aggregates the whole service's observability:
	// counters, queue-depth gauges, job-latency histograms, per-job trace
	// files; serve it with tap25d.ServeDebug to expose /metrics. nil
	// disables observability (jobs then carry no trace files).
	Observer *tap25d.Observer
	// Logger receives structured job-lifecycle logs carrying
	// job_id/tenant/trace correlation fields. nil discards them.
	Logger *slog.Logger
	// SLO declares the objectives evaluated on /v1/slo and exported as
	// tap25d_slo_* gauges. nil installs obs.DefaultSLOConfig() when an
	// Observer is present.
	SLO *obs.SLOConfig
}

func (c Config) workers() int {
	if c.Workers < 0 {
		return 0
	}
	if c.Workers > 0 {
		return c.Workers
	}
	if n := runtime.GOMAXPROCS(0) / 2; n > 1 {
		return n
	}
	return 1
}

func (c Config) workerConfig() WorkerConfig {
	return WorkerConfig{
		DataDir:         c.DataDir,
		LeaseTTL:        c.LeaseTTL,
		RetryBudget:     c.RetryBudget,
		RetryBackoff:    c.RetryBackoff,
		CheckpointEvery: c.CheckpointEvery,
		ProgressEvery:   c.ProgressEvery,
		Observer:        c.Observer,
		Logger:          c.Logger,
	}
}

// Service is the placement-as-a-service engine: one persistent queue over the
// shared data directory, one event hub, and a pool of in-process lease
// workers draining the queue through tap25d.Place — alongside any
// cmd/tap25d-worker processes attached to the same directory. Construct with
// New, start with Start, stop with Drain.
type Service struct {
	cfg      Config
	queue    *queue
	hub      *hub
	obs      *tap25d.Observer
	log      *slog.Logger
	leaseDir string
	sc       *scavenger

	// tracesDir holds the per-job span trace files (<id>.trace.jsonl plus a
	// sealed manifest); "" when the service runs without an Observer.
	tracesDir string

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	traceMu sync.Mutex
	traces  map[string]*obs.TraceSink // job ID → its open trace sink

	mu          sync.Mutex
	counters    metrics.Counters
	cancels     map[string]context.CancelFunc // locally-running job → its cancel
	busy        int
	avgExecSecs float64           // EWMA of job execution time, for Retry-After
	openJobs    map[string]string // non-terminal jobs → last seen state (sync loop)
}

// New opens the service state under cfg.DataDir. A boot sweep reclaims any
// job whose lease expired while no process was watching (the previous
// process crashed); the count is published as the observer gauge
// "service_requeued_on_boot". Jobs under live leases — other worker
// processes are still running them — are left alone.
func New(cfg Config) (*Service, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("service: Config.DataDir is required")
	}
	q, err := newQueue(filepath.Join(cfg.DataDir, "jobs"), cfg.TenantQuota)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		cfg:      cfg,
		queue:    q,
		obs:      cfg.Observer,
		log:      cfg.Logger,
		leaseDir: filepath.Join(cfg.DataDir, "leases"),
		ctx:      ctx,
		cancel:   cancel,
		traces:   map[string]*obs.TraceSink{},
		cancels:  map[string]context.CancelFunc{},
		openJobs: map[string]string{},
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// Slow-subscriber drops are counted, not silently swallowed: the hub
	// reports them and the service rolls them into jobs_events_dropped.
	s.hub = newHub(func(n int) {
		s.count(func(c *metrics.Counters) { c.JobsEventsDropped += int64(n) })
	})
	if s.obs != nil {
		s.tracesDir = filepath.Join(cfg.DataDir, "traces")
		if err := os.MkdirAll(s.tracesDir, 0o755); err != nil {
			cancel()
			return nil, err
		}
		slo := cfg.SLO
		if slo == nil {
			slo = obs.DefaultSLOConfig()
		}
		s.obs.SetSLO(slo)
	}
	wcfg := cfg.workerConfig()
	s.sc = &scavenger{
		queue:    q,
		leaseDir: s.leaseDir,
		workerID: wcfg.id() + "-scavenger",
		ttl:      wcfg.leaseTTL(),
		budget:   wcfg.retryBudget(),
		backoff:  wcfg.retryBackoff(),
		backoffM: wcfg.retryBackoffMax(),
		obs:      s.obs,
		log:      s.log,
		count:    s.count,
		publish:  s.hub.Publish,
		onFinal:  s.onExternalFinal,
	}
	s.obs.SetGauge("service_requeued_on_boot", float64(s.sc.sweep(time.Now())))
	s.publishGauges()
	return s, nil
}

// Start launches the in-process worker pool (if any) and the sync loop that
// watches the shared directory for transitions made by external worker
// processes. It returns immediately; jobs execute in the background until
// Drain.
func (s *Service) Start() {
	base := s.cfg.workerConfig()
	for i := 0; i < s.cfg.workers(); i++ {
		wcfg := base
		wcfg.ID = fmt.Sprintf("%s-w%d", base.id(), i)
		w := newWorkerWith(wcfg, s.queue, workerHooks{
			execContext: s.execContext,
			progress:    s.hub.Publish,
			onClaim:     s.onClaim,
			onDone:      s.onDone,
			onFinal:     s.onFinal,
			count:       s.count,
		})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(s.ctx)
		}()
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.syncLoop()
	}()
}

// syncLoop is the server's periodic reconciliation with the shared directory:
// it scavenges expired leases (so recovery works even with zero local
// workers), refreshes the gauges, and detects jobs driven terminal by
// external worker processes — closing their SSE streams and sealing their
// trace manifests, which only this process can do for subscribers attached
// here.
func (s *Service) syncLoop() {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-s.ctx.Done():
			return
		case now := <-tick.C:
			s.sc.maybeSweep(now, s.cfg.workerConfig().scavengeEvery())
			s.queue.rescan()
			s.reconcile()
			s.publishGauges()
		}
	}
}

// reconcile diffs the queue against the known non-terminal set and finalizes
// the process-local side (hub, trace manifest) of jobs that reached a
// terminal state in another process.
func (s *Service) reconcile() {
	jobs := s.queue.List()
	s.mu.Lock()
	var external []*Job
	for _, j := range jobs {
		if j.Terminal() {
			if _, wasOpen := s.openJobs[j.ID]; wasOpen {
				delete(s.openJobs, j.ID)
				if _, local := s.cancels[j.ID]; !local {
					external = append(external, j)
				}
			}
			continue
		}
		s.openJobs[j.ID] = j.State
	}
	s.mu.Unlock()
	for _, j := range external {
		s.onExternalFinal(j)
	}
}

// onExternalFinal closes the process-local resources of a job finalized
// elsewhere (an external worker, or a scavenger's terminal reclaim). The
// synthetic "job" event tells subscribers attached to this process how the
// job ended — the placer's own terminal events fired in the other process.
func (s *Service) onExternalFinal(j *Job) {
	s.hub.Publish(j.ID, tap25d.RunEvent{Kind: "job", Error: j.Error})
	s.onFinal(j)
}

// Drain gracefully stops the service: intake stops (submissions fail with
// ErrDraining), every locally-running job is interrupted — the placer
// checkpoints and returns its best-so-far — and the interrupted jobs go back
// to the queue in StateQueued with their leases released, so any process can
// resume them. Drain blocks until all workers have exited or ctx expires.
func (s *Service) Drain(ctx context.Context) error {
	s.queue.StartDrain()
	s.cancel() // stops the workers and cancels every in-flight job's context
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain timed out: %w", ctx.Err())
	}
}

// count applies f to the service counters and mirrors the delta into the
// observer, so the Prometheus endpoint and the service's own totals stay in
// lockstep.
func (s *Service) count(f func(c *metrics.Counters)) {
	var delta metrics.Counters
	f(&delta)
	s.mu.Lock()
	s.counters.Merge(delta)
	s.mu.Unlock()
	s.obs.AbsorbCounters(delta)
}

// Counters returns a snapshot of the service-level job counters.
func (s *Service) Counters() metrics.Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}

// activeLeases counts the lease files in the shared directory — the fleet's
// current concurrency, local and external workers alike.
func (s *Service) activeLeases() int {
	entries, err := os.ReadDir(s.leaseDir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".lease.json") {
			n++
		}
	}
	return n
}

// publishGauges refreshes the queue-depth and utilization gauges.
func (s *Service) publishGauges() {
	if s.obs == nil {
		return
	}
	queued, running := s.queue.Depth()
	s.mu.Lock()
	busy := s.busy
	s.mu.Unlock()
	s.obs.SetGauge("service_queue_depth", float64(queued))
	s.obs.SetGauge("service_jobs_running", float64(running))
	s.obs.SetGauge("service_workers_busy", float64(busy))
	s.obs.SetGauge("service_workers", float64(s.cfg.workers()))
	s.obs.SetGauge("service_leases_active", float64(s.activeLeases()))
}

// retryAfterHint estimates, in whole seconds, when the backlog will have
// moved enough for a rejected submission to stand a chance: active jobs
// divided by the fleet's execution slots, times the average job execution
// time (EWMA, default 2s), clamped to [1, 600]. It is deliberately a hint —
// coarse, cheap, and monotone in the backlog.
func (s *Service) retryAfterHint() int {
	queued, running := s.queue.Depth()
	slots := s.cfg.workers()
	if n := s.activeLeases(); n > slots {
		slots = n
	}
	if slots < 1 {
		slots = 1
	}
	s.mu.Lock()
	avg := s.avgExecSecs
	s.mu.Unlock()
	if avg <= 0 {
		avg = 2
	}
	secs := int(math.Ceil(float64(queued+running+1) / float64(slots) * avg))
	if secs < 1 {
		secs = 1
	}
	if secs > 600 {
		secs = 600
	}
	return secs
}

// Worker-pool hooks: the lease Worker engine (worker.go) calls back into the
// service for everything process-local.

// execContext re-attaches the job's trace sink (the submitting process may
// have died; the sink must live where the job runs) and threads the trace ID
// plus a root span through the context, so every span the placer, thermal
// solver and router open below inherits the job's trace.
func (s *Service) execContext(ctx context.Context, job *Job) (context.Context, func()) {
	s.attachTrace(job)
	execCtx := obs.ContextWithTrace(ctx, job.TraceID)
	root := s.obs.StartSpanCtx(execCtx, obs.PhaseJobExecute, job.ID)
	execCtx = obs.ContextWithSpan(execCtx, root)
	return execCtx, root.End
}

func (s *Service) onClaim(job *Job, cancel context.CancelFunc) {
	s.mu.Lock()
	s.cancels[job.ID] = cancel
	s.busy++
	s.openJobs[job.ID] = StateRunning
	s.mu.Unlock()
	s.hub.Reopen(job.ID)
	s.publishGauges()
}

func (s *Service) onDone(job *Job) {
	s.mu.Lock()
	delete(s.cancels, job.ID)
	s.busy--
	s.mu.Unlock()
	s.publishGauges()
}

// onFinal runs once per terminal job (locally finalized, reclaimed to
// terminal, or detected by the sync loop): seal the trace manifest and feed
// the execution-time EWMA behind Retry-After.
func (s *Service) onFinal(final *Job) {
	s.sealTrace(final)
	if final.StartedAt != nil && final.FinishedAt != nil {
		exec := final.FinishedAt.Sub(*final.StartedAt).Seconds()
		if exec > 0 {
			s.mu.Lock()
			if s.avgExecSecs <= 0 {
				s.avgExecSecs = exec
			} else {
				s.avgExecSecs = 0.7*s.avgExecSecs + 0.3*exec
			}
			s.mu.Unlock()
		}
	}
	s.mu.Lock()
	delete(s.openJobs, final.ID)
	s.mu.Unlock()
	s.hub.Close(final.ID)
	s.publishGauges()
}

// Submit enqueues a job (or returns the existing one under the spec's
// idempotency key). Beyond Config.MaxQueueDepth active jobs, new submissions
// are shed with ErrOverloaded — but idempotent resubmissions of existing jobs
// still succeed, so retry loops keep their answer. A newly created job gets
// its trace file opened here, so even the submission itself appears as a
// span under the job's trace ID.
func (s *Service) Submit(spec JobSpec) (*Job, bool, error) {
	start := time.Now()
	if s.cfg.MaxQueueDepth > 0 {
		if _, exists := s.queue.findIdem(&spec); !exists {
			if queued, running := s.queue.Depth(); queued+running >= s.cfg.MaxQueueDepth {
				s.count(func(c *metrics.Counters) { c.JobsShed++ })
				s.log.Warn("job shed: queue depth limit",
					"tenant", spec.tenant(), "active", queued+running,
					"limit", s.cfg.MaxQueueDepth)
				return nil, false, fmt.Errorf("%w: %d active jobs (limit %d)",
					ErrOverloaded, queued+running, s.cfg.MaxQueueDepth)
			}
		}
	}
	j, created, err := s.queue.Submit(spec, start)
	switch {
	case errors.Is(err, ErrQuotaExhausted):
		s.count(func(c *metrics.Counters) { c.JobsQuotaRejected++ })
		s.log.Warn("job rejected: tenant quota exhausted", "tenant", spec.tenant())
	case err == nil && created:
		s.count(func(c *metrics.Counters) { c.JobsSubmitted++ })
		s.mu.Lock()
		s.openJobs[j.ID] = j.State
		s.mu.Unlock()
		s.attachTrace(j)
		s.obs.ObserveTracedSpan(j.TraceID, obs.PhaseJobSubmit, j.ID, start, time.Since(start))
		s.log.Info("job submitted",
			"job_id", j.ID, "tenant", j.Spec.tenant(), "trace", j.TraceID,
			"priority", j.Spec.Priority)
	case err == nil && !created:
		s.count(func(c *metrics.Counters) { c.JobsDeduped++ })
		s.log.Info("job submit deduplicated",
			"job_id", j.ID, "tenant", j.Spec.tenant(), "trace", j.TraceID)
	}
	s.publishGauges()
	return j, created, err
}

// Get returns a snapshot of one job.
func (s *Service) Get(id string) (*Job, error) { return s.queue.Get(id) }

// List returns snapshots of all jobs, newest first.
func (s *Service) List() []*Job { return s.queue.List() }

// Draining reports whether intake is stopped.
func (s *Service) Draining() bool { return s.queue.Draining() }

// Subscribe attaches to a job's RunEvent stream (replay + live; see hub).
// The error is ErrNotFound for unknown jobs.
func (s *Service) Subscribe(id string) (<-chan tap25d.RunEvent, func(), error) {
	if _, err := s.queue.Get(id); err != nil {
		return nil, nil, err
	}
	ch, cancel := s.hub.Subscribe(id)
	return ch, cancel, nil
}

// Cancel cancels a job. The request is made durable first (a marker file
// beside the job record), so it reaches workers in other processes: a queued
// job transitions to canceled immediately; a running job's worker — local or
// external — observes the marker at its next heartbeat, cuts the placement,
// and finalizes the record as canceled (keeping the best-so-far result if
// one exists). Canceling a terminal job returns ErrTerminal.
func (s *Service) Cancel(id string) (*Job, error) {
	j, err := s.queue.Get(id)
	if err != nil {
		return nil, err
	}
	if j.Terminal() {
		return j, ErrTerminal
	}
	if err := s.queue.markCancel(id); err != nil {
		return nil, fmt.Errorf("service: persisting cancel request: %w", err)
	}
	j, done, err := s.queue.CancelQueued(id, time.Now(), func(*Job) {
		s.count(func(c *metrics.Counters) { c.JobsCanceled++ })
	})
	if err != nil {
		return nil, err
	}
	if done {
		s.queue.clearCancel(id)
		s.onFinal(j)
		return j, nil
	}
	if j.Terminal() {
		// Lost the race: the job finished between the check and the cancel.
		s.queue.clearCancel(id)
		return j, ErrTerminal
	}
	// Running. Cut the local context if the job runs in this process; an
	// external worker sees the durable marker at its next heartbeat.
	s.mu.Lock()
	cancel := s.cancels[id]
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return j, nil
}
