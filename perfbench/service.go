package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	"tap25d"
	"tap25d/internal/service"
)

const (
	// capacityJobsPerS is the 1-worker capacity for jobSpec jobs, measured
	// once on the reference host (2 cores) by submitting 150 jobs back to
	// back.
	capacityJobsPerS = 14.4
	// The open loop runs a light phase, then a heavy phase, each for half
	// of the run, with seeded Poisson arrivals at these rates.
	lightRate = 0.30 * capacityJobsPerS
	heavyRate = 0.75 * capacityJobsPerS
	// replayShare of arrivals resubmit an earlier idempotency key.
	replayShare = 0.1
	// traceSeed draws the fixed trace of fresh jobs (see schedule).
	traceSeed = 2021
	// pollEvery is the poller's pause between sweeps over outstanding jobs.
	pollEvery = 5 * time.Millisecond
	// jobTimeout bounds a pass's wait for its last job.
	jobTimeout = 90 * time.Second
)

var jobSystems = []string{"multigpu", "cpudram", "ascend910"}

// jobCompactSteps is the jobs' Compact-2.5D budget, short to keep jobs small.
const jobCompactSteps = 1000

// jobSpec is the small default-spec job each fresh arrival submits: the
// surrogate on, 30 steps (one checkpoint at the default cadence of 25) and a
// short Compact-2.5D start, at grid 16 so that submit, records, leases,
// checkpoints and polling, not the solver, are most of a job.
func jobSpec(system string, seed int64, key string) service.JobSpec {
	return service.JobSpec{System: system, ThermalGrid: 16, Steps: 30,
		CompactSteps: jobCompactSteps, Seed: seed, IdempotencyKey: key}
}

// arrival is one scheduled request of the open loop.
type arrival struct {
	due    time.Duration // from the start of the pass
	heavy  bool
	spec   service.JobSpec
	replay int // index of the fresh arrival it replays, or -1
}

// schedule builds the open loop's arrivals. The fresh jobs are one fixed
// Poisson trace drawn from traceSeed: at 75% load the latency tail depends
// far more on where a random schedule happens to bunch arrivals than on the
// program (half the median, seed to seed, in a 20 s run), so every run
// offers the same load. Fresh jobs rotate over the three systems, each with
// a seed whose Compact-2.5D start legalizes. The workload seed draws the
// idempotent replays: after each fresh arrival, with the odds that make
// replayShare of all arrivals, one resubmission of an earlier key, due at a
// random time before the next fresh arrival.
func schedule(seed int64, seconds float64, draws *compactDraws) ([]arrival, error) {
	systems := map[string]*tap25d.System{}
	for _, name := range jobSystems {
		sys, err := tap25d.BuiltinSystem(name)
		if err != nil {
			return nil, err
		}
		systems[name] = sys
	}
	rng := rand.New(rand.NewSource(traceSeed))
	half := seconds / 2
	var fresh []arrival
	for t := 0.0; ; {
		rate := lightRate
		if t >= half {
			rate = heavyRate
		}
		next := t + rng.ExpFloat64()/rate
		if t < half && next >= half {
			// Poisson arrivals are memoryless: restart the draw at the
			// phase boundary with the heavy rate.
			t = half
			continue
		}
		if next >= seconds {
			break
		}
		t = next
		name := jobSystems[len(fresh)%len(jobSystems)]
		js, _, err := draws.draw(systems[name], rng, jobCompactSteps)
		if err != nil {
			return nil, err
		}
		fresh = append(fresh, arrival{due: time.Duration(t * float64(time.Second)), heavy: t >= half,
			spec: jobSpec(name, js, fmt.Sprintf("job-%d", len(fresh))), replay: -1})
	}

	rrng := rand.New(rand.NewSource(seed))
	var out []arrival
	var at []int // fresh job -> its index in out
	for i, a := range fresh {
		at = append(at, len(out))
		out = append(out, a)
		if rrng.Float64() >= replayShare/(1-replayShare) {
			continue
		}
		end := time.Duration(seconds * float64(time.Second))
		if i+1 < len(fresh) {
			end = fresh[i+1].due
		}
		due := a.due + time.Duration(rrng.Float64()*float64(end-a.due))
		orig := at[rrng.Intn(len(at))]
		out = append(out, arrival{due: due, heavy: due.Seconds() >= half, spec: out[orig].spec, replay: orig})
	}
	return out, nil
}

// harness is an in-process service behind its HTTP handler on loopback.
type harness struct {
	svc    *service.Service
	srv    *http.Server
	served chan error
	base   string
	dir    string
	client *http.Client
}

func startService(dir string) (*harness, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{DataDir: dir, Workers: 1})
	if err != nil {
		return nil, err
	}
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Drain(context.Background()) // the listen error is the one to report
		return nil, err
	}
	h := &harness{
		svc: svc, srv: &http.Server{Handler: service.Handler(svc)}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), dir: dir,
		// One connection for the submitter and one for the poller.
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	go func() { h.served <- h.srv.Serve(ln) }()
	return h, nil
}

// close stops the server and the service, waits for both, and removes the
// data directory.
func (h *harness) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := []error{h.srv.Shutdown(ctx)}
	if err := <-h.served; !errors.Is(err, http.ErrServerClosed) {
		errs = append(errs, err)
	}
	errs = append(errs, h.svc.Drain(ctx))
	h.client.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(h.dir))
	return errors.Join(errs...)
}

// post submits spec and returns the job and HTTP status.
func (h *harness) post(spec service.JobSpec) (*service.Job, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, 0, err
	}
	resp, err := h.client.Post(h.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	return decodeJob(resp)
}

func (h *harness) get(id string) (*service.Job, int, error) {
	resp, err := h.client.Get(h.base + "/v1/jobs/" + id)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	return decodeJob(resp)
}

func decodeJob(resp *http.Response) (*service.Job, int, error) {
	if resp.StatusCode >= 300 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var j service.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return nil, resp.StatusCode, err
	}
	return &j, resp.StatusCode, nil
}

// outcome is what the client saw of one arrival.
type outcome struct {
	arrival
	dueAt     time.Time
	late      time.Duration
	submitRTT time.Duration
	id        string
	observed  time.Time
	job       *service.Job // terminal record (fresh arrivals)
	problems  []string
}

// pass is one open-loop run against the harness.
type pass struct {
	outcomes   []*outcome
	backlogMax int
	wall       time.Duration
}

// drive runs the open loop: this goroutine submits on schedule, one poller
// goroutine watches outstanding jobs until each is terminal. Idempotency
// keys get prefix, so passes on one service do not deduplicate across.
func (h *harness) drive(arrivals []arrival, prefix string, tr *tracer, root int) (*pass, error) {
	ps := &pass{}
	var mu sync.Mutex
	outstanding := map[string]*outcome{}
	submitted := make(chan struct{})
	pollErr := make(chan error, 1)
	start := time.Now()

	go func() {
		deadline := start.Add(jobTimeout)
		if len(arrivals) > 0 {
			deadline = deadline.Add(arrivals[len(arrivals)-1].due)
		}
		finished := false
		for {
			select {
			case <-submitted:
				finished = true
			default:
			}
			mu.Lock()
			ids := make([]string, 0, len(outstanding))
			for id := range outstanding {
				ids = append(ids, id)
			}
			mu.Unlock()
			if finished && len(ids) == 0 {
				pollErr <- nil
				return
			}
			if time.Now().After(deadline) {
				pollErr <- fmt.Errorf("%d jobs still running %v after the last arrival", len(ids), jobTimeout)
				return
			}
			for _, id := range ids {
				j, _, err := h.get(id)
				now := time.Now()
				mu.Lock()
				o := outstanding[id]
				switch {
				case err != nil:
					o.problems = append(o.problems, "poll: "+err.Error())
					delete(outstanding, id)
				case j.Terminal():
					o.job, o.observed = j, now
					delete(outstanding, id)
				}
				mu.Unlock()
			}
			time.Sleep(pollEvery)
		}
	}()

	for _, a := range arrivals {
		o := &outcome{arrival: a, dueAt: start.Add(a.due)}
		ps.outcomes = append(ps.outcomes, o)
		id := tr.begin("loadgen.wait", root)
		time.Sleep(time.Until(o.dueAt))
		tr.end(id)
		t0 := time.Now()
		o.late = t0.Sub(o.dueAt)
		id = tr.begin("service.submit", root)
		spec := a.spec
		spec.IdempotencyKey = prefix + spec.IdempotencyKey
		j, status, err := h.post(spec)
		tr.end(id)
		o.submitRTT = time.Since(t0)
		switch {
		case err != nil:
			o.problems = append(o.problems, "submit: "+err.Error())
		case a.replay >= 0:
			o.id = j.ID
			if orig := ps.outcomes[a.replay].id; status != http.StatusOK || j.ID != orig {
				o.problems = append(o.problems, fmt.Sprintf("replay of %s answered HTTP %d with job %s", orig, status, j.ID))
			}
		case status != http.StatusCreated:
			o.problems = append(o.problems, fmt.Sprintf("fresh submit answered HTTP %d", status))
		default:
			o.id = j.ID
			mu.Lock()
			outstanding[j.ID] = o
			if len(outstanding) > ps.backlogMax {
				ps.backlogMax = len(outstanding)
			}
			mu.Unlock()
		}
	}
	close(submitted)
	id := tr.begin("loadgen.drain", root)
	err := <-pollErr
	tr.end(id)
	ps.wall = time.Since(start)
	return ps, err
}

func serviceJobs(p params, tr *tracer, r *report) error {
	r.facts["grid"] = 16
	r.facts["rates_per_s"] = []float64{lightRate, heavyRate}
	var h *harness
	var arrivals []arrival
	var draws *compactDraws
	setup, err := timedSetup(func(rep int) error {
		tr.setRun("setup")
		draws = &compactDraws{tr: tr}
		var err error
		if arrivals, err = schedule(p.seed, p.seconds, draws); err != nil {
			return err
		}
		if h != nil {
			if err := h.close(); err != nil {
				return err
			}
		}
		h, err = startService(filepath.Join(p.workdir, fmt.Sprintf("service-%d-%d", os.Getpid(), rep)))
		if err != nil {
			return err
		}
		// One job end to end, so the first measured job pays no lazy
		// start-up.
		if len(arrivals) == 0 {
			return fmt.Errorf("the schedule has no arrivals in %v s", p.seconds)
		}
		warm := arrivals[0].spec
		warm.IdempotencyKey = fmt.Sprintf("warmup-%d", rep)
		j, _, err := h.post(warm)
		if err != nil {
			return err
		}
		for !j.Terminal() {
			time.Sleep(pollEvery)
			if j, _, err = h.get(j.ID); err != nil {
				return err
			}
		}
		if j.State != service.StateDone {
			return fmt.Errorf("warm-up job ended %s: %s", j.State, j.Error)
		}
		return nil
	})
	if err != nil {
		if h != nil {
			err = errors.Join(err, h.close())
		}
		return err
	}
	r.e2e["setup_s"] = setup
	defer func() {
		if err := h.close(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: stopping the service:", err)
		}
	}()

	prod, err := h.drive(arrivals, "u-", nil, 0)
	if err != nil {
		return err
	}
	for _, o := range prod.outcomes {
		r.op(checkOutcome(o))
	}
	done := doneJobs(prod)
	// The latency metric leaves out the time a job queued behind others. On
	// a shared 2-core host the worker's speed drifts by a tenth between
	// runs and by a fifth within one, and queueing amplifies that: at the
	// fixed rates the light-phase p50 and heavy-phase p90 spread by 20-40%
	// between runs. They are reported per layer (loadgen.job_ms_*) instead.
	var peaks, unqueued []float64
	var execS float64
	for _, o := range done {
		j := o.job
		peaks = append(peaks, j.Result.PeakC)
		execS += j.FinishedAt.Sub(*j.StartedAt).Seconds()
		unqueued = append(unqueued, ms(o.observed.Sub(o.dueAt)-j.StartedAt.Sub(j.SubmittedAt)))
	}
	r.e2e["ops_per_s"] = ratio(float64(len(done)), execS)
	r.e2e["latency_ms_p50"] = median(unqueued)
	r.e2e["peak_c"] = median(peaks)
	if tr == nil || r.failed > 0 {
		return nil
	}

	tr.setRun("traced")
	root := tr.begin("run", 0)
	traced, err := h.drive(arrivals, "t-", tr, root)
	tr.end(root)
	if err != nil {
		return err
	}
	tdone := doneJobs(traced)
	for _, o := range traced.outcomes {
		for _, msg := range checkOutcome(o) {
			r.invalid("traced pass: %s", msg)
		}
	}
	if len(tdone) != len(done) {
		r.invalid("traced pass finished %d jobs, the untraced pass %d", len(tdone), len(done))
	} else {
		for i := range done {
			a, b := done[i].job.Result, tdone[i].job.Result
			if a.PeakC != b.PeakC || a.WirelengthMM != b.WirelengthMM || !reflect.DeepEqual(a.Placement, b.Placement) || a.Metrics != b.Metrics {
				r.invalid("traced job %d result differs from the untraced pass", i)
			}
		}
	}
	serviceLayers(r, traced, tdone, tr, root, h, draws)
	spans := tr.closed()
	closeTrace(r, spans, root, traced.wall, prod.wall)
	return nil
}

// serviceLayers fills the service and load-generator metrics from the
// traced pass: the client's own timings plus the lifecycle timestamps the
// service records on each job.
func serviceLayers(r *report, ps *pass, done []*outcome, tr *tracer, root int, h *harness, draws *compactDraws) {
	var submit, wait, exec, vis, late, light, heavy []float64
	var ckpts float64
	replays, dedupOK := 0, 0
	for _, o := range ps.outcomes {
		late = append(late, ms(o.late))
		if o.replay >= 0 {
			replays++
			if len(o.problems) == 0 {
				dedupOK++
			}
		} else {
			submit = append(submit, ms(o.submitRTT))
		}
	}
	for _, o := range done {
		j := o.job
		jid := tr.add("job", root, o.dueAt, o.observed)
		tr.add("service.queue_wait", jid, j.SubmittedAt, *j.StartedAt)
		tr.add("service.exec", jid, *j.StartedAt, *j.FinishedAt)
		tr.add("service.visibility", jid, *j.FinishedAt, o.observed)
		wait = append(wait, ms(j.StartedAt.Sub(j.SubmittedAt)))
		exec = append(exec, ms(j.FinishedAt.Sub(*j.StartedAt)))
		vis = append(vis, ms(o.observed.Sub(*j.FinishedAt)))
		ckpts += float64(j.Result.Metrics.Checkpoints)
		if o.heavy {
			heavy = append(heavy, ms(o.observed.Sub(o.dueAt)))
		} else {
			light = append(light, ms(o.observed.Sub(o.dueAt)))
		}
	}
	c := h.svc.Counters()
	L := r.layer
	L["service.submit_ms_p50"] = median(submit)
	L["service.submit_ms_p90"] = quantile(submit, 0.9)
	L["service.queue_wait_ms_p50"] = median(wait)
	L["service.queue_wait_ms_p90"] = quantile(wait, 0.9)
	L["service.exec_ms_p50"] = median(exec)
	L["service.exec_ms_p90"] = quantile(exec, 0.9)
	L["service.visibility_ms_p50"] = median(vis)
	L["service.checkpoints_per_job"] = ratio(ckpts, float64(len(done)))
	L["service.dedup_ok_frac"] = ratio(float64(dedupOK), float64(replays))
	L["service.rejects"] = float64(c.JobsQuotaRejected + c.JobsShed)
	L["loadgen.job_ms_p50_light"] = median(light)
	L["loadgen.job_ms_p90_light"] = quantile(light, 0.9)
	L["loadgen.job_ms_p50_heavy"] = median(heavy)
	L["loadgen.job_ms_p90_heavy"] = quantile(heavy, 0.9)
	L["loadgen.late_ms_p90"] = quantile(late, 0.9)
	L["loadgen.backlog_max"] = float64(ps.backlogMax)
	L["btree.illegal_frac"] = draws.illegalFrac()
}

// checkOutcome checks one arrival: fresh jobs end done with a result,
// replays return the original job.
func checkOutcome(o *outcome) []string {
	problems := o.problems
	if o.replay < 0 && len(problems) == 0 {
		switch {
		case o.job == nil:
			problems = append(problems, fmt.Sprintf("job %s never reached a terminal state", o.id))
		case o.job.State != service.StateDone || o.job.Result == nil:
			problems = append(problems, fmt.Sprintf("job %s ended %s: %s", o.id, o.job.State, o.job.Error))
		case math.IsNaN(o.job.Result.PeakC) || o.job.StartedAt == nil || o.job.FinishedAt == nil:
			problems = append(problems, fmt.Sprintf("job %s record is incomplete", o.id))
		}
	}
	return problems
}

// doneJobs returns the fresh arrivals that ended done, in schedule order.
func doneJobs(ps *pass) []*outcome {
	var out []*outcome
	for _, o := range ps.outcomes {
		if o.replay < 0 && len(checkOutcome(o)) == 0 {
			out = append(out, o)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }
