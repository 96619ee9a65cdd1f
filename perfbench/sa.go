package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"time"

	"tap25d"
	"tap25d/internal/material"
	"tap25d/internal/metrics"
	"tap25d/internal/placer"
	"tap25d/internal/route"
	"tap25d/internal/surrogate"
	"tap25d/internal/thermal"
)

// saConfig describes one annealing workload.
type saConfig struct {
	system    string
	grid      int
	surrogate bool
	steps     int // SA steps per seed
	// seedSecs is the measured wall time of one seed's anneal on the
	// reference host (2 cores); it turns --seconds into a seed count, so the
	// work of a run depends only on its arguments.
	seedSecs float64
	// fixedSeeds draws the anneals from fixedSeedSource instead of the
	// workload seed, which then only orders them.
	fixedSeeds bool
}

const fixedSeedSource = 2021

var (
	// The paper's algorithm on its E1 system at its grid: every step pays a
	// warm incremental Jacobi-CG solve.
	saExactCfg = saConfig{system: "multigpu", grid: 64, steps: 40, seedSecs: 4.0}
	// The CLI/service defaults on the hottest case study at a fine grid:
	// surrogate prescreen on, multigrid-preconditioned exact solves. The
	// surrogate makes the number of exact solves per anneal vary widely from
	// seed to seed; with the three anneals a run has time for at grid 128,
	// seed-drawn anneals spread steps/s by about 16% between runs, so this
	// workload anneals a fixed set and leaves only machine noise.
	saDefaultCfg = saConfig{system: "cpudram", grid: 128, surrogate: true, steps: 30, seedSecs: 7.5, fixedSeeds: true}
)

func saExactG64(p params, tr *tracer, r *report) error    { return runSA(saExactCfg, p, tr, r) }
func saDefaultG128(p params, tr *tracer, r *report) error { return runSA(saDefaultCfg, p, tr, r) }

// saSeedCount turns --seconds into the number of seeds a run anneals.
func saSeedCount(cfg saConfig, p params) int {
	if n := int(math.Round(p.seconds / cfg.seedSecs)); n > 1 {
		return n
	}
	return 1
}

func (cfg saConfig) options(seed int64, init *tap25d.Placement) tap25d.Options {
	return tap25d.Options{ThermalGrid: cfg.grid, Steps: cfg.steps, Seed: seed, Surrogate: cfg.surrogate, InitialPlacement: init}
}

// saRun is one seed's anneal as the benchmark saw it.
type saRun struct {
	res  *tap25d.Result
	wall time.Duration    // untraced runs
	ctr  metrics.Counters // traced runs: evaluator plus final-evaluation counters
	sur  *placer.SurrogateStats
}

func runSA(cfg saConfig, p params, tr *tracer, r *report) error {
	var sys *tap25d.System
	var seeds []int64
	var inits []tap25d.Placement
	var draws *compactDraws
	setup, err := timedSetup(func(int) error {
		var err error
		if sys, err = tap25d.BuiltinSystem(cfg.system); err != nil {
			return err
		}
		tr.setRun("setup")
		// Each SA seed is also its Compact-2.5D seed, as in tap25d.Place.
		src := p.seed
		if cfg.fixedSeeds {
			src = fixedSeedSource
		}
		rng := rand.New(rand.NewSource(src))
		draws = &compactDraws{tr: tr}
		n := saSeedCount(cfg, p)
		seeds, inits = make([]int64, n), make([]tap25d.Placement, n)
		for i := range seeds {
			if seeds[i], inits[i], err = draws.draw(sys, rng, 0); err != nil {
				return err
			}
		}
		if cfg.fixedSeeds {
			k := int(uint64(p.seed) % uint64(n))
			seeds = append(seeds[k:], seeds[:k]...)
			inits = append(inits[k:], inits[:k]...)
		}
		// The first cold solve: model construction, assembly and, at
		// multigrid grids, the hierarchy build.
		id := tr.begin("thermal.cold_evaluate", 0)
		_, err = tap25d.Evaluate(sys, inits[0], tap25d.Options{ThermalGrid: cfg.grid})
		tr.end(id)
		return err
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup
	r.facts["grid"] = cfg.grid
	r.facts["sa_seeds"] = seeds
	r.facts["steps_per_seed"] = cfg.steps
	ambient := material.DefaultStackFor(sys.InterposerW, sys.InterposerH).AmbientC

	// Untraced production run: the tap25d facade, exactly as a user calls it.
	prod := make([]saRun, len(seeds))
	t0 := time.Now()
	for i, s := range seeds {
		start := time.Now()
		res, err := tap25d.Place(sys, cfg.options(s, &inits[i]))
		prod[i] = saRun{res: res, wall: time.Since(start)}
		r.op(checkAnneal(sys, res, err, ambient))
	}
	prodWall := time.Since(t0)
	var walls, peaks, wls []float64
	var wallSum float64
	for _, run := range prod {
		if run.res == nil {
			continue
		}
		walls = append(walls, float64(run.wall.Microseconds())/1e3)
		wallSum += run.wall.Seconds()
		peaks = append(peaks, run.res.PeakC)
		wls = append(wls, run.res.WirelengthMM)
	}
	r.e2e["ops_per_s"] = ratio(float64(cfg.steps*len(walls)), wallSum)
	r.e2e["latency_ms_p50"] = median(walls)
	r.e2e["peak_c"] = median(peaks)
	if tr == nil || r.failed > 0 {
		return nil
	}

	// Traced run: the same anneals through placer.PlaceContext with
	// benchmark-owned evaluators that time each call into the layers below.
	ob := tap25d.NewObserver()
	tr.setRun("traced")
	root := tr.begin("run", 0)
	t0 = time.Now()
	traced := make([]saRun, len(seeds))
	for i, s := range seeds {
		run, err := tracedAnneal(cfg, sys, s, &inits[i], tr, root, ob)
		if err != nil {
			return err
		}
		traced[i] = run
		id := tr.begin("bench.check", root)
		problems := checkAnneal(sys, run.res, nil, ambient)
		problems = append(problems, sameAnneal(prod[i], run)...)
		tr.end(id)
		for _, msg := range problems {
			r.invalid("traced seed %d: %s", s, msg)
		}
	}
	tracedWall := time.Since(t0)
	tr.end(root)

	spans := tr.closed()
	var total metrics.Counters
	var sur placer.SurrogateStats
	var driftSq float64
	for _, run := range traced {
		total.Merge(run.ctr)
		if run.sur != nil {
			sur.Prescreens += run.sur.Prescreens
			sur.Rejects += run.sur.Rejects
			sur.Audits += run.sur.Audits
			sur.Refits += run.sur.Refits
			driftSq += float64(run.sur.Audits) * run.sur.DriftRMSC * run.sur.DriftRMSC
		}
	}
	steps := durations(spans, "placer.step")
	n := float64(len(steps))
	// Spans are in the order they began, so a step precedes its solves.
	stepIDs := map[int]bool{}
	var solvesInSteps float64
	for _, s := range spans {
		switch {
		case s.Name == "placer.step":
			stepIDs[s.ID] = true
		case s.Name == "thermal.solve" && stepIDs[s.Parent]:
			solvesInSteps++
		}
	}
	L := r.layer
	L["placer.step_ms_p50"] = median(steps)
	L["placer.step_ms_p99"] = quantile(steps, 0.99)
	L["placer.self_ms_per_step"] = ratio(sum(selfMS(spans, "placer.step")), n)
	L["placer.exact_evals_per_step"] = ratio(solvesInSteps+float64(sur.Audits), n)
	L["placer.peak_c_iqr"] = iqr(peaks)
	L["placer.wirelength_mm"] = median(wls)
	L["placer.wirelength_mm_iqr"] = iqr(wls)
	var prescreenUS []float64
	for _, d := range durations(spans, "surrogate.prescreen") {
		prescreenUS = append(prescreenUS, d*1e3)
	}
	L["surrogate.prescreen_us_p50"] = median(prescreenUS)
	L["surrogate.hit_rate"] = ratio(float64(sur.Rejects), float64(sur.Prescreens))
	L["surrogate.audits_per_kstep"] = ratio(1000*float64(sur.Audits), n)
	L["surrogate.refits"] = float64(sur.Refits)
	L["surrogate.drift_rms_c"] = math.Sqrt(ratio(driftSq, float64(sur.Audits)))
	solves := durations(spans, "thermal.solve")
	L["thermal.solve_ms_p50"] = median(solves)
	L["thermal.solve_ms_p99"] = quantile(solves, 0.99)
	layerSolverMetrics(L, total, ob, spans)
	routes := durations(spans, "route.route")
	L["route.ms_p50"] = median(routes)
	L["route.ms_p99"] = quantile(routes, 0.99)
	L["route.calls_per_step"] = ratio(float64(total.RouteCalls), n)
	L["btree.compact_ms_p50"] = median(durations(spans, "btree.compact"))
	L["btree.illegal_frac"] = draws.illegalFrac()
	closeTrace(r, spans, root, tracedWall, prodWall)
	return nil
}

// layerSolverMetrics fills the thermal/sparse metrics every solve-driven
// workload shares: assembly time from the Observer's existing
// thermal_assemble phase, CG time as solve minus assembly, and the counts.
func layerSolverMetrics(L map[string]float64, c metrics.Counters, ob *tap25d.Observer, spans []span) {
	var solveMS, assembleMS float64
	for _, ps := range ob.Report().Phases {
		switch ps.Phase {
		case "thermal_solve":
			solveMS = float64(ps.TotalNS) / 1e6
		case "thermal_assemble":
			assembleMS = float64(ps.TotalNS) / 1e6
		}
	}
	n := float64(c.ThermalSolves)
	L["thermal.assemble_ms_per_solve"] = ratio(assembleMS, n)
	L["thermal.delta_assembles_per_solve"] = ratio(float64(c.DeltaAssembles), n)
	L["thermal.skipped_assembles_per_solve"] = ratio(float64(c.SkippedAssembles), n)
	L["thermal.cold_evaluate_ms_p50"] = median(durations(spans, "thermal.cold_evaluate"))
	L["sparse.cg_ms_per_solve"] = ratio(solveMS-assembleMS, n)
	L["sparse.cg_iters_per_solve"] = ratio(float64(c.CGIterations), n)
	L["sparse.mg_cycles_per_solve"] = ratio(float64(c.MGCycles), n)
	L["sparse.mg_setups_per_solve"] = ratio(float64(c.MGSetups), n)
	L["sparse.cg_retries"] = float64(c.CGRetries)
	L["sparse.cg_fallbacks"] = float64(c.CGFallbackPrecond)
}

// closeTrace reports the closure and overhead of a traced run and fails the
// run when more than 5% of its wall time is not covered by any span.
func closeTrace(r *report, spans []span, root int, traced, untraced time.Duration) {
	u := unattributed(spans, root)
	r.layer["bench.unattributed_frac"] = u
	r.layer["bench.trace_overhead_frac"] = (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()
	if u > 0.05 {
		r.invalid("closure: %.1f%% of the traced run's wall time is outside every span (limit 5%%)", 100*u)
	}
}

// checkAnneal checks one anneal's output: a legal placement, a legal routing
// and a finite peak above ambient.
func checkAnneal(sys *tap25d.System, res *tap25d.Result, err error, ambient float64) []string {
	if err != nil {
		return []string{err.Error()}
	}
	var problems []string
	if err := sys.CheckPlacement(res.Placement); err != nil {
		problems = append(problems, "illegal placement: "+err.Error())
	}
	if err := tap25d.CheckRouting(sys, res.Routing); err != nil {
		problems = append(problems, "illegal routing: "+err.Error())
	}
	if math.IsNaN(res.PeakC) || math.IsInf(res.PeakC, 0) || res.PeakC <= ambient {
		problems = append(problems, fmt.Sprintf("peak %v °C is not finite and above ambient %v °C", res.PeakC, ambient))
	}
	return problems
}

// sameAnneal checks that the traced run followed the production trajectory.
func sameAnneal(prod, traced saRun) []string {
	var problems []string
	if !reflect.DeepEqual(prod.res.Placement, traced.res.Placement) {
		problems = append(problems, "final placement differs from the untraced run")
	}
	if prod.res.PeakC != traced.res.PeakC || prod.res.WirelengthMM != traced.res.WirelengthMM {
		problems = append(problems, fmt.Sprintf("quality %v °C / %v mm differs from the untraced %v °C / %v mm",
			traced.res.PeakC, traced.res.WirelengthMM, prod.res.PeakC, prod.res.WirelengthMM))
	}
	if prod.res.Metrics != traced.ctr {
		problems = append(problems, fmt.Sprintf("counters differ from the untraced run:\n  untraced %v\n  traced   %v", prod.res.Metrics, traced.ctr))
	}
	if (prod.res.Surrogate == nil) != (traced.sur == nil) ||
		(prod.res.Surrogate != nil && *prod.res.Surrogate != *traced.sur) {
		problems = append(problems, fmt.Sprintf("surrogate stats %+v differ from the untraced %+v", traced.sur, prod.res.Surrogate))
	}
	return problems
}

// tracedAnneal replays tap25d.Place for one seed: the same evaluator stack
// the facade builds, driven through placer.PlaceContext, followed by the same
// full-fidelity final evaluation.
func tracedAnneal(cfg saConfig, sys *tap25d.System, seed int64, init *tap25d.Placement, tr *tracer, root int, ob *tap25d.Observer) (saRun, error) {
	stack := material.DefaultStackFor(sys.InterposerW, sys.InterposerH)
	var ctr metrics.Counters
	topt := thermal.Options{Grid: cfg.grid, Stack: &stack, Counters: &ctr, Obs: ob}
	st := &stepTracker{tr: tr}

	id := tr.begin("thermal.model", root)
	var ev placer.Evaluator
	if cfg.surrogate {
		inner, err := placer.NewSystemEvaluator(sys, topt, route.Options{})
		if err != nil {
			return saRun{}, err
		}
		ev = &surrogateProbe{inner: placer.NewSurrogateEvaluator(inner, surrogate.Config{}, nil), st: st}
	} else {
		model, err := thermal.NewModel(sys.InterposerW, sys.InterposerH, topt)
		if err != nil {
			return saRun{}, err
		}
		ev = &exactEval{sys: sys, model: model, ctr: &ctr, st: st}
	}
	tr.end(id)

	st.start(root)
	pres, err := placer.PlaceContext(context.Background(), sys, ev, placer.Options{
		Steps: cfg.steps, Seed: seed, Initial: init, FixedAlpha: -1,
		Progress: st.event, ProgressEvery: 1,
	})
	st.stop()
	if err != nil {
		return saRun{}, err
	}
	id = tr.begin("thermal.cold_evaluate", root)
	res, err := tap25d.Evaluate(sys, pres.Placement, tap25d.Options{ThermalGrid: cfg.grid, Observer: ob})
	tr.end(id)
	if err != nil {
		return saRun{}, err
	}
	run := saRun{res: res, ctr: pres.Metrics, sur: pres.Surrogate}
	run.ctr.Merge(res.Metrics)
	return run, nil
}

// stepTracker turns the placer's per-step progress events into step spans:
// a span runs from one step event to the next, so it covers the whole loop
// iteration, and the evaluator calls made meanwhile nest under it.
type stepTracker struct {
	tr     *tracer
	place  int // the PlaceContext call
	cur    int // the open init/step span
	inited bool
}

func (st *stepTracker) start(root int) {
	st.place = st.tr.begin("placer.place", root)
	st.cur = st.tr.begin("placer.init", st.place)
}

// evaluated ends the init span after the initial placement's evaluation.
func (st *stepTracker) evaluated() {
	if !st.inited {
		st.inited = true
		st.tr.end(st.cur)
		st.cur = st.tr.begin("placer.step", st.place)
	}
}

func (st *stepTracker) event(e placer.Event) {
	if e.Kind != placer.EventStep {
		return
	}
	st.tr.end(st.cur)
	st.cur = st.tr.begin("placer.step", st.place)
}

// stop closes the trailing span, which covers the run's wrap-up after its
// last step, under its own name.
func (st *stepTracker) stop() {
	st.tr.end(st.cur)
	st.tr.rename(st.cur, "placer.finish")
	st.tr.end(st.place)
}

// exactEval is the benchmark's copy of placer.SystemEvaluator: the same
// calls in the same order, each timed.
type exactEval struct {
	sys   *tap25d.System
	model *thermal.Model
	ctr   *metrics.Counters
	st    *stepTracker
}

func (e *exactEval) Evaluate(p tap25d.Placement) (float64, float64, error) {
	return e.EvaluateContext(context.Background(), p)
}

func (e *exactEval) EvaluateContext(ctx context.Context, p tap25d.Placement) (float64, float64, error) {
	defer e.st.evaluated()
	tr := e.st.tr
	e.ctr.Evaluations++
	id := tr.begin("thermal.solve", e.st.cur)
	res, err := e.model.SolveContext(ctx, placer.Sources(e.sys, p))
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	e.ctr.RouteCalls++
	id = tr.begin("route.route", e.st.cur)
	rr, err := route.RouteContext(ctx, e.sys, p, route.Options{})
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	return res.PeakC, rr.TotalWirelengthMM, nil
}

func (e *exactEval) Metrics() metrics.Counters { return *e.ctr }

// surrogateProbe forwards the placer's two-fidelity calls to a
// placer.SurrogateEvaluator and times each. It cannot share the placer's
// internal counter hook, so sameAnneal is what shows it leaves the
// trajectory unchanged.
type surrogateProbe struct {
	inner *placer.SurrogateEvaluator
	st    *stepTracker
}

func (s *surrogateProbe) Evaluate(p tap25d.Placement) (float64, float64, error) {
	return s.EvaluateContext(context.Background(), p)
}

func (s *surrogateProbe) EvaluateContext(ctx context.Context, p tap25d.Placement) (float64, float64, error) {
	defer s.st.evaluated()
	id := s.st.tr.begin("thermal.solve", s.st.cur)
	defer s.st.tr.end(id)
	return s.inner.EvaluateContext(ctx, p)
}

// Prescreen records a span only for prescreens the fitted surrogate
// answered; before the fit is ready the call returns at once.
func (s *surrogateProbe) Prescreen(ctx context.Context, cur, nb tap25d.Placement, curTempC float64) (float64, float64, bool, error) {
	t0 := time.Now()
	t, w, ready, err := s.inner.Prescreen(ctx, cur, nb, curTempC)
	if ready {
		s.st.tr.add("surrogate.prescreen", s.st.cur, t0, time.Now())
	}
	return t, w, ready, err
}

func (s *surrogateProbe) PrescreenPolicy() (float64, float64) { return s.inner.PrescreenPolicy() }

func (s *surrogateProbe) MaybeAudit(ctx context.Context, p tap25d.Placement, predTempC float64) error {
	id := s.st.tr.begin("surrogate.audit", s.st.cur)
	defer s.st.tr.end(id)
	return s.inner.MaybeAudit(ctx, p, predTempC)
}

func (s *surrogateProbe) Metrics() metrics.Counters { return s.inner.Metrics() }

func (s *surrogateProbe) SurrogateStats() *placer.SurrogateStats { return s.inner.SurrogateStats() }
