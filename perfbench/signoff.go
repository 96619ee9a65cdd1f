package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"tap25d"
	"tap25d/internal/btree"
	"tap25d/internal/material"
	"tap25d/internal/metrics"
	"tap25d/internal/placer"
	"tap25d/internal/tdp"
	"tap25d/internal/thermal"
)

const (
	signoffGrid = 64
	criticalC   = 85
	// rotationSecs is the measured wall time of one rotation over the three
	// targets on the reference host (2 cores); it turns --seconds into a
	// rotation count.
	rotationSecs = 9.0
)

// signoffScales are the power corners of the batched scenario sweep; index
// nominalCorner is the 1.0x corner.
var signoffScales = []float64{0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3}

const nominalCorner = 4

// compactSeeds are the Compact-2.5D seeds the multigpu sign-off target is
// built from; the workload seed picks one.
var compactSeeds = []int64{1, 2, 3, 4}

// envelopeW records each target's TDP envelope (W), measured once with this
// benchmark; a sign-off must land within 1 W of it.
var envelopeW = map[string]float64{
	"cpudram-original":   393.59,
	"ascend910-original": 349.50,
	"multigpu-compact-1": 406.28,
	"multigpu-compact-2": 422.09,
	"multigpu-compact-3": 431.77,
	"multigpu-compact-4": 420.56,
}

// target is one placement the workload signs off.
type target struct {
	name string
	sys  *tap25d.System
	p    tap25d.Placement
	vary []int // chiplets the TDP envelope scales
}

// signoff is one sign-off's outputs.
type signoff struct {
	peakC     float64
	env       *tap25d.TDPResult
	scenarios []float64     // peak per corner
	wall      time.Duration // untraced sign-offs
}

func signoffG64(p params, tr *tracer, r *report) error {
	rotations := int(math.Round(p.seconds / rotationSecs))
	if rotations < 1 {
		rotations = 1
	}
	cseed := compactSeeds[int(uint64(p.seed)%uint64(len(compactSeeds)))]
	first := int(uint64(p.seed) % 3)
	r.facts["grid"] = signoffGrid
	r.facts["rotations"] = rotations
	r.facts["multigpu_compact_seed"] = cseed

	var targets []target
	setup, err := timedSetup(func(int) error {
		tr.setRun("setup")
		cpudram, err := tap25d.BuiltinSystem("cpudram")
		if err != nil {
			return err
		}
		ascend, err := tap25d.BuiltinSystem("ascend910")
		if err != nil {
			return err
		}
		mgpu, err := tap25d.BuiltinSystem("multigpu")
		if err != nil {
			return err
		}
		id := tr.begin("btree.compact", 0)
		c, err := btree.PlaceCompact(mgpu, btree.Options{Seed: cseed})
		tr.end(id)
		if err != nil {
			return err
		}
		all := []target{
			{"cpudram-original", cpudram, tap25d.CPUDRAMOriginalPlacement(), tap25d.CPUDRAMCPUIndices()},
			{"ascend910-original", ascend, tap25d.Ascend910OriginalPlacement(), allChiplets(ascend)},
			{fmt.Sprintf("multigpu-compact-%d", cseed), mgpu, c.Placement, allChiplets(mgpu)},
		}
		// Rotate so the workload seed picks which target goes first.
		targets = append(all[first:], all[:first]...)
		id = tr.begin("thermal.cold_evaluate", 0)
		_, err = tap25d.Evaluate(targets[0].sys, targets[0].p, tap25d.Options{ThermalGrid: signoffGrid})
		tr.end(id)
		return err
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup

	n := rotations * len(targets)
	prod := make([]*signoff, n)
	t0 := time.Now()
	for i := range prod {
		tg := targets[i%len(targets)]
		so, err := signoffProd(tg)
		if err != nil {
			r.op([]string{tg.name + ": " + err.Error()})
			continue
		}
		prod[i] = so
		r.op(checkSignoff(tg, so))
	}
	prodWall := time.Since(t0)
	var walls, peaks []float64
	var wallSum float64
	for _, so := range prod {
		if so != nil {
			walls = append(walls, float64(so.wall.Microseconds())/1e3)
			wallSum += so.wall.Seconds()
			peaks = append(peaks, so.peakC)
		}
	}
	r.e2e["ops_per_s"] = ratio(float64(len(walls)), wallSum)
	r.e2e["latency_ms_p50"] = median(walls)
	r.e2e["peak_c"] = median(peaks)
	if tr == nil || r.failed > 0 {
		return nil
	}

	ob := tap25d.NewObserver()
	tr.setRun("traced")
	root := tr.begin("run", 0)
	t0 = time.Now()
	var total, tdpCtr metrics.Counters
	for i := 0; i < n; i++ {
		tg := targets[i%len(targets)]
		so, err := signoffTraced(tg, tr, root, ob, &total, &tdpCtr)
		if err != nil {
			return err
		}
		id := tr.begin("bench.check", root)
		problems := checkSignoff(tg, so)
		if so.peakC != prod[i].peakC || *so.env != *prod[i].env || fmt.Sprint(so.scenarios) != fmt.Sprint(prod[i].scenarios) {
			problems = append(problems, "traced outputs differ from the untraced sign-off")
		}
		tr.end(id)
		for _, msg := range problems {
			r.invalid("traced %s: %s", tg.name, msg)
		}
	}
	tracedWall := time.Since(t0)
	tr.end(root)

	spans := tr.closed()
	L := r.layer
	layerSolverMetrics(L, total, ob, spans)
	L["thermal.batch8_ms_p50"] = median(durations(spans, "thermal.batch8"))
	L["tdp.envelope_ms_p50"] = median(durations(spans, "tdp.envelope"))
	L["tdp.solves_per_envelope"] = float64(tdpCtr.ThermalSolves) / float64(n)
	L["tdp.cg_iters_per_envelope"] = float64(tdpCtr.CGIterations) / float64(n)
	L["btree.compact_ms_p50"] = median(durations(spans, "btree.compact"))
	closeTrace(r, spans, root, tracedWall, prodWall)
	return nil
}

func allChiplets(sys *tap25d.System) []int {
	idx := make([]int, len(sys.Chiplets))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// signoffProd signs a target off through the tap25d facade.
func signoffProd(tg target) (*signoff, error) {
	opt := tap25d.Options{ThermalGrid: signoffGrid}
	start := time.Now()
	res, err := tap25d.Evaluate(tg.sys, tg.p, opt)
	if err != nil {
		return nil, err
	}
	env, err := tap25d.TDPEnvelope(tg.sys, tg.p, tg.vary, opt)
	if err != nil {
		return nil, err
	}
	sc, err := tap25d.EvaluateScenarios(tg.sys, tg.p, signoffScales, opt)
	if err != nil {
		return nil, err
	}
	so := &signoff{peakC: res.PeakC, env: env, wall: time.Since(start)}
	for _, s := range sc {
		so.scenarios = append(so.scenarios, s.PeakC)
	}
	return so, nil
}

// signoffTraced makes the same three calls one layer down, each timed: the
// cold evaluation through the facade, tdp.Envelope and the batched scenario
// solve on benchmark-built models that count their solves.
func signoffTraced(tg target, tr *tracer, root int, ob *tap25d.Observer, total, tdpCtr *metrics.Counters) (*signoff, error) {
	so := &signoff{}
	op := tr.begin("signoff", root)
	defer tr.end(op)

	id := tr.begin("thermal.cold_evaluate", op)
	res, err := tap25d.Evaluate(tg.sys, tg.p, tap25d.Options{ThermalGrid: signoffGrid, Observer: ob})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	so.peakC = res.PeakC
	total.Merge(res.Metrics)

	stack := material.DefaultStackFor(tg.sys.InterposerW, tg.sys.InterposerH)
	var ctr metrics.Counters
	id = tr.begin("thermal.model", op)
	model, err := thermal.NewModel(tg.sys.InterposerW, tg.sys.InterposerH,
		thermal.Options{Grid: signoffGrid, Stack: &stack, Counters: &ctr, Obs: ob})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("tdp.envelope", op)
	so.env, err = tdp.Envelope(tg.sys, tg.p, model, tdp.Options{CriticalC: criticalC, VaryIndices: tg.vary})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tdpCtr.Merge(ctr)
	total.Merge(ctr)

	ctr = metrics.Counters{}
	id = tr.begin("thermal.model", op)
	model, err = thermal.NewModel(tg.sys.InterposerW, tg.sys.InterposerH,
		thermal.Options{Grid: signoffGrid, Stack: &stack, Counters: &ctr, Obs: ob})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	base := placer.Sources(tg.sys, tg.p)
	specs := make([][]thermal.Source, len(signoffScales))
	for c, scale := range signoffScales {
		specs[c] = append([]thermal.Source(nil), base...)
		for k := range specs[c] {
			specs[c][k].Power *= scale
		}
	}
	id = tr.begin("thermal.batch8", op)
	sc, err := model.SolveBatch(context.Background(), specs)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	total.Merge(ctr)
	for _, s := range sc {
		so.scenarios = append(so.scenarios, s.PeakC)
	}
	return so, nil
}

// checkSignoff checks a sign-off against physics and the recorded envelope:
// the nominal scenario corner reproduces the cold evaluation, peaks rise with
// power, the envelope keeps the peak at the limit, and it matches the
// recorded value.
func checkSignoff(tg target, so *signoff) []string {
	var problems []string
	if so.scenarios[nominalCorner] != so.peakC {
		problems = append(problems, fmt.Sprintf("1.0x scenario peak %v °C differs from the cold evaluation %v °C", so.scenarios[nominalCorner], so.peakC))
	}
	for c := 1; c < len(so.scenarios); c++ {
		if so.scenarios[c] <= so.scenarios[c-1] {
			problems = append(problems, fmt.Sprintf("scenario peaks are not increasing with power: %v", so.scenarios))
			break
		}
	}
	if !so.env.Feasible {
		problems = append(problems, "TDP envelope infeasible")
		return problems
	}
	// Re-evaluate at the envelope. Bisection resolves the envelope to 1 W;
	// in temperature that is 1 W times the varied chiplets' thermal
	// resistance at the envelope.
	scaled := tg.sys.ScaledSubset(so.env.Scale, tg.vary)
	res, err := tap25d.Evaluate(scaled, tg.p, tap25d.Options{ThermalGrid: signoffGrid})
	if err != nil {
		return append(problems, "re-evaluation at the envelope: "+err.Error())
	}
	var variedW float64
	for _, i := range tg.vary {
		variedW += scaled.Chiplets[i].Power
	}
	ambient := material.DefaultStackFor(tg.sys.InterposerW, tg.sys.InterposerH).AmbientC
	tolC := (criticalC - ambient) / variedW
	if res.PeakC > criticalC+tolC {
		problems = append(problems, fmt.Sprintf("peak %v °C at the %v W envelope exceeds %v °C + %.3g °C", res.PeakC, so.env.EnvelopeW, criticalC, tolC))
	}
	if want, ok := envelopeW[tg.name]; !ok || math.Abs(so.env.EnvelopeW-want) > 1 {
		problems = append(problems, fmt.Sprintf("envelope %v W is not within 1 W of the recorded %v W", so.env.EnvelopeW, want))
	}
	return problems
}
