// Package tdp implements the thermal design power analysis of Section IV-B:
// the TDP envelope of a placement is the maximum total chiplet power that
// keeps the peak temperature at or below the critical threshold as a
// designated subset of chiplets' power is scaled (the paper varies the
// CPU-DRAM system's CPUs). The model is linear in power, so the envelope
// follows in closed form by superposing the fixed and the varied chiplets'
// fields, both from one thermal.Model.SolveBatch. That skips the solver
// recovery ladder: a column that does not converge fails the envelope loudly.
package tdp

import (
	"context"
	"fmt"
	"math"

	"tap25d/internal/chiplet"
	"tap25d/internal/thermal"
)

// Options configures the envelope computation.
type Options struct {
	// CriticalC is the temperature constraint (default 85, as in the paper).
	CriticalC float64
	// VaryIndices are the chiplets whose power is scaled; nil scales all.
	VaryIndices []int
	// MaxScale caps the varied chiplets' power scale (default 16x nominal).
	MaxScale float64
}

// Result reports a TDP envelope.
type Result struct {
	// EnvelopeW is the maximum total system power (W) meeting the constraint.
	EnvelopeW float64
	// Scale is the applied factor on the varied chiplets at the envelope.
	Scale float64
	// PeakC is the peak at the envelope, or the fixed chiplets' own if infeasible.
	PeakC float64
	// Feasible is false when even zero varied power exceeds the constraint
	// (the fixed chiplets alone overheat).
	Feasible bool
}

// Envelope is EnvelopeContext without cancellation.
func Envelope(sys *chiplet.System, p chiplet.Placement, model *thermal.Model, opt Options) (*Result, error) {
	return EnvelopeContext(context.Background(), sys, p, model, opt)
}

// EnvelopeContext returns the largest power scale of the varied chiplets, up
// to opt.MaxScale, that keeps the peak at or below opt.CriticalC — the
// smallest, over cells the varied chiplets heat, of the headroom the fixed
// chiplets leave over the varied chiplets' rise — and the total power at it.
// It fails with ctx's error once ctx is done. The model must match the
// system's interposer.
func EnvelopeContext(ctx context.Context, sys *chiplet.System, p chiplet.Placement, model *thermal.Model, opt Options) (*Result, error) {
	if err := sys.CheckPlacement(p); err != nil {
		return nil, fmt.Errorf("tdp: %w", err)
	}
	crit := opt.CriticalC
	if crit == 0 {
		crit = 85
	}
	maxScale := opt.MaxScale
	if maxScale == 0 {
		maxScale = 16
	}
	vary := opt.VaryIndices
	if vary == nil {
		vary = make([]int, len(sys.Chiplets))
		for i := range vary {
			vary[i] = i
		}
	}
	varied := make([]bool, len(sys.Chiplets))
	for _, i := range vary {
		if i < 0 || i >= len(sys.Chiplets) {
			return nil, fmt.Errorf("tdp: vary index %d out of range", i)
		}
		varied[i] = true
	}
	// Both lists keep every footprint, so both columns share one matrix.
	varySrcs := make([]thermal.Source, len(sys.Chiplets))
	fixedSrcs := make([]thermal.Source, len(sys.Chiplets))
	var variedW, fixedW float64
	for i, c := range sys.Chiplets {
		varySrcs[i].Rect = p.Rect(sys, i)
		fixedSrcs[i].Rect = varySrcs[i].Rect
		if varied[i] {
			varySrcs[i].Power, variedW = c.Power, variedW+c.Power
		} else {
			fixedSrcs[i].Power, fixedW = c.Power, fixedW+c.Power
		}
	}
	if variedW <= 0 {
		return nil, fmt.Errorf("tdp: varied chiplets have zero nominal power; nothing to scale")
	}
	specs := [][]thermal.Source{varySrcs}
	if fixedW > 0 {
		specs = append(specs, fixedSrcs)
	}
	res, err := model.SolveBatch(ctx, specs)
	if err != nil {
		return nil, fmt.Errorf("tdp: %w", err)
	}

	// On the chiplet layer, which PeakC ranges over, the rise over ambient
	// at scale s is rf + s·rv.
	ambient := model.AmbientC()
	rf := make([]float64, len(res[0].ChipTempC))
	fixedPeak := ambient
	if len(res) > 1 {
		for k, t := range res[1].ChipTempC {
			rf[k] = t - ambient
		}
		fixedPeak = res[1].PeakC
	}
	if fixedPeak > crit {
		return &Result{Feasible: false, PeakC: fixedPeak}, nil
	}
	scale, peak := maxScale, math.Inf(-1)
	for k, t := range res[0].ChipTempC {
		if rv := t - ambient; rv > 0 {
			scale = min(scale, (crit-ambient-rf[k])/rv)
		}
	}
	for k, t := range res[0].ChipTempC {
		peak = max(peak, ambient+rf[k]+scale*(t-ambient))
	}
	return &Result{
		Feasible:  true,
		Scale:     scale,
		PeakC:     peak,
		EnvelopeW: sys.ScaledSubset(scale, vary).TotalPower(),
	}, nil
}
