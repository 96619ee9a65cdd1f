package tdp

import (
	"context"
	"errors"
	"math"
	"runtime"
	"testing"

	"tap25d/internal/chiplet"
	"tap25d/internal/geom"
	"tap25d/internal/thermal"
)

func tdpSystem() (*chiplet.System, chiplet.Placement) {
	sys := &chiplet.System{
		Name:        "tdp",
		InterposerW: 45,
		InterposerH: 45,
		Chiplets: []chiplet.Chiplet{
			{Name: "HOT0", W: 12, H: 12, Power: 120},
			{Name: "HOT1", W: 12, H: 12, Power: 120},
			{Name: "MEM", W: 8, H: 8, Power: 10},
		},
		Channels: []chiplet.Channel{{Src: 0, Dst: 1, Wires: 64}},
	}
	p := chiplet.NewPlacement(3)
	p.Centers[0] = geom.Point{X: 13, Y: 22}
	p.Centers[1] = geom.Point{X: 32, Y: 22}
	p.Centers[2] = geom.Point{X: 22, Y: 38}
	return sys, p
}

func model(t testing.TB) *thermal.Model {
	t.Helper()
	return modelAt(t, 24)
}

func modelAt(t testing.TB, grid int) *thermal.Model {
	t.Helper()
	m, err := thermal.NewModel(45, 45, thermal.Options{Grid: grid})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// peakAt solves sys with the chiplets in vary scaled by scale and returns
// the peak temperature.
func peakAt(t testing.TB, m *thermal.Model, sys *chiplet.System, p chiplet.Placement, vary []int, scale float64) float64 {
	t.Helper()
	scaled := sys.ScaledSubset(scale, vary)
	srcs := make([]thermal.Source, len(scaled.Chiplets))
	for i := range scaled.Chiplets {
		srcs[i] = thermal.Source{Rect: p.Rect(scaled, i), Power: scaled.Chiplets[i].Power}
	}
	res, err := m.Solve(srcs)
	if err != nil {
		t.Fatal(err)
	}
	return res.PeakC
}

// bisectEnvelope is the envelope search the closed form replaced, kept as a
// reference: it bisects the varied chiplets' power scale on direct solves
// until the envelope power resolves within 1 W, and returns that power.
func bisectEnvelope(t testing.TB, m *thermal.Model, sys *chiplet.System, p chiplet.Placement, vary []int) float64 {
	t.Helper()
	const crit, tolW = 85, 1
	lo, hi := 1e-6, 16.0
	if peakAt(t, m, sys, p, vary, lo) > crit || peakAt(t, m, sys, p, vary, hi) <= crit {
		t.Fatal("reference bisection needs a constraint that binds inside (0, 16]")
	}
	for sys.ScaledSubset(hi, vary).TotalPower()-sys.ScaledSubset(lo, vary).TotalPower() > tolW {
		mid := (lo + hi) / 2
		if peakAt(t, m, sys, p, vary, mid) <= crit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return sys.ScaledSubset(lo, vary).TotalPower()
}

func TestEnvelopeBasic(t *testing.T) {
	sys, p := tdpSystem()
	m := model(t)
	res, err := Envelope(sys, p, m, Options{VaryIndices: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("expected feasible envelope")
	}
	if res.PeakC > 85+0.5 {
		t.Errorf("envelope peak %v exceeds constraint", res.PeakC)
	}
	if res.EnvelopeW <= 10 {
		t.Errorf("envelope %v W implausibly low", res.EnvelopeW)
	}
	// At the envelope, slightly more power must violate the constraint;
	// verify via a direct solve at 1.1x the found scale.
	over := sys.ScaledSubset(res.Scale*1.1, []int{0, 1})
	srcs := []thermal.Source{
		{Rect: p.Rect(over, 0), Power: over.Chiplets[0].Power},
		{Rect: p.Rect(over, 1), Power: over.Chiplets[1].Power},
		{Rect: p.Rect(over, 2), Power: over.Chiplets[2].Power},
	}
	solved, err := m.Solve(srcs)
	if err != nil {
		t.Fatal(err)
	}
	if solved.PeakC <= 85 {
		t.Errorf("10%% above envelope still feasible (%v C): envelope too conservative", solved.PeakC)
	}
}

func TestSpreadPlacementHasHigherTDP(t *testing.T) {
	// The paper's central claim for E4: a spread placement tolerates more
	// power than a compact one.
	sys, spread := tdpSystem()
	compact := chiplet.NewPlacement(3)
	compact.Centers[0] = geom.Point{X: 16, Y: 22}
	compact.Centers[1] = geom.Point{X: 29, Y: 22} // 1 mm gap between HOTs
	compact.Centers[2] = geom.Point{X: 22, Y: 35}

	m := model(t)
	rSpread, err := Envelope(sys, spread, m, Options{VaryIndices: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	rCompact, err := Envelope(sys, compact, m, Options{VaryIndices: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rSpread.EnvelopeW <= rCompact.EnvelopeW {
		t.Errorf("spread TDP %v W not above compact %v W", rSpread.EnvelopeW, rCompact.EnvelopeW)
	}
}

func TestEnvelopeInfeasibleFixedPower(t *testing.T) {
	sys, p := tdpSystem()
	// Make the non-varied chiplet hot enough to exceed 85 C on its own.
	sys.Chiplets[2].Power = 2000
	m := model(t)
	res, err := Envelope(sys, p, m, Options{VaryIndices: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible {
		t.Errorf("expected infeasible, got envelope %v W", res.EnvelopeW)
	}
}

func TestEnvelopeUnboundedWithinScale(t *testing.T) {
	sys, p := tdpSystem()
	m := model(t)
	// A very low critical temperature forces infeasibility; a very high one
	// hits the MaxScale bound.
	res, err := Envelope(sys, p, m, Options{VaryIndices: []int{0, 1}, CriticalC: 500, MaxScale: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible || res.Scale != 2 {
		t.Errorf("expected scale capped at 2, got %+v", res)
	}
}

func TestEnvelopeErrors(t *testing.T) {
	sys, p := tdpSystem()
	m := model(t)
	if _, err := Envelope(sys, p, m, Options{VaryIndices: []int{9}}); err == nil {
		t.Error("bad vary index accepted")
	}
	zero := *sys
	zero.Chiplets = append([]chiplet.Chiplet{}, sys.Chiplets...)
	zero.Chiplets[0].Power = 0
	zero.Chiplets[1].Power = 0
	if _, err := Envelope(&zero, p, m, Options{VaryIndices: []int{0, 1}}); err == nil {
		t.Error("zero varied power accepted")
	}
	bad := p.Clone()
	bad.Centers[1] = bad.Centers[0]
	if _, err := Envelope(sys, bad, m, Options{}); err == nil {
		t.Error("invalid placement accepted")
	}
}

// TestEnvelopeMatchesBisection: the closed form lands within the replaced
// bisection's 1 W resolution of its answer.
func TestEnvelopeMatchesBisection(t *testing.T) {
	sys, p := tdpSystem()
	for _, vary := range [][]int{{0, 1}, {0, 1, 2}} {
		res, err := Envelope(sys, p, model(t), Options{VaryIndices: vary})
		if err != nil {
			t.Fatal(err)
		}
		want := bisectEnvelope(t, model(t), sys, p, vary)
		if math.Abs(res.EnvelopeW-want) > 1 {
			t.Errorf("vary %v: envelope %v W, bisection %v W", vary, res.EnvelopeW, want)
		}
	}
}

// TestEnvelopeBracketsCritical: direct solves 0.1% below and above the
// envelope's scale straddle the critical temperature, and the superposed
// peak is the critical temperature itself.
func TestEnvelopeBracketsCritical(t *testing.T) {
	sys, p := tdpSystem()
	for _, vary := range [][]int{{0, 1}, {0, 1, 2}} {
		m := model(t)
		res, err := Envelope(sys, p, m, Options{VaryIndices: vary})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.PeakC-85) > 1e-9 {
			t.Errorf("vary %v: superposed peak %v, want 85", vary, res.PeakC)
		}
		if below := peakAt(t, m, sys, p, vary, res.Scale*(1-1e-3)); below > 85 {
			t.Errorf("vary %v: peak %v C just below the envelope exceeds 85", vary, below)
		}
		if above := peakAt(t, m, sys, p, vary, res.Scale*(1+1e-3)); above <= 85 {
			t.Errorf("vary %v: peak %v C just above the envelope is still feasible", vary, above)
		}
	}
}

// TestEnvelopeInfeasiblePeakIsFixedPeak: an infeasible envelope reports the
// fixed chiplets' own peak, as a direct solve with the varied power off.
func TestEnvelopeInfeasiblePeakIsFixedPeak(t *testing.T) {
	sys, p := tdpSystem()
	sys.Chiplets[2].Power = 2000
	res, err := Envelope(sys, p, model(t), Options{VaryIndices: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := peakAt(t, model(t), sys, p, []int{0, 1}, 0)
	if res.Feasible || res.PeakC != want {
		t.Errorf("got %+v, want infeasible at the fixed peak %v C", res, want)
	}
}

// TestEnvelopeCanceled: a canceled context aborts the batched solve.
func TestEnvelopeCanceled(t *testing.T) {
	sys, p := tdpSystem()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := EnvelopeContext(ctx, sys, p, model(t), Options{VaryIndices: []int{0, 1}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("EnvelopeContext error = %v, want context.Canceled", err)
	}
}

// TestEnvelopeSameUnderBothBatchEngines: on one core the batched solve runs
// its columns one at a time; on several, at grid 48 (18,432 rows, above
// sparse.ParallelThresholdRows) it sweeps them together. Both engines must
// give the same Result, bit for bit.
func TestEnvelopeSameUnderBothBatchEngines(t *testing.T) {
	sys, p := tdpSystem()
	envelopeOn := func(procs int) Result {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res, err := Envelope(sys, p, modelAt(t, 48), Options{VaryIndices: []int{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		return *res
	}
	if seq, blocked := envelopeOn(1), envelopeOn(4); seq != blocked {
		t.Errorf("sequential engine %+v, blocked engine %+v", seq, blocked)
	}
}
