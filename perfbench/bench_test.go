package main

import (
	"math"
	"reflect"
	"testing"
)

// countMetrics are the per-layer metrics that are counts of work: at a
// fixed workload seed they must repeat exactly.
var countMetrics = []string{
	"placer.exact_evals_per_step", "placer.wirelength_mm",
	"surrogate.hit_rate", "surrogate.audits_per_kstep", "surrogate.refits",
	"thermal.delta_assembles_per_solve", "thermal.skipped_assembles_per_solve",
	"sparse.cg_iters_per_solve", "sparse.mg_cycles_per_solve", "sparse.mg_setups_per_solve",
	"sparse.cg_retries", "sparse.cg_fallbacks",
	"route.calls_per_step",
	"tdp.solves_per_envelope", "tdp.cg_iters_per_envelope",
	"btree.illegal_frac",
	"service.checkpoints_per_job", "service.rejects",
}

// briefSeconds sizes each workload's run in the tests: one seed, one
// rotation, or one second of arrivals.
var briefSeconds = map[string]float64{
	"sa_exact_g64":    1,
	"sa_default_g128": 1,
	"signoff_g64":     1,
	"service_jobs":    1,
}

func tracedRun(t *testing.T, name string, seed int64) *report {
	t.Helper()
	p := params{workload: name, seed: seed, seconds: briefSeconds[name], trace: true, workdir: t.TempDir()}
	r := newReport()
	if err := workloads[name](p, newTracer(), r); err != nil {
		t.Fatalf("%s seed %d: %v", name, seed, err)
	}
	if r.failed > 0 || len(r.problems) > 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", name, seed, r.failed, r.attempted, r.problems)
	}
	return r
}

// TestCountsRepeat runs every workload traced at two workload seeds, twice
// each, and checks that the outputs pass and every count repeats exactly.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times")
	}
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{3, 8} {
				a, b := tracedRun(t, name, seed), tracedRun(t, name, seed)
				for _, m := range countMetrics {
					if a.layer[m] != b.layer[m] {
						t.Errorf("seed %d: %s = %v, then %v", seed, m, a.layer[m], b.layer[m])
					}
				}
				if u := a.layer["bench.unattributed_frac"]; u > 0.05 {
					t.Errorf("seed %d: unattributed share %v", seed, u)
				}
			}
		})
	}
}

func TestSpanArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "run", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "a", Start: 1, End: 4},
		{ID: 3, Parent: 2, Name: "b", Start: 2, End: 3},
		{ID: 4, Parent: 2, Name: "b", Start: 2.5, End: 3.5},
		{ID: 5, Parent: 1, Name: "a", Start: 6, End: 9},
	}
	if got := selfMS(spans, "a"); got[0] != 1.5 || got[1] != 3 {
		t.Errorf("self times %v, want [1.5 3]", got)
	}
	if got := unattributed(spans, 1); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("unattributed %v, want 0.4", got)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median %v, want 2.5", got)
	}
	if got := quantile(nil, 0.9); got != 0 {
		t.Errorf("quantile of nothing %v, want 0", got)
	}
}

func TestScheduleRepeats(t *testing.T) {
	a, err := schedule(5, 20, &compactDraws{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := schedule(5, 20, &compactDraws{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("schedules of %d and %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i].due != b[i].due || !reflect.DeepEqual(a[i].spec, b[i].spec) || a[i].replay != b[i].replay {
			t.Fatalf("arrival %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		if r := a[i].replay; r >= 0 && (r >= i || a[r].replay >= 0) {
			t.Fatalf("arrival %d replays %d, which is not an earlier fresh job", i, r)
		}
	}
}
