package thermal

import (
	"testing"

	"tap25d/internal/material"
)

// mgModel returns a grid-g multigrid model of the cpudram case study on the
// real DefaultStack after one solve, with its hierarchy built.
func mgModel(tb testing.TB, g int) (*Model, []Source) {
	tb.Helper()
	pc := precondCases()[1]
	stack := material.DefaultStack()
	m, err := NewModel(pc.w, pc.h, Options{Grid: g, Stack: &stack, Precond: "mg"})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := m.Solve(pc.sources); err != nil {
		tb.Fatal(err)
	}
	return m, pc.sources
}

// TestMGOperatorComplexity: the aggregated coarse operators keep the fine
// level's sparsity, so the whole hierarchy stores at most 1.4× the fine
// operator's entries on the real stack (a Galerkin hierarchy stored ~3×).
func TestMGOperatorComplexity(t *testing.T) {
	if testing.Short() {
		t.Skip("grid-128 hierarchy")
	}
	m, _ := mgModel(t, 128)
	if oc := m.mg.OperatorComplexity(); oc > 1.4 {
		t.Fatalf("operator complexity %.3f at grid 128, want ≤ 1.4", oc)
	}
}

// BenchmarkMGVCycle times one V-cycle at grid 128 on the real stack.
func BenchmarkMGVCycle(b *testing.B) {
	m, _ := mgModel(b, 128)
	r := make([]float64, m.nNodes)
	z := make([]float64, m.nNodes)
	for i := range r {
		r[i] = float64(i%13) - 6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.mg.Apply(z, r)
	}
}

// BenchmarkMGRefresh times one hierarchy refresh at grid 128 on the real
// stack — the cost the eager refresh pays after every value-changing delta.
func BenchmarkMGRefresh(b *testing.B) {
	m, _ := mgModel(b, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.mg.Refresh(); err != nil {
			b.Fatal(err)
		}
	}
}
