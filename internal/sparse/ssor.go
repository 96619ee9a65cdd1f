package sparse

// SSOR is the symmetric Gauss-Seidel (SSOR, ω = 1) preconditioner
// M = (D+L)·D⁻¹·(D+L)ᵀ of a bound matrix. It is strictly stronger than the
// Jacobi scaling — each application costs one forward and one backward
// triangular sweep, O(nnz), instead of a diagonal scale — which makes it the
// thermal recovery ladder's fallback when a solve fails to converge within
// its budget.
//
// Apply reads the matrix's current values, so they may change between
// solves with no refresh. Every row must store a positive diagonal, which
// CGSolver checks before the first Apply of each solve. An SSOR is not safe
// for concurrent use (the sweeps share one scratch vector).
type SSOR struct {
	a        *CSR
	diagSlot []int32
	y        []float64
}

// NewSSOR binds an SSOR preconditioner to a, allocating its scratch once.
func NewSSOR(a *CSR) *SSOR {
	return &SSOR{a: a, diagSlot: findDiagSlots(a.N, a.RowPtr, a.Col), y: make([]float64, a.N)}
}

// Apply solves M·z = r via (D+L)·y = r, then (D+L)ᵀ·z = D·y, and returns r·z.
// It implements Preconditioner.
func (m *SSOR) Apply(z, r []float64) float64 {
	a, y := m.a, m.y
	n := a.N
	// Forward substitution with the strictly-lower part.
	for i := 0; i < n; i++ {
		s := r[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.Col[k])
			if j < i {
				s -= a.Val[k] * y[j]
			}
		}
		y[i] = s / a.Val[m.diagSlot[i]]
	}
	// Backward substitution with the strictly-upper part on D·y.
	for i := n - 1; i >= 0; i-- {
		d := a.Val[m.diagSlot[i]]
		s := d * y[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := int(a.Col[k])
			if j > i {
				s -= a.Val[k] * z[j]
			}
		}
		z[i] = s / d
	}
	var rz float64
	for i := range z[:n] {
		rz += r[i] * z[i]
	}
	return rz
}
