package sparse

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"tap25d/internal/faultinject"
)

// laplacian2D assembles the 5-point Laplacian with a small diagonal shift on
// an n×n grid — the same SPD structure as the thermal conductance systems.
func laplacian2D(n int) *CSR {
	b := NewBuilder(n * n)
	idx := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i+1 < n {
				b.AddSym(idx(i, j), idx(i+1, j), 1)
			}
			if j+1 < n {
				b.AddSym(idx(i, j), idx(i, j+1), 1)
			}
			b.AddDiag(idx(i, j), 0.01)
		}
	}
	return b.Build()
}

// solveSSOR runs one SSOR-preconditioned solve through a fresh CGSolver.
func solveSSOR(ctx context.Context, a *CSR, x, b []float64, opt CGOptions) (int, error) {
	opt.Precond = NewSSOR(a)
	return NewCGSolver(a).SolveContext(ctx, x, b, opt)
}

func TestSolveCGSSORMatchesCG(t *testing.T) {
	a := laplacian2D(20)
	n := a.N
	rng := rand.New(rand.NewSource(5))
	bvec := make([]float64, n)
	for i := range bvec {
		bvec[i] = rng.Float64() - 0.5
	}
	xj := make([]float64, n)
	xs := make([]float64, n)
	opt := CGOptions{Tol: 1e-10}
	if _, err := NewCGSolver(a).Solve(xj, bvec, opt); err != nil {
		t.Fatalf("Jacobi CG: %v", err)
	}
	if _, err := solveSSOR(context.Background(), a, xs, bvec, opt); err != nil {
		t.Fatalf("SSOR CG: %v", err)
	}
	for i := range xj {
		if math.Abs(xj[i]-xs[i]) > 1e-7*(1+math.Abs(xj[i])) {
			t.Fatalf("solutions disagree at %d: jacobi=%g ssor=%g", i, xj[i], xs[i])
		}
	}
}

func TestSolveCGSSORConvergesFasterIterations(t *testing.T) {
	a := laplacian2D(24)
	n := a.N
	bvec := make([]float64, n)
	for i := range bvec {
		bvec[i] = 1
	}
	xj := make([]float64, n)
	xs := make([]float64, n)
	opt := CGOptions{Tol: 1e-9}
	itJ, err := NewCGSolver(a).Solve(xj, bvec, opt)
	if err != nil {
		t.Fatalf("Jacobi CG: %v", err)
	}
	itS, err := solveSSOR(context.Background(), a, xs, bvec, opt)
	if err != nil {
		t.Fatalf("SSOR CG: %v", err)
	}
	// The whole point of the stronger preconditioner: fewer iterations on the
	// same system. This is the property the recovery ladder relies on.
	if itS >= itJ {
		t.Errorf("SSOR CG took %d iterations, Jacobi took %d; expected a reduction", itS, itJ)
	}
}

func TestSolveCGSSORBudgetExhaustion(t *testing.T) {
	a := laplacian2D(16)
	n := a.N
	bvec := make([]float64, n)
	for i := range bvec {
		bvec[i] = 1
	}
	x := make([]float64, n)
	_, err := solveSSOR(context.Background(), a, x, bvec, CGOptions{Tol: 1e-14, MaxIter: 1})
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("want ErrNoConvergence, got %v", err)
	}
}

func TestCGInjectedFaultMatchesNoConvergence(t *testing.T) {
	a := laplacian2D(8)
	n := a.N
	bvec := make([]float64, n)
	for i := range bvec {
		bvec[i] = 1
	}
	inj := faultinject.New(1)
	inj.Arm(faultinject.PointCGSolve, faultinject.Spec{At: 2})

	x := make([]float64, n)
	opt := CGOptions{Inject: inj}
	// First solve passes through untouched.
	if _, err := NewCGSolver(a).Solve(x, bvec, opt); err != nil {
		t.Fatalf("first solve: %v", err)
	}
	// Second solve hits the armed point; the error must look like a real
	// non-convergence AND be identifiable as injected.
	x2 := make([]float64, n)
	_, err := NewCGSolver(a).Solve(x2, bvec, opt)
	if err == nil {
		t.Fatal("armed injector did not fire")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Errorf("injected fault %v does not match ErrNoConvergence", err)
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Errorf("injected fault %v does not match faultinject.ErrInjected", err)
	}
	// Third solve passes again (At fires exactly once).
	x3 := make([]float64, n)
	if _, err := NewCGSolver(a).Solve(x3, bvec, opt); err != nil {
		t.Fatalf("third solve: %v", err)
	}
}
