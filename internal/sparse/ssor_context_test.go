package sparse

import (
	"context"
	"errors"
	"testing"
)

// TestSolveCGSSORContextCanceled mirrors TestSolveCGContextCanceled for the
// SSOR-preconditioned path: the recovery ladder's fallback rung must honor
// cancellation at the same cadence as plain CG, or an operator interrupt
// during a degraded solve would hang for the full iteration budget. SSOR
// converges much faster than Jacobi on the chain, so the system is sized to
// guarantee the solve is still running at the first poll.
func TestSolveCGSSORContextCanceled(t *testing.T) {
	a, rhs := chainSystem(4096)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	x := make([]float64, a.N)
	it, err := solveSSOR(ctx, a, x, rhs, CGOptions{Tol: 1e-12})
	if err == nil {
		t.Fatal("canceled SSOR solve returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if it == 0 || it > cancelCheckInterval {
		t.Fatalf("canceled at iteration %d, want the first poll at %d", it, cancelCheckInterval)
	}
}

// TestSolveCGSSORUncanceledBitIdentical: a live context must not perturb the
// SSOR arithmetic — two solves, one under a cancellable context, must agree
// bit for bit.
func TestSolveCGSSORUncanceledBitIdentical(t *testing.T) {
	a, rhs := chainSystem(300)
	x1 := make([]float64, a.N)
	x2 := make([]float64, a.N)
	it1, err1 := solveSSOR(context.Background(), a, x1, rhs, CGOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it2, err2 := solveSSOR(ctx, a, x2, rhs, CGOptions{})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if it1 != it2 {
		t.Fatalf("iteration counts differ: %d vs %d", it1, it2)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("x[%d] differs: %v vs %v", i, x1[i], x2[i])
		}
	}
}
