package sparse

import (
	"math"
	"math/rand"
	"testing"
)

// stackGeo pairs grid3D's node layout (z*g*g + i*g + j) with the
// GridGeometry the multigrid builder expects.
func stackGeo(g, l int) GridGeometry { return GridGeometry{Layers: l, Nx: g, Ny: g} }

func TestMultigridGeometryValidation(t *testing.T) {
	a := grid3D(8, 2)
	if _, err := NewMultigrid(a, GridGeometry{Layers: 3, Nx: 8, Ny: 8}, MGOptions{}); err == nil {
		t.Fatal("mismatched geometry accepted")
	}
	if _, err := NewMultigrid(a, GridGeometry{}, MGOptions{}); err == nil {
		t.Fatal("zero geometry accepted")
	}
}

func TestMultigridLevels(t *testing.T) {
	// 64 → 32 → 16 → 8 → 4: five levels; coarsest has 4·4·2 = 32 nodes.
	mg, err := NewMultigrid(grid3D(64, 2), stackGeo(64, 2), MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mg.Levels(); got != 5 {
		t.Fatalf("Levels() = %d, want 5", got)
	}
	// A 6×6 plane cannot coarsen at all (below the 8-cell floor).
	mg, err = NewMultigrid(grid3D(6, 2), stackGeo(6, 2), MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := mg.Levels(); got != 1 {
		t.Fatalf("Levels() on 6×6 = %d, want 1 (coarsest-only)", got)
	}
}

// hetStack builds a heterogeneous layered conductance matrix shaped like the
// thermal model's: random in-plane and vertical conductances per cell, and a
// top layer that — like the TIM→spreader coupling onto a larger spreader —
// couples each cell below it to a shifted, shared cell rather than its own
// column, plus convection to ambient on the top layer.
func hetStack(g, l int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(g * g * l)
	id := func(z, i, j int) int { return z*g*g + i*g + j }
	for z := 0; z < l; z++ {
		for i := 0; i < g; i++ {
			for j := 0; j < g; j++ {
				if i+1 < g {
					b.AddSym(id(z, i, j), id(z, i+1, j), 0.5+1.5*rng.Float64())
				}
				if j+1 < g {
					b.AddSym(id(z, i, j), id(z, i, j+1), 0.5+1.5*rng.Float64())
				}
				switch {
				case z+2 < l:
					b.AddSym(id(z, i, j), id(z+1, i, j), 2+8*rng.Float64())
				case z+2 == l:
					b.AddSym(id(z, i, j), id(z+1, g/4+i/2, g/4+j/2), 2+8*rng.Float64())
				default:
					b.AddDiag(id(z, i, j), 0.1)
				}
			}
		}
	}
	return b.Build()
}

// TestMultigridCoarseOperators checks the aggregated operator of every
// level: symmetric, non-positive off-diagonals, weakly diagonally dominant,
// and conserving row sums — each coarse row sum (its conductance to
// ambient) equals the sum of its 2×2 children's row sums on the level above.
func TestMultigridCoarseOperators(t *testing.T) {
	const g, layers = 32, 4
	a := hetStack(g, layers, 9)
	mg, err := NewMultigrid(a, stackGeo(g, layers), MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mg.Levels() < 3 {
		t.Fatalf("Levels() = %d, want ≥ 3", mg.Levels())
	}
	rowSums := func(m *CSR) []float64 {
		ones := make([]float64, m.N)
		for i := range ones {
			ones[i] = 1
		}
		out := make([]float64, m.N)
		m.MulVec(out, ones)
		return out
	}
	fineSums := rowSums(a)
	for l := 1; l < mg.Levels(); l++ {
		lev, fl := mg.s.levels[l], mg.s.levels[l-1]
		ac := mg.lv[l].a
		want := make([]float64, lev.n)
		for f, v := range fineSums {
			p, rem := f/(fl.nx*fl.ny), f%(fl.nx*fl.ny)
			want[(p*lev.ny+rem/fl.nx/2)*lev.nx+rem%fl.nx/2] += v
		}
		got := rowSums(ac)
		entry := map[[2]int32]float64{}
		for i := 0; i < ac.N; i++ {
			var diag, offAbs, scale float64
			for k := ac.RowPtr[i]; k < ac.RowPtr[i+1]; k++ {
				j, v := ac.Col[k], ac.Val[k]
				entry[[2]int32{int32(i), j}] = v
				scale = math.Max(scale, math.Abs(v))
				if int(j) == i {
					diag = v
					continue
				}
				if v > 0 {
					t.Fatalf("level %d: off-diagonal (%d,%d) = %g > 0", l, i, j, v)
				}
				offAbs -= v
			}
			if diag < offAbs*(1-1e-12) {
				t.Fatalf("level %d row %d: diagonal %g < off-diagonal sum %g", l, i, diag, offAbs)
			}
			if math.Abs(got[i]-want[i]) > 1e-9*scale {
				t.Fatalf("level %d: row sum %d = %g, want %g (children's)", l, i, got[i], want[i])
			}
		}
		for ij, v := range entry {
			if w, ok := entry[[2]int32{ij[1], ij[0]}]; !ok || w != v {
				t.Fatalf("level %d: A[%d,%d] = %g but A[%d,%d] = %g", l, ij[0], ij[1], v, ij[1], ij[0], w)
			}
		}
		fineSums = want
	}
}

// TestMultigridUniformRediscretization: on a uniform stack the aggregated
// operator is exactly the coarse grid's own discretization — each in-plane
// coupling keeps its fine value (twice the face, twice the distance), each
// vertical coupling is four fine ones (four times the area) — on every level.
func TestMultigridUniformRediscretization(t *testing.T) {
	const g, layers = 32, 3
	mg, err := NewMultigrid(grid3D(g, layers), stackGeo(g, layers), MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for l := 1; l < mg.Levels(); l++ {
		lev, ac := mg.s.levels[l], mg.lv[l].a
		nxy := lev.nx * lev.ny
		vert := 5 * math.Pow(4, float64(l))
		for i := 0; i < ac.N; i++ {
			for k := ac.RowPtr[i]; k < ac.RowPtr[i+1]; k++ {
				j := int(ac.Col[k])
				want := -1.0
				switch {
				case j == i:
					continue
				case j/nxy != i/nxy:
					want = -vert
				}
				if math.Abs(ac.Val[k]-want) > 1e-12*vert {
					t.Fatalf("level %d: A[%d,%d] = %g, want %g", l, i, j, ac.Val[k], want)
				}
			}
		}
	}
}

// TestMultigridTransferAdjoint: the matrix-free restriction must be the
// exact transpose of the prolongation, ⟨P·x, y⟩ = ⟨x, Pᵀ·y⟩, or the V-cycle
// stops being symmetric. P must also reproduce constants.
func TestMultigridTransferAdjoint(t *testing.T) {
	const g, layers = 32, 3
	mg, err := NewMultigrid(grid3D(g, layers), stackGeo(g, layers), MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for l := 1; l < mg.Levels(); l++ {
		nc, nf := mg.s.levels[l].n, mg.s.levels[l-1].n
		x, px := make([]float64, nc), make([]float64, nf)
		y, pty := make([]float64, nf), make([]float64, nc)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		mg.prolongAdd(l, px, x)
		mg.restrict(l, pty, y)
		var lhs, rhs float64
		for i := range px {
			lhs += px[i] * y[i]
		}
		for i := range x {
			rhs += x[i] * pty[i]
		}
		if math.Abs(lhs-rhs) > 1e-12*(math.Abs(lhs)+math.Abs(rhs)) {
			t.Fatalf("level %d: <Px,y> = %.17g, <x,Pᵀy> = %.17g", l, lhs, rhs)
		}
		for i := range x {
			x[i] = 1
		}
		clear(px)
		mg.prolongAdd(l, px, x)
		for i, v := range px {
			if math.Abs(v-1) > 1e-15 {
				t.Fatalf("level %d: P·1 = %g at fine node %d, want 1", l, v, i)
			}
		}
	}
}

// TestMultigridApplySPD: the V-cycle must be a symmetric positive-definite
// operator — u·M⁻¹v = v·M⁻¹u and r·M⁻¹r > 0 — or PCG's theory (and its
// rz > 0 guard) breaks down.
func TestMultigridApplySPD(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    *CSR
		opt  MGOptions
	}{
		{"cholesky-coarsest", grid3D(16, 4), MGOptions{}},
		{"gs-fallback-coarsest", grid3D(16, 4), MGOptions{CoarsestMaxDense: 1}},
		{"heterogeneous-stack", hetStack(16, 4, 3), MGOptions{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.a
			mg, err := NewMultigrid(a, stackGeo(16, 4), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			u := make([]float64, a.N)
			v := make([]float64, a.N)
			mu := make([]float64, a.N)
			mv := make([]float64, a.N)
			for trial := 0; trial < 4; trial++ {
				for i := range u {
					u[i] = rng.NormFloat64()
					v[i] = rng.NormFloat64()
				}
				mg.Apply(mu, u)
				mg.Apply(mv, v)
				var uMv, vMu, uMu float64
				for i := range u {
					uMv += u[i] * mv[i]
					vMu += v[i] * mu[i]
					uMu += u[i] * mu[i]
				}
				if rel := math.Abs(uMv-vMu) / (math.Abs(uMv) + math.Abs(vMu)); rel > 1e-10 {
					t.Fatalf("asymmetric: u·Mv=%g v·Mu=%g (rel %g)", uMv, vMu, rel)
				}
				if uMu <= 0 {
					t.Fatalf("not positive definite: u·Mu = %g", uMu)
				}
			}
		})
	}
}

func TestMultigridCGAgreesWithJacobi(t *testing.T) {
	a := grid3D(32, 4)
	geo := stackGeo(32, 4)
	rng := rand.New(rand.NewSource(3))
	rhs := make([]float64, a.N)
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	xj := make([]float64, a.N)
	itJ, err := NewCGSolver(a).Solve(xj, rhs, CGOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	mg, err := NewMultigrid(a, geo, MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	xm := make([]float64, a.N)
	itM, err := NewCGSolver(a).Solve(xm, rhs, CGOptions{Tol: 1e-10, Precond: mg})
	if err != nil {
		t.Fatal(err)
	}
	var scale float64
	for i := range xj {
		if v := math.Abs(xj[i]); v > scale {
			scale = v
		}
	}
	for i := range xj {
		if math.Abs(xj[i]-xm[i]) > 1e-7*scale {
			t.Fatalf("x[%d]: jacobi %g vs mg %g (scale %g)", i, xj[i], xm[i], scale)
		}
	}
	if itM >= itJ {
		t.Fatalf("mg took %d iterations, jacobi %d — preconditioner not helping", itM, itJ)
	}
	if mg.Cycles() == 0 || mg.Setups() != 1 {
		t.Fatalf("cycles=%d setups=%d, want >0 and 1", mg.Cycles(), mg.Setups())
	}
}

// TestMultigridIterationScaling: the whole point of the hierarchy — the
// preconditioned iteration count must stay near-constant as the grid grows
// (plain CG grows roughly linearly in grid size).
func TestMultigridIterationScaling(t *testing.T) {
	iters := map[int]int{}
	for _, g := range []int{16, 64} {
		a := grid3D(g, 4)
		mg, err := NewMultigrid(a, stackGeo(g, 4), MGOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rhs := make([]float64, a.N)
		rng := rand.New(rand.NewSource(11))
		for i := range rhs {
			rhs[i] = rng.Float64()
		}
		x := make([]float64, a.N)
		it, err := NewCGSolver(a).Solve(x, rhs, CGOptions{Tol: 1e-8, Precond: mg})
		if err != nil {
			t.Fatal(err)
		}
		iters[g] = it
	}
	if iters[64] > 2*iters[16] {
		t.Fatalf("iterations grew %d → %d from grid 16 to 64; want within 2×", iters[16], iters[64])
	}
}

// TestMultigridRefreshTracksValues: after scaling the bound matrix in place,
// a stale hierarchy must still produce the right answer (the convergence test
// uses true residuals) and a Refresh must restore the iteration count.
func TestMultigridRefreshTracksValues(t *testing.T) {
	a := grid3D(16, 4)
	mg, err := NewMultigrid(a, stackGeo(16, 4), MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]float64, a.N)
	rng := rand.New(rand.NewSource(5))
	for i := range rhs {
		rhs[i] = rng.Float64()
	}
	x := make([]float64, a.N)
	itFresh, err := NewCGSolver(a).Solve(x, rhs, CGOptions{Tol: 1e-10, Precond: mg})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Val {
		a.Val[i] *= 3
	}
	// Stale hierarchy: still converges, to the correct (scaled) solution.
	want := make([]float64, a.N)
	if _, err := NewCGSolver(a).Solve(want, rhs, CGOptions{Tol: 1e-12}); err != nil {
		t.Fatal(err)
	}
	xStale := make([]float64, a.N)
	if _, err := NewCGSolver(a).Solve(xStale, rhs, CGOptions{Tol: 1e-10, Precond: mg}); err != nil {
		t.Fatalf("stale-precond solve failed: %v", err)
	}
	var scale float64
	for _, v := range want {
		if m := math.Abs(v); m > scale {
			scale = m
		}
	}
	for i := range want {
		if math.Abs(xStale[i]-want[i]) > 1e-6*scale {
			t.Fatalf("stale x[%d] = %g, want %g", i, xStale[i], want[i])
		}
	}
	// Refreshed hierarchy: uniform scaling leaves the preconditioned system
	// as well-conditioned as before, so the iteration count comes back.
	if err := mg.Refresh(); err != nil {
		t.Fatal(err)
	}
	xNew := make([]float64, a.N)
	itRefreshed, err := NewCGSolver(a).Solve(xNew, rhs, CGOptions{Tol: 1e-10, Precond: mg})
	if err != nil {
		t.Fatal(err)
	}
	if itRefreshed > itFresh+2 {
		t.Fatalf("refreshed solve took %d iterations, fresh took %d", itRefreshed, itFresh)
	}
	if mg.Setups() != 2 {
		t.Fatalf("Setups() = %d, want 2", mg.Setups())
	}
}

func TestMultigridRefreshRejectsNonSPD(t *testing.T) {
	a := grid3D(8, 2)
	mg, err := NewMultigrid(a, stackGeo(8, 2), MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Val {
		a.Val[i] = -a.Val[i]
	}
	if err := mg.Refresh(); err == nil {
		t.Fatal("Refresh accepted a negated matrix")
	}
}

// TestMultigridStructureShared: two instances over the same geometry and
// pattern must share one symbolic hierarchy (that sharing is what lets
// best-of-N replicas amortize the setup).
func TestMultigridStructureShared(t *testing.T) {
	a1 := grid3D(16, 3)
	a2 := grid3D(16, 3)
	mg1, err := NewMultigrid(a1, stackGeo(16, 3), MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mg2, err := NewMultigrid(a2, stackGeo(16, 3), MGOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mg1.s != mg2.s {
		t.Fatal("identical (geometry, pattern) pairs built distinct symbolic hierarchies")
	}
}

func TestDenseCholeskySolve(t *testing.T) {
	a := grid3D(8, 1) // small SPD system, factored entirely
	L, err := denseCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	want := make([]float64, a.N)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	rhs := make([]float64, a.N)
	a.MulVec(rhs, want)
	got := make([]float64, a.N)
	cholSolve(L, a.N, got, rhs)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-8*(1+math.Abs(want[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}
