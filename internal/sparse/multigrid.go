package sparse

import (
	"fmt"
	"math"
	"slices"
	"sync"
)

// This file implements a geometric multigrid V-cycle preconditioner for the
// structured layered grids behind the thermal conductance matrices. The stack
// is a fixed number of Nx×Ny planes (device layers, spreader, sink) and only
// the in-plane resolution grows with fidelity, so the hierarchy semi-coarsens:
// each level halves Nx and Ny and never merges layers. That matches the
// physics — vertical conductances (thin layers, large cell areas) dominate the
// lateral ones, and coupling a node tightly to its whole vertical column is
// exactly what the un-coarsened layer dimension preserves.
//
// Components, per level:
//
//   - cell-centered bilinear prolongation P (≤4 coarse parents per fine cell,
//     boundary weight folded onto the nearest parent so rows sum to 1 and the
//     constant vector — the near-nullspace of a conductance matrix — is
//     reproduced exactly), with restriction R = Pᵀ. P is the tensor product
//     of two 1-D interpolations, so both transfers run matrix-free as
//     separable passes (along x, then along y) over per-axis weight tables;
//     nothing of the size of P is stored;
//   - coarse operators re-discretized on the coarse grid by aggregation: a
//     coarse cell is a 2×2 in-plane block of the finer level. Couplings
//     between layers (vertical, TIM→spreader, spreader→sink) are summed over
//     the block, since the coarse cell has four times the area. In-plane
//     couplings across a block face are summed and then halved, since the
//     coarse cell is twice as wide and twice as long. The diagonal is set so
//     each coarse row sum — the cell's conductance to ambient — equals the
//     sum of its children's row sums. Every level is therefore again a
//     symmetric, weakly diagonally dominant M-matrix with the fine level's
//     sparsity (operator complexity ≈ 4/3), and refreshing it is one O(nnz)
//     scatter of the finer level's values through a fine-slot → coarse-slot
//     map;
//   - vertical-line block Gauss-Seidel smoothing: one forward sweep before
//     and one backward sweep after the coarse correction, where each "point"
//     of the sweep is a whole vertical column solved exactly through its
//     tridiagonal factorization, with the off-column couplings (split out at
//     Refresh) on the right-hand side. Lines in the strong (vertical)
//     direction are the textbook smoother for this anisotropy — point
//     smoothers leave vertically-smooth, laterally-oscillatory error
//     untouched. Forward and backward sweeps are A-adjoints of each other and
//     block GS is unconditionally A-norm convergent for SPD matrices, so the
//     V-cycle is symmetric positive definite with no damping parameter to
//     tune;
//   - a dense Cholesky solve at the coarsest level, falling back to a fixed
//     number of symmetric Gauss-Seidel sweeps when coarsening stalls early
//     (odd dimensions) and the coarsest system is too large to factor.
//
// The symbolic work — transfer weights, coarse sparsity patterns, the
// aggregation and off-column maps — depends only on the grid geometry and
// the fine matrix pattern, both of which are shared by every evaluator
// replica of one placement flow and every service worker solving the same
// model. It is therefore built once per (geometry, pattern) pair and cached
// process-wide (mgStructCache); a Multigrid instance owns only the numeric
// state (coarse values, smoother factors, the coarsest factorization,
// scratch), which Refresh recomputes from the live fine values in one
// deterministic pass.

// GridGeometry describes the structured layered grid behind a matrix:
// Layers planes of Ny rows × Nx columns, with node (l, i, j) stored at index
// (l*Ny+i)*Nx + j — the thermal model's layout with Nx = Ny = grid.
type GridGeometry struct {
	Layers, Nx, Ny int
}

// Nodes returns the node count of the grid.
func (g GridGeometry) Nodes() int { return g.Layers * g.Nx * g.Ny }

// MGOptions tunes the multigrid hierarchy. The zero value selects defaults
// suitable for the thermal conductance systems.
type MGOptions struct {
	// CoarsestMaxDense is the largest coarsest-level size that is factored
	// densely (default 1024 nodes); larger coarsest systems — which only
	// arise when odd grid dimensions stop the coarsening early — are solved
	// approximately by GSSweeps symmetric Gauss-Seidel sweeps instead.
	CoarsestMaxDense int
	// GSSweeps is the symmetric Gauss-Seidel sweep count of the non-dense
	// coarsest fallback (default 4). A fixed sweep count from a zero guess is
	// a fixed symmetric linear operator, so the fallback preserves the
	// SPD property PCG needs.
	GSSweeps int
}

func (o MGOptions) withDefaults() MGOptions {
	if o.CoarsestMaxDense <= 0 {
		o.CoarsestMaxDense = 1024
	}
	if o.GSSweeps <= 0 {
		o.GSSweeps = 4
	}
	return o
}

// axisTransfer is the 1-D cell-centered linear interpolation along one axis
// from nc coarse cells to nf = 2·nc fine cells: per fine index, the primary
// parent c0 and the neighbor c1 the fine cell's center leans toward, with
// weights w0 + w1 = 1 (see interp1D). The 2-D prolongation of a plane is the
// product of the x and y tables, and restriction applies the same tables
// transposed.
type axisTransfer struct {
	c0, c1 []int32
	w0, w1 []float64
}

func newAxisTransfer(nf, nc int) axisTransfer {
	t := axisTransfer{
		c0: make([]int32, nf), c1: make([]int32, nf),
		w0: make([]float64, nf), w1: make([]float64, nf),
	}
	for f := 0; f < nf; f++ {
		c0, w0, c1, w1 := interp1D(f, nc)
		t.c0[f], t.c1[f], t.w0[f], t.w1[f] = int32(c0), int32(c1), w0, w1
	}
	return t
}

// mgLevel is the immutable, shareable symbolic description of one hierarchy
// level: its dimensions, its operator sparsity pattern (levels ≥ 1; level 0
// uses the bound matrix's own pattern), the line smoother's column split,
// and — for levels ≥ 1 — the transfers and aggregation map between this
// level and the next finer one.
type mgLevel struct {
	nx, ny, n int

	// Operator pattern and per-row entry slots. rowPtr/col are nil at level 0
	// (the fine pattern belongs to the caller's matrix); diagSlot, upSlot and
	// dnSlot — the value-slot indices of a row's diagonal and of its vertical
	// couplings to the layers above and below (-1 when absent) — are populated
	// for every level. In-plane coarsening never merges layers, so vertical
	// couplings stay within a column at stride nx·ny on every level, which is
	// what makes the line smoother's blocks exactly tridiagonal.
	rowPtr, col              []int32
	diagSlot, upSlot, dnSlot []int32

	// Off-column couplings of each row — every entry but the diagonal and the
	// up/down slots — as a CSR over offPtr/offCol with rows in line-sweep
	// order (see splitColumns); offSlot[q] is the value slot entry q copies
	// from at Refresh.
	offPtr, offCol, offSlot []int32

	// Transfers to the next finer level, one table per axis.
	tx, ty axisTransfer

	// agg maps each value slot of the next finer level's operator to the slot
	// of this level it aggregates into. A negative entry ^s marks an in-plane
	// coupling across a block face: half its value goes to slot s and half
	// to the diagonal of the fine row's parent, which keeps the row sums.
	agg []int32
}

// mgStructure is the full symbolic hierarchy for one (geometry, pattern)
// pair. It is immutable after construction and shared across Multigrid
// instances via mgStructCache.
type mgStructure struct {
	geo    GridGeometry
	levels []*mgLevel
}

// mgCacheKey identifies a symbolic hierarchy: the grid geometry plus a hash
// of the fine sparsity pattern (two matrices with equal geometry and pattern
// coarsen identically).
type mgCacheKey struct {
	layers, nx, ny, nnz int
	hash                uint64
}

var mgStructCache sync.Map // mgCacheKey -> *mgStructure

// patternHash is FNV-1a over the CSR row pointers and column indices.
func patternHash(a *CSR) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v int32) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(uint8(v >> s))
			h *= prime
		}
	}
	for _, v := range a.RowPtr {
		mix(v)
	}
	for _, v := range a.Col {
		mix(v)
	}
	return h
}

// canCoarsen reports whether an nx×ny plane supports another 2× coarsening:
// both dimensions even, and large enough that a coarser level still has
// meaningful in-plane structure.
func canCoarsen(nx, ny int) bool {
	return nx >= 8 && ny >= 8 && nx%2 == 0 && ny%2 == 0
}

// interp1D returns the cell-centered linear interpolation of fine index f
// from a coarse axis of nc cells: the primary parent c0 = f/2 and, when it
// exists, the neighbor toward which cell f's center leans. At the boundary
// the neighbor weight is folded onto the primary parent (c1 = c0, w1 = 0),
// keeping the row sum at 1 so constants interpolate exactly.
func interp1D(f, nc int) (c0 int, w0 float64, c1 int, w1 float64) {
	c0 = f / 2
	if f%2 == 0 {
		c1 = c0 - 1
	} else {
		c1 = c0 + 1
	}
	if c1 < 0 || c1 >= nc {
		return c0, 1, c0, 0
	}
	return c0, 0.75, c1, 0.25
}

// buildAggregation fills lev's operator pattern from the finer level's
// (nxF×nyF planes, pattern fineRowPtr/fineCol): coarse row I couples to the
// parent block of every column its four children couple to. It also records
// lev.agg, the fine-slot → coarse-slot map Refresh scatters values through.
func buildAggregation(lev *mgLevel, nxF, nyF int, fineRowPtr, fineCol []int32) {
	nxC, nyC := lev.nx, lev.ny
	nxyF, nxyC := nxF*nyF, nxC*nyC
	parent := func(f int32) int32 {
		p, rem := int(f)/nxyF, int(f)%nxyF
		return int32((p*nyC+rem/nxF/2)*nxC + rem%nxF/2)
	}
	lev.rowPtr = make([]int32, lev.n+1)
	lev.agg = make([]int32, len(fineCol))
	var cols []int32
	mark := make([]int32, lev.n)
	slot := make([]int32, lev.n) // coarse column -> value slot in the current row
	for i := range mark {
		mark[i] = -1
	}
	var children [4]int32
	for I := 0; I < lev.n; I++ {
		p, ic, jc := I/nxyC, I%nxyC/nxC, I%nxC
		for c := range children {
			children[c] = int32((p*nyF+2*ic+c/2)*nxF + 2*jc + c%2)
		}
		start := len(cols)
		for _, f := range children {
			for k := fineRowPtr[f]; k < fineRowPtr[f+1]; k++ {
				if J := parent(fineCol[k]); mark[J] != int32(I) {
					mark[J] = int32(I)
					cols = append(cols, J)
				}
			}
		}
		slices.Sort(cols[start:])
		for s, J := range cols[start:] {
			slot[J] = int32(start + s)
		}
		lev.rowPtr[I+1] = int32(len(cols))
		for _, f := range children {
			for k := fineRowPtr[f]; k < fineRowPtr[f+1]; k++ {
				g := fineCol[k]
				J := parent(g)
				switch {
				case J == int32(I):
					lev.agg[k] = slot[I] // diagonal or inside the block
				case int(g)/nxyF == int(f)/nxyF:
					lev.agg[k] = ^slot[J] // in-plane across a block face
				default:
					lev.agg[k] = slot[J] // between layers
				}
			}
		}
	}
	lev.col = slices.Clip(cols)
}

// findDiagSlots records, per row, the value-slot index of the diagonal entry
// (-1 when a row stores none, which a conductance matrix never does).
func findDiagSlots(n int, rowPtr, col []int32) []int32 {
	slots := make([]int32, n)
	for i := 0; i < n; i++ {
		slots[i] = -1
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if int(col[k]) == i {
				slots[i] = k
				break
			}
		}
	}
	return slots
}

// findVertSlots records, per row, the value-slot indices of the vertical
// couplings to the same in-plane position one layer up (row+nxy) and one
// layer down (row-nxy), -1 when the row has none (top/bottom layer, or a
// pattern without that coupling).
func findVertSlots(n, nxy int, rowPtr, col []int32) (up, dn []int32) {
	up = make([]int32, n)
	dn = make([]int32, n)
	for i := 0; i < n; i++ {
		up[i], dn[i] = -1, -1
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			switch int(col[k]) {
			case i + nxy:
				up[i] = k
			case i - nxy:
				dn[i] = k
			}
		}
	}
	return up, dn
}

// splitColumns finds lev's diagonal and vertical slots in the pattern
// rowPtr/col and records every remaining entry as an off-column coupling.
// The off-column rows are stored in the line smoother's visiting order —
// column by column, bottom layer to top (position c·layers + p for the node
// of layer p in in-plane column c) — so each sweep streams them
// sequentially.
func splitColumns(lev *mgLevel, layers int, rowPtr, col []int32) {
	lev.diagSlot = findDiagSlots(lev.n, rowPtr, col)
	nxy := lev.nx * lev.ny
	lev.upSlot, lev.dnSlot = findVertSlots(lev.n, nxy, rowPtr, col)
	lev.offPtr = make([]int32, lev.n+1)
	for c := 0; c < nxy; c++ {
		for p := 0; p < layers; p++ {
			i := p*nxy + c
			for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
				if k != lev.diagSlot[i] && k != lev.upSlot[i] && k != lev.dnSlot[i] {
					lev.offCol = append(lev.offCol, col[k])
					lev.offSlot = append(lev.offSlot, k)
				}
			}
			lev.offPtr[c*layers+p+1] = int32(len(lev.offCol))
		}
	}
}

// mgStructureFor returns the shared symbolic hierarchy for (a, geo), building
// and caching it on first use.
func mgStructureFor(a *CSR, geo GridGeometry) *mgStructure {
	key := mgCacheKey{layers: geo.Layers, nx: geo.Nx, ny: geo.Ny, nnz: a.NNZ(), hash: patternHash(a)}
	if v, ok := mgStructCache.Load(key); ok {
		return v.(*mgStructure)
	}
	s := &mgStructure{geo: geo}
	fine := &mgLevel{nx: geo.Nx, ny: geo.Ny, n: geo.Nodes()}
	splitColumns(fine, geo.Layers, a.RowPtr, a.Col)
	s.levels = append(s.levels, fine)
	rowPtr, col := a.RowPtr, a.Col
	nx, ny := geo.Nx, geo.Ny
	for canCoarsen(nx, ny) {
		nxC, nyC := nx/2, ny/2
		lev := &mgLevel{nx: nxC, ny: nyC, n: geo.Layers * nxC * nyC}
		lev.tx, lev.ty = newAxisTransfer(nx, nxC), newAxisTransfer(ny, nyC)
		buildAggregation(lev, nx, ny, rowPtr, col)
		splitColumns(lev, geo.Layers, lev.rowPtr, lev.col)
		s.levels = append(s.levels, lev)
		rowPtr, col = lev.rowPtr, lev.col
		nx, ny = nxC, nyC
	}
	if v, loaded := mgStructCache.LoadOrStore(key, s); loaded {
		return v.(*mgStructure)
	}
	return s
}

// mgLevelData is the per-instance numeric state of one level: the operator
// (level 0 snapshots the bound fine matrix's values at Refresh; coarser
// levels own aggregated values over the shared pattern), its off-column
// values, the line smoother's per-column tridiagonal LDLᵀ factors (lfac
// holds the unit-lower multiplier of each row toward the layer below, dinv
// the inverse pivots; both in line-sweep order like the off-column rows),
// and scratch vectors.
type mgLevelData struct {
	a          *CSR
	off        []float64
	lfac, dinv []float64
	workers    int
	r, z, t    []float64
}

// Multigrid is a geometric multigrid V-cycle over a bound matrix,
// implementing Preconditioner. The bound matrix's values may change freely
// between solves (the thermal delta-assembly path rewrites them in place);
// call Refresh to fold the current values into the coarse operators — until
// then the cycle preconditions with the values of the previous Refresh,
// which affects CG's iteration count but never its answer.
//
// A Multigrid is not safe for concurrent use (it smooths into per-level
// scratch), but its symbolic skeleton is shared process-wide across
// instances with the same geometry and sparsity pattern.
type Multigrid struct {
	s        *mgStructure
	a        *CSR
	gsSweeps int
	maxDense int

	lv   []mgLevelData
	chol []float64 // dense Cholesky factor of the coarsest level, nil → GS fallback
	invD []float64 // inverse diagonal of the coarsest level, for the GS fallback
	xfer []float64 // one plane of the separable transfers' intermediate pass
	line []float64 // line-smoother block scratch, Layers long

	cycles, setups int64
}

// NewMultigrid builds a V-cycle preconditioner for a, whose rows must be laid
// out as geo describes. The symbolic hierarchy is reused from the
// process-wide cache when an identical (geometry, pattern) pair was built
// before; the numeric state is initialized from a's current values (an
// initial Refresh is included).
func NewMultigrid(a *CSR, geo GridGeometry, opt MGOptions) (*Multigrid, error) {
	if geo.Layers <= 0 || geo.Nx <= 0 || geo.Ny <= 0 {
		return nil, fmt.Errorf("sparse: multigrid geometry %+v not positive", geo)
	}
	if geo.Nodes() != a.N {
		return nil, fmt.Errorf("sparse: multigrid geometry %+v has %d nodes, matrix has %d rows", geo, geo.Nodes(), a.N)
	}
	opt = opt.withDefaults()
	s := mgStructureFor(a, geo)
	mg := &Multigrid{
		s:        s,
		a:        a,
		gsSweeps: opt.GSSweeps,
		maxDense: opt.CoarsestMaxDense,
		lv:       make([]mgLevelData, len(s.levels)),
		line:     make([]float64, geo.Layers),
	}
	if len(s.levels) > 1 {
		mg.xfer = make([]float64, geo.Nx*geo.Ny/2)
	}
	for l, lev := range s.levels {
		d := &mg.lv[l]
		if l == 0 {
			// Level 0 snapshots the bound matrix's values (sharing its
			// pattern) rather than aliasing them: Refresh copies them in, so
			// in-place updates to the bound matrix between refreshes leave
			// the whole hierarchy consistently stale. Mixing live level-0
			// values with stale coarse operators and smoother factors can
			// lose positive definiteness.
			d.a = &CSR{N: a.N, RowPtr: a.RowPtr, Col: a.Col, Val: make([]float64, len(a.Val))}
		} else {
			d.a = &CSR{N: lev.n, RowPtr: lev.rowPtr, Col: lev.col, Val: make([]float64, len(lev.col))}
		}
		d.off = make([]float64, len(lev.offCol))
		d.lfac = make([]float64, lev.n)
		d.dinv = make([]float64, lev.n)
		d.workers = parallelWorkers(lev.n)
		d.r = make([]float64, lev.n)
		d.z = make([]float64, lev.n)
		d.t = make([]float64, lev.n)
	}
	mg.invD = make([]float64, s.levels[len(s.levels)-1].n)
	if err := mg.Refresh(); err != nil {
		return nil, err
	}
	return mg, nil
}

// Levels returns the hierarchy depth (1 means no coarsening was possible and
// the "cycle" is just the coarsest-level solve).
func (mg *Multigrid) Levels() int { return len(mg.lv) }

// Cycles returns the number of V-cycles applied since construction.
func (mg *Multigrid) Cycles() int64 { return mg.cycles }

// Setups returns the number of Refresh passes (including the constructor's).
func (mg *Multigrid) Setups() int64 { return mg.setups }

// OperatorComplexity returns the stored operator entries of all levels over
// those of the fine operator — about 4/3 when every level keeps the fine
// sparsity and each coarsening quarters the node count.
func (mg *Multigrid) OperatorComplexity() float64 {
	var total int
	for _, d := range mg.lv {
		total += d.a.NNZ()
	}
	return float64(total) / float64(mg.lv[0].a.NNZ())
}

// Refresh recomputes the numeric hierarchy from the bound matrix's current
// values: aggregated coarse operators level by level, off-column values and
// line-smoother factors, and the coarsest-level factorization. The pass is
// one deterministic serial sweep, so refreshed hierarchies — and therefore
// preconditioned iteration counts — are reproducible across runs.
func (mg *Multigrid) Refresh() error {
	copy(mg.lv[0].a.Val, mg.a.Val)
	for l := 1; l < len(mg.lv); l++ {
		mg.aggregate(l)
	}
	for l := range mg.lv {
		lev, d := mg.s.levels[l], &mg.lv[l]
		val := d.a.Val
		for i, slot := range lev.diagSlot {
			var v float64
			if slot >= 0 {
				v = val[slot]
			}
			if v <= 0 {
				return fmt.Errorf("sparse: multigrid level %d has non-positive diagonal %g at row %d; matrix not SPD", l, v, i)
			}
		}
		for q, slot := range lev.offSlot {
			d.off[q] = val[slot]
		}
		// Factor each vertical column's tridiagonal block (diagonal plus the
		// up/down couplings) as LDLᵀ for the line smoother. The blocks are
		// principal submatrices of an SPD operator, so positive pivots are
		// guaranteed in exact arithmetic; a non-positive one means the
		// operator itself lost definiteness.
		nxy := lev.nx * lev.ny
		layers := mg.s.geo.Layers
		for c := 0; c < nxy; c++ {
			prev := 0.0
			for p := 0; p < layers; p++ {
				i, q := p*nxy+c, c*layers+p
				piv := val[lev.diagSlot[i]]
				d.lfac[q] = 0
				if p > 0 {
					if s := lev.upSlot[i-nxy]; s >= 0 {
						m := val[s] * prev
						d.lfac[q] = m
						piv -= m * val[s]
					}
				}
				if piv <= 0 {
					return fmt.Errorf("sparse: multigrid level %d line pivot %g <= 0 at row %d; matrix not SPD", l, piv, i)
				}
				prev = 1 / piv
				d.dinv[q] = prev
			}
		}
	}
	last := &mg.lv[len(mg.lv)-1]
	for i, slot := range mg.s.levels[len(mg.lv)-1].diagSlot {
		mg.invD[i] = 1 / last.a.Val[slot]
	}
	if last.a.N <= mg.maxDense {
		chol, err := denseCholesky(last.a)
		if err != nil {
			return fmt.Errorf("sparse: multigrid coarsest level: %w", err)
		}
		mg.chol = chol
	} else {
		mg.chol = nil
	}
	mg.setups++
	return nil
}

// aggregate recomputes level l's operator values from level l-1's by one
// scatter through the aggregation map (see mgLevel.agg). Serial and in fixed
// order, hence deterministic.
func (mg *Multigrid) aggregate(l int) {
	lev, fineLev := mg.s.levels[l], mg.s.levels[l-1]
	fine, cv := mg.lv[l-1].a, mg.lv[l].a.Val
	clear(cv)
	f := 0
	for p := 0; p < mg.s.geo.Layers; p++ {
		for i := 0; i < fineLev.ny; i++ {
			for j := 0; j < fineLev.nx; j++ {
				diag := lev.diagSlot[(p*lev.ny+i/2)*lev.nx+j/2]
				for k := fine.RowPtr[f]; k < fine.RowPtr[f+1]; k++ {
					v, s := fine.Val[k], lev.agg[k]
					if s < 0 {
						s = ^s
						v *= 0.5
						cv[diag] += v
					}
					cv[s] += v
				}
				f++
			}
		}
	}
}

// Apply runs one V-cycle, z ≈ A⁻¹·r, and returns r·z. It implements
// Preconditioner.
func (mg *Multigrid) Apply(z, r []float64) float64 {
	mg.cycles++
	mg.vcycle(0, z, r)
	var rz float64
	for i := range z {
		rz += r[i] * z[i]
	}
	return rz
}

func (mg *Multigrid) mulVec(d *mgLevelData, y, x []float64) {
	if d.workers > 1 {
		d.a.MulVecParallel(y, x, d.workers)
	} else {
		d.a.MulVec(y, x)
	}
}

// vcycle recurses one level: forward line-GS pre-smooth from a zero guess,
// restricted-defect coarse correction, backward line-GS post-smooth. The
// backward sweep is the A-adjoint of the forward one and R = Pᵀ, so the cycle
// is a symmetric positive-definite operator, which is what lets it sit
// inside PCG.
func (mg *Multigrid) vcycle(l int, z, r []float64) {
	d := &mg.lv[l]
	if l == len(mg.lv)-1 {
		if mg.chol != nil {
			cholSolve(mg.chol, d.a.N, z, r)
		} else {
			mg.coarseGS(d, z, r)
		}
		return
	}
	for i := range z {
		z[i] = 0
	}
	mg.lineSweep(l, z, r, false)
	mg.mulVec(d, d.t, z)
	for i := range d.t {
		d.t[i] = r[i] - d.t[i]
	}
	nxt := &mg.lv[l+1]
	mg.restrict(l+1, nxt.r, d.t)
	mg.vcycle(l+1, nxt.z, nxt.r)
	mg.prolongAdd(l+1, z, nxt.z)
	mg.lineSweep(l, z, r, true)
}

// restrict computes rc = Pᵀ·tf from level l-1 (fine) to level l (coarse),
// plane by plane: each fine value is scattered to its parents along x into
// the scratch plane, then each scratch row to its parent rows along y.
func (mg *Multigrid) restrict(l int, rc, tf []float64) {
	lev, fl := mg.s.levels[l], mg.s.levels[l-1]
	nxF, nyF, nxC, nyC := fl.nx, fl.ny, lev.nx, lev.ny
	tx, ty := &lev.tx, &lev.ty
	tmp := mg.xfer[:nyF*nxC]
	for p := 0; p < mg.s.geo.Layers; p++ {
		tfP := tf[p*nxF*nyF:][:nxF*nyF]
		rcP := rc[p*nxC*nyC:][:nxC*nyC]
		clear(tmp)
		for fi := 0; fi < nyF; fi++ {
			row := tfP[fi*nxF:][:nxF]
			out := tmp[fi*nxC:][:nxC]
			for fj, v := range row {
				out[tx.c0[fj]] += tx.w0[fj] * v
				out[tx.c1[fj]] += tx.w1[fj] * v
			}
		}
		clear(rcP)
		for fi := 0; fi < nyF; fi++ {
			w0, w1 := ty.w0[fi], ty.w1[fi]
			src := tmp[fi*nxC:][:nxC]
			a := rcP[int(ty.c0[fi])*nxC:][:nxC]
			b := rcP[int(ty.c1[fi])*nxC:][:nxC]
			for J, v := range src {
				a[J] += w0 * v
				b[J] += w1 * v
			}
		}
	}
}

// prolongAdd adds P·zc from level l (coarse) into zf on level l-1 (fine),
// plane by plane: first along x into the scratch plane, then along y.
func (mg *Multigrid) prolongAdd(l int, zf, zc []float64) {
	lev, fl := mg.s.levels[l], mg.s.levels[l-1]
	nxF, nyF, nxC, nyC := fl.nx, fl.ny, lev.nx, lev.ny
	tx, ty := &lev.tx, &lev.ty
	tmp := mg.xfer[:nyC*nxF]
	for p := 0; p < mg.s.geo.Layers; p++ {
		zcP := zc[p*nxC*nyC:][:nxC*nyC]
		zfP := zf[p*nxF*nyF:][:nxF*nyF]
		for I := 0; I < nyC; I++ {
			row := zcP[I*nxC:][:nxC]
			out := tmp[I*nxF:][:nxF]
			for fj := range out {
				out[fj] = tx.w0[fj]*row[tx.c0[fj]] + tx.w1[fj]*row[tx.c1[fj]]
			}
		}
		for fi := 0; fi < nyF; fi++ {
			w0, w1 := ty.w0[fi], ty.w1[fi]
			a := tmp[int(ty.c0[fi])*nxF:][:nxF]
			b := tmp[int(ty.c1[fi])*nxF:][:nxF]
			out := zfP[fi*nxF:][:nxF]
			for fj := range out {
				out[fj] += w0*a[fj] + w1*b[fj]
			}
		}
	}
}

// lineSweep performs one vertical-line block Gauss-Seidel sweep on level l,
// updating z in place: columns are visited in in-plane order (reversed when
// backward), and each column's block system — its exact tridiagonal, with the
// off-column couplings moved to the right-hand side at their latest values —
// is solved through the LDLᵀ factors prepared by Refresh. Serial and in fixed
// order, hence deterministic; the backward sweep visits columns in exactly
// the reverse order, making it the forward sweep's A-adjoint.
func (mg *Multigrid) lineSweep(l int, z, r []float64, backward bool) {
	lev, d := mg.s.levels[l], &mg.lv[l]
	offPtr, offCol, off := lev.offPtr, lev.offCol, d.off
	nxy := lev.nx * lev.ny
	layers := mg.s.geo.Layers
	t := mg.line
	for bi := 0; bi < nxy; bi++ {
		c := bi
		if backward {
			c = nxy - 1 - bi
		}
		q0 := c * layers
		for p := 0; p < layers; p++ {
			lo, hi := offPtr[q0+p], offPtr[q0+p+1]
			cols := offCol[lo:hi]
			acc := r[p*nxy+c]
			for k, v := range off[lo:hi] {
				acc -= v * z[cols[k]]
			}
			t[p] = acc
		}
		lfac, dinv := d.lfac[q0:q0+layers], d.dinv[q0:q0+layers]
		for p := 1; p < layers; p++ {
			t[p] -= lfac[p] * t[p-1]
		}
		for p := 0; p < layers; p++ {
			t[p] *= dinv[p]
		}
		for p := layers - 2; p >= 0; p-- {
			t[p] -= lfac[p+1] * t[p+1]
		}
		for p := 0; p < layers; p++ {
			z[p*nxy+c] = t[p]
		}
	}
}

// coarseGS approximates the coarsest solve with a fixed number of symmetric
// Gauss-Seidel sweeps from a zero guess — a fixed symmetric linear operator,
// so the overall cycle stays a valid SPD preconditioner even when the
// coarsest system was too large to factor densely.
func (mg *Multigrid) coarseGS(d *mgLevelData, z, r []float64) {
	a, invD := d.a, mg.invD
	n := a.N
	for i := range z {
		z[i] = 0
	}
	for s := 0; s < mg.gsSweeps; s++ {
		for i := 0; i < n; i++ {
			acc := r[i]
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if j := int(a.Col[k]); j != i {
					acc -= a.Val[k] * z[j]
				}
			}
			z[i] = acc * invD[i]
		}
		for i := n - 1; i >= 0; i-- {
			acc := r[i]
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				if j := int(a.Col[k]); j != i {
					acc -= a.Val[k] * z[j]
				}
			}
			z[i] = acc * invD[i]
		}
	}
}

// denseCholesky factors the (small) coarsest operator into a dense lower
// triangle L with A = L·Lᵀ.
func denseCholesky(a *CSR) ([]float64, error) {
	n := a.N
	L := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			L[i*n+int(a.Col[k])] = a.Val[k]
		}
	}
	for j := 0; j < n; j++ {
		d := L[j*n+j]
		for k := 0; k < j; k++ {
			d -= L[j*n+k] * L[j*n+k]
		}
		if d <= 0 {
			return nil, fmt.Errorf("sparse: Cholesky pivot %g <= 0 at row %d; matrix not SPD", d, j)
		}
		dj := math.Sqrt(d)
		L[j*n+j] = dj
		for i := j + 1; i < n; i++ {
			s := L[i*n+j]
			for k := 0; k < j; k++ {
				s -= L[i*n+k] * L[j*n+k]
			}
			L[i*n+j] = s / dj
		}
	}
	return L, nil
}

// cholSolve solves L·Lᵀ·z = r by forward and backward substitution.
func cholSolve(L []float64, n int, z, r []float64) {
	for i := 0; i < n; i++ {
		s := r[i]
		for k := 0; k < i; k++ {
			s -= L[i*n+k] * z[k]
		}
		z[i] = s / L[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := z[i]
		for k := i + 1; k < n; k++ {
			s -= L[k*n+i] * z[k]
		}
		z[i] = s / L[i*n+i]
	}
}
