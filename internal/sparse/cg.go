package sparse

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"unsafe"

	"tap25d/internal/faultinject"
)

// ParallelThresholdRows is the matrix size above which CGSolver partitions
// its matrix-vector products across goroutines. Small systems stay serial:
// below this size the per-product goroutine wake-up costs more than the
// arithmetic it distributes. Row partitioning computes each row exactly as
// the serial kernel does, so parallel products are bit-identical to serial
// ones for any worker count.
var ParallelThresholdRows = 16384

// parallelGrainRows is the row count each parallel worker should own. The
// worker count is derived from the matrix size instead of jumping straight to
// GOMAXPROCS at the threshold: a conductance-matrix row holds ~7 stored
// entries, so 8192 rows are roughly one megabyte of matrix data and tens of
// microseconds of work — enough to amortize a goroutine wake-up (~µs) many
// times over. A fixed GOMAXPROCS fan-out is mis-sized at both ends: at the
// 16384-row threshold it hands each of (say) 16 workers a ~1000-row sliver
// dominated by scheduling, while a 256×256 thermal grid (524288 rows) has
// plenty of rows to feed every core at full grain.
const parallelGrainRows = 8192

// parallelWorkers returns the worker count for n-row matrix-vector products:
// one worker per parallelGrainRows rows, capped at GOMAXPROCS, and serial
// below ParallelThresholdRows. The answer only picks a row partition, which
// is bit-identical to serial for any count.
func parallelWorkers(n int) int {
	if n < ParallelThresholdRows {
		return 1
	}
	w := n / parallelGrainRows
	if max := runtime.GOMAXPROCS(0); w > max {
		w = max
	}
	if w < 2 {
		return 1
	}
	return w
}

// MulVecParallel computes y = A·x with rows partitioned across workers
// goroutines. Each row's dot product runs exactly as in the serial kernel, so
// the result is bit-identical to MulVec regardless of worker count. workers
// values below 2 fall back to the serial path.
func (m *CSR) MulVecParallel(y, x []float64, workers int) {
	if workers < 2 || m.N < 2 {
		m.MulVec(y, x)
		return
	}
	parallelRows(m.N, workers, func(lo, hi int) { m.mulVecRange(y, x, lo, hi) })
}

// parallelRows runs fn over [0, n) split into at most workers contiguous row
// ranges, one goroutine each. Rows are independent in every caller, so any
// partition is bit-identical to one serial sweep.
func parallelRows(n, workers int, fn func(lo, hi int)) {
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// CGSolver is a reusable preconditioned conjugate-gradient solver bound to
// one matrix. It holds the package's only CG iteration (pcg), which serves
// single solves (Solve, SolveContext) and blocked multi-right-hand-side
// solves (SolveBatch) alike; Jacobi, SSOR and Multigrid plug into it as
// Preconditioners. It exists because the placer's inner loop solves
// thousands of times against a matrix whose pattern never changes: the
// solver allocates its scratch vectors and locates the diagonal value slots
// once. Values of the bound matrix may change freely between calls (the
// diagonal is re-read each time); the pattern must not.
//
// A CGSolver is not safe for concurrent use.
type CGSolver struct {
	a        *CSR
	diagSlot []int32 // per-row index into a.Val of the diagonal, -1 if absent
	workers  int
	jacobi   jacobi
	one      *cgCols // single-column state over the solver's own scratch
}

// NewCGSolver prepares a reusable solver for a. The pattern of a is frozen
// from the solver's point of view; its values may be updated in place between
// solves.
func NewCGSolver(a *CSR) *CGSolver {
	return &CGSolver{
		a:        a,
		diagSlot: findDiagSlots(a.N, a.RowPtr, a.Col),
		workers:  parallelWorkers(a.N),
		jacobi:   jacobi{invD: make([]float64, a.N)},
		one:      newCGCols(a.N, 1),
	}
}

// jacobi is the diagonal preconditioner z = D⁻¹·r, what a nil
// CGOptions.Precond means. Its inverse diagonal is refreshed by every solve.
// Apply only reads invD, so columns of a batch may apply it concurrently.
type jacobi struct{ invD []float64 }

// Apply sets z = D⁻¹·r and returns r·z, both in one pass.
func (j *jacobi) Apply(z, r []float64) float64 {
	invD := j.invD[:len(r)]
	z = z[:len(r)]
	var rz float64
	for i, ri := range r {
		zi := invD[i] * ri
		z[i] = zi
		rz += ri * zi
	}
	return rz
}

// mulVec computes y = A·x with the solver's worker setting.
func (s *CGSolver) mulVec(y, x []float64) {
	s.a.MulVecParallel(y, x, s.workers)
}

// mulVecDot computes y = A·x and returns dot(w, y). The dot accumulates in
// row order, so the result is bit-identical to a separate MulVec followed by
// a serial dot product.
//
// The serial path gathers through raw pointers: the column index c is
// data-dependent, so the x[c] bounds check cannot be proven away, and this
// loop is the single hottest in the annealer (it runs once per CG iteration
// over every stored entry). Safety rests on the CSR invariants — RowPtr
// ascending within [0, nnz], every Col entry in [0, N) — which Build and
// BuildFixed establish and nothing mutates.
func (s *CGSolver) mulVecDot(y, x, w []float64) float64 {
	a := s.a
	if s.workers > 1 {
		a.MulVecParallel(y, x, s.workers)
		var d float64
		for i, v := range y {
			d += w[i] * v
		}
		return d
	}
	n := a.N
	rowPtr := a.RowPtr
	colp := unsafe.Pointer(unsafe.SliceData(a.Col))
	valp := unsafe.Pointer(unsafe.SliceData(a.Val))
	xp := unsafe.Pointer(unsafe.SliceData(x))
	y = y[:n]
	w = w[:n]
	var d float64
	lo := int(rowPtr[0])
	for i := 0; i < n; i++ {
		hi := int(rowPtr[i+1])
		var sum float64
		k := lo
		// Two elements per trip halves the loop bookkeeping; the two adds
		// into sum stay sequential, so the accumulation order — and thus the
		// rounded result — is exactly that of the one-element loop.
		for ; k+1 < hi; k += 2 {
			c0 := int(*(*int32)(unsafe.Add(colp, uintptr(k)*4)))
			c1 := int(*(*int32)(unsafe.Add(colp, uintptr(k+1)*4)))
			v0 := *(*float64)(unsafe.Add(valp, uintptr(k)*8))
			v1 := *(*float64)(unsafe.Add(valp, uintptr(k+1)*8))
			sum += v0 * *(*float64)(unsafe.Add(xp, uintptr(c0)*8))
			sum += v1 * *(*float64)(unsafe.Add(xp, uintptr(c1)*8))
		}
		if k < hi {
			c := int(*(*int32)(unsafe.Add(colp, uintptr(k)*4)))
			sum += *(*float64)(unsafe.Add(valp, uintptr(k)*8)) *
				*(*float64)(unsafe.Add(xp, uintptr(c)*8))
		}
		y[i] = sum
		d += w[i] * sum
		lo = hi
	}
	return d
}

// Solve solves A·x = b with x as the warm-start initial guess, overwriting x
// with the solution and returning the iteration count. A reused CGSolver
// returns solutions bit-identical to a fresh one's; only the scratch
// allocations and diagonal location are hoisted out of the call.
func (s *CGSolver) Solve(x, b []float64, opt CGOptions) (int, error) {
	return s.SolveContext(context.Background(), x, b, opt)
}

// cancelCheckInterval is how many CG iterations run between ctx.Err() polls.
// Thermal solves warm-started by the annealer converge in a handful of
// iterations, so a modest interval keeps cancellation latency at a few
// matrix-vector products while adding no measurable per-iteration cost.
const cancelCheckInterval = 32

// SolveContext is Solve with cooperative cancellation: the CG loop polls ctx
// every cancelCheckInterval iterations and returns ctx.Err() (wrapped) when
// the context is done, leaving x holding the current iterate. The polling
// does not touch the arithmetic, so an uncancelled SolveContext is
// bit-identical to Solve.
func (s *CGSolver) SolveContext(ctx context.Context, x, b []float64, opt CGOptions) (int, error) {
	n := s.a.N
	if len(x) != n || len(b) != n {
		return 0, fmt.Errorf("sparse: CG dimension mismatch: n=%d len(x)=%d len(b)=%d", n, len(x), len(b))
	}
	pre, err := s.begin(opt)
	if err != nil {
		return 0, err
	}
	s.one.reset([][]float64{x}, [][]float64{b})
	_, err = s.pcg(ctx, s.one, pre, opt)
	return s.one.iters[0], err
}

// SolveBatch solves A·x_c = b_c for B right-hand sides against the bound
// matrix. The motivation is memory traffic: a CG iteration is dominated by
// streaming the matrix once per mat-vec, so B independent solves stream it B
// times per iteration while the blocked sweep streams it once and applies
// every stored entry to all B iterates. Callers evaluating several power
// scenarios of one placement share assembly and one preconditioner setup.
//
// Per column the arithmetic is exactly a single solve's, so each solution and
// iteration count is bit-identical to solving that column alone with
// SolveContext; columns that converge drop out of the sweep at exactly their
// single-solve iteration. On one core, or below ParallelThresholdRows, the
// blocked sweep is a net loss — B column blocks evict each other from cache
// while one column at a time keeps its working set hot — so the columns then
// run one after another through the same kernel. The choice changes only the
// speed, never a result.
//
// xs[c] is the warm-start guess for column c and is overwritten in place
// with the solution (or the current iterate on cancellation/budget
// exhaustion). The returned slice holds per-column iteration counts. Columns
// that exhaust opt.MaxIter are aggregated into one error matching
// ErrNoConvergence; structural failures (dimension mismatch, non-SPD matrix
// or preconditioner, cancellation) abort the whole batch, since every column
// shares the operator — columns not yet reached keep their warm starts.
// opt.Inject is visited once per batch; opt.OnIteration is never called, a
// residual trace being meaningful only for single solves.
func (s *CGSolver) SolveBatch(ctx context.Context, xs, bs [][]float64, opt CGOptions) ([]int, error) {
	n := s.a.N
	if len(xs) != len(bs) {
		return nil, fmt.Errorf("sparse: batch has %d guesses for %d right-hand sides", len(xs), len(bs))
	}
	if len(bs) == 0 {
		return nil, nil
	}
	for c := range bs {
		if len(xs[c]) != n || len(bs[c]) != n {
			return nil, fmt.Errorf("sparse: batch column %d dimension mismatch: n=%d len(x)=%d len(b)=%d", c, n, len(xs[c]), len(bs[c]))
		}
	}
	pre, err := s.begin(opt)
	if err != nil {
		return nil, err
	}
	opt.OnIteration = nil

	st, width := s.one, 1
	if len(bs) > 1 && s.workers > 1 {
		st, width = newCGCols(n, len(bs)), len(bs)
	}
	iters := make([]int, len(bs))
	failed := 0
	for c0 := 0; c0 < len(bs); c0 += width {
		st.reset(xs[c0:c0+width], bs[c0:c0+width])
		unconverged, err := s.pcg(ctx, st, pre, opt)
		copy(iters[c0:], st.iters)
		if err != nil && !errors.Is(err, ErrNoConvergence) {
			return iters, err
		}
		failed += unconverged
	}
	if failed > 0 {
		return iters, fmt.Errorf("sparse: %d of %d batch columns: %w", failed, len(bs), ErrNoConvergence)
	}
	return iters, nil
}

// begin is the per-call prologue shared by single and batched solves: it
// visits the fault-injection point once, re-reads the diagonal through the
// precomputed slots — rejecting a non-positive entry, with which A cannot be
// SPD, whatever the preconditioner — refreshes Jacobi from it, and returns
// the preconditioner to use.
func (s *CGSolver) begin(opt CGOptions) (Preconditioner, error) {
	if err := opt.Inject.Hit(faultinject.PointCGSolve); err != nil {
		// An injected fault presents exactly like exhausting the iteration
		// budget, so the recovery ladder above treats it as the real thing.
		return nil, fmt.Errorf("sparse: %w: %w", ErrNoConvergence, err)
	}
	invD := s.jacobi.invD
	for i, slot := range s.diagSlot {
		d := 0.0
		if slot >= 0 {
			d = s.a.Val[slot]
		}
		if d <= 0 {
			return nil, fmt.Errorf("sparse: non-positive diagonal at row %d (%g); matrix not SPD", i, d)
		}
		invD[i] = 1 / d
	}
	if opt.Precond != nil {
		return opt.Precond, nil
	}
	return &s.jacobi, nil
}

// cgCols is the per-column state of one pcg run over m right-hand sides.
// Columns are independent contiguous vectors (x and b alias the caller's
// slices), so every vector pass is the same contiguous loop whatever the
// width, and preconditioners apply with no staging copies. Active columns
// occupy slots [0, m); a converged column is swap-removed in O(1) by
// swapping headers, so the sweeps never branch on a per-column done flag.
type cgCols struct {
	m                 int   // active slot count
	orig              []int // slot -> column index
	x, b, r, z, p, ap [][]float64
	bn, rz, pap       []float64 // per-slot ‖b‖, r·z and p·Ap
	rnorm             []float64 // per-slot ‖r‖² of the last sweep (not moved by removals)
	errs              []error   // per-slot structural failure of the last sweep
	iters             []int     // per column
	pre               Preconditioner
}

func newCGCols(n, width int) *cgCols {
	cols := func() [][]float64 {
		v := make([][]float64, width)
		for c := range v {
			v[c] = make([]float64, n)
		}
		return v
	}
	return &cgCols{
		orig: make([]int, width),
		x:    make([][]float64, width),
		b:    make([][]float64, width),
		r:    cols(), z: cols(), p: cols(), ap: cols(),
		bn:    make([]float64, width),
		rz:    make([]float64, width),
		pap:   make([]float64, width),
		rnorm: make([]float64, width),
		errs:  make([]error, width),
		iters: make([]int, width),
	}
}

// reset binds the state to the columns xs/bs, all active.
func (st *cgCols) reset(xs, bs [][]float64) {
	st.m = len(xs)
	for c := range xs {
		st.orig[c], st.x[c], st.b[c], st.errs[c] = c, xs[c], bs[c], nil
	}
}

// pcg is the package's one preconditioned conjugate-gradient iteration,
// advancing the active columns of st in lockstep. Per column every
// accumulator (residual norms, p·Ap, r·z) sums in ascending row order, so a
// column's iterates do not depend on how many columns run beside it, on the
// mat-vec chosen, or on the worker count. The mat-vec is chosen from the
// active width alone: one column uses the fused mulVecDot, several the
// blocked sweep (mulBlock). Vector passes run column-parallel on multi-core
// systems; the preconditioner does too when it is Jacobi, while other
// preconditioners smooth into shared scratch and apply one column at a time.
//
// It returns the number of columns still unconverged when the iteration
// budget ran out (with ErrNoConvergence), or a structural failure or
// cancellation that stopped every column. Iteration counts land in st.iters.
// opt.OnIteration, when set, observes slot 0 and is meant for one-column
// runs.
func (s *CGSolver) pcg(ctx context.Context, st *cgCols, pre Preconditioner, opt CGOptions) (int, error) {
	tol := opt.Tol
	if tol <= 0 {
		tol = 1e-8
	}
	maxIter := opt.MaxIter
	if maxIter <= 0 {
		maxIter = 10 * s.a.N
	}
	st.pre = pre
	preWorkers := 1
	if _, ok := pre.(*jacobi); ok {
		preWorkers = s.workers
	}

	s.mulCols(st.r, st.x, st.m)
	st.each(s.workers, (*cgCols).residual)
	if opt.OnIteration != nil {
		opt.OnIteration(0, math.Sqrt(st.rnorm[0]))
	}
	for c := st.m - 1; c >= 0; c-- {
		if st.bn[c] == 0 {
			clear(st.x[c])
			st.finish(c, 0)
		} else if math.Sqrt(st.rnorm[c]) <= tol*st.bn[c] {
			st.finish(c, 0) // warm start already converged
		}
	}
	if st.m == 0 {
		return 0, nil
	}
	st.each(preWorkers, (*cgCols).firstDirection)
	if err := st.failure(0); err != nil {
		return 0, err
	}

	for it := 1; it <= maxIter; it++ {
		if it%cancelCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				st.abort(it)
				return 0, fmt.Errorf("sparse: CG canceled after %d iterations: %w", it-1, err)
			}
		}
		update := (*cgCols).update
		if st.m == 1 {
			st.pap[0] = s.mulVecDot(st.ap[0], st.p[0], st.p[0])
		} else {
			s.mulCols(st.ap, st.p, st.m)
			update = (*cgCols).dotUpdate
		}
		st.each(s.workers, update)
		if err := st.failure(it); err != nil {
			return 0, err
		}
		if opt.OnIteration != nil {
			opt.OnIteration(it, math.Sqrt(st.rnorm[0]))
		}
		for c := st.m - 1; c >= 0; c-- {
			if math.Sqrt(st.rnorm[c]) <= tol*st.bn[c] {
				st.finish(c, it)
			}
		}
		if st.m == 0 {
			return 0, nil
		}
		st.each(preWorkers, (*cgCols).nextDirection)
		if err := st.failure(it); err != nil {
			return 0, err
		}
	}
	unconverged := st.m
	st.abort(maxIter)
	return unconverged, ErrNoConvergence
}

// mulCols sets dst[c] = A·src[c] for the first m columns.
func (s *CGSolver) mulCols(dst, src [][]float64, m int) {
	if m == 1 {
		s.mulVec(dst[0], src[0])
		return
	}
	parallelRows(s.a.N, s.workers, func(lo, hi int) { mulBlock(s.a, dst[:m], src[:m], lo, hi) })
}

// each runs fn for every active slot — concurrently when workers > 1 and
// several columns are active. Columns are independent between mat-vecs and
// each column's own arithmetic stays serial and ordered, so the schedule
// cannot change a result.
func (st *cgCols) each(workers int, fn func(st *cgCols, c int)) {
	if workers < 2 || st.m < 2 {
		for c := 0; c < st.m; c++ {
			fn(st, c)
		}
		return
	}
	var wg sync.WaitGroup
	for c := 0; c < st.m; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(st, c)
		}()
	}
	wg.Wait()
}

// residual sets r = b − A·x (r holds A·x on entry) and records ‖b‖ and ‖r‖².
func (st *cgCols) residual(c int) {
	r, b := st.r[c], st.b[c]
	r = r[:len(b)]
	var bnorm, rnorm float64
	for i, bi := range b {
		ri := bi - r[i]
		r[i] = ri
		bnorm += bi * bi
		rnorm += ri * ri
	}
	st.bn[c] = math.Sqrt(bnorm)
	st.rnorm[c] = rnorm
}

// dotUpdate computes p·Ap, then runs update.
func (st *cgCols) dotUpdate(c int) {
	p, ap := st.p[c], st.ap[c]
	ap = ap[:len(p)]
	var pap float64
	for i, pi := range p {
		pap += pi * ap[i]
	}
	st.pap[c] = pap
	st.update(c)
}

// update takes the step x += α·p, r −= α·Ap with α = r·z / p·Ap, and records
// the new ‖r‖².
func (st *cgCols) update(c int) {
	pap := st.pap[c]
	if pap <= 0 {
		st.errs[c] = fmt.Errorf("sparse: p'Ap = %g <= 0; matrix not SPD", pap)
		return
	}
	alpha := st.rz[c] / pap
	x, r, p, ap := st.x[c], st.r[c], st.p[c], st.ap[c]
	n := len(x)
	r, p, ap = r[:n], p[:n], ap[:n]
	var rnorm float64
	for i := range x {
		x[i] += alpha * p[i]
		ri := r[i] - alpha*ap[i]
		r[i] = ri
		rnorm += ri * ri
	}
	st.rnorm[c] = rnorm
}

// precondition sets z = M⁻¹·r and returns r·z, recording a failure when M is
// not positive definite on r.
func (st *cgCols) precondition(c int) (float64, bool) {
	rz := st.pre.Apply(st.z[c], st.r[c])
	if rz <= 0 {
		st.errs[c] = fmt.Errorf("sparse: r'M⁻¹r = %g <= 0; preconditioner not positive definite", rz)
		return 0, false
	}
	return rz, true
}

// firstDirection starts the search direction: p = z = M⁻¹·r.
func (st *cgCols) firstDirection(c int) {
	if rz, ok := st.precondition(c); ok {
		st.rz[c] = rz
		copy(st.p[c], st.z[c])
	}
}

// nextDirection conjugates the search direction: p = z + β·p with
// β = r·z / (previous r·z).
func (st *cgCols) nextDirection(c int) {
	rz, ok := st.precondition(c)
	if !ok {
		return
	}
	beta := rz / st.rz[c]
	st.rz[c] = rz
	p, z := st.p[c], st.z[c]
	z = z[:len(p)]
	for i := range p {
		p[i] = z[i] + beta*p[i]
	}
}

// failure returns the first slot's structural failure of the last sweep,
// ending every column at iteration it when there is one.
func (st *cgCols) failure(it int) error {
	for c := 0; c < st.m; c++ {
		if err := st.errs[c]; err != nil {
			st.abort(it)
			return err
		}
	}
	return nil
}

// finish records column slot c as done after it iterations and swap-removes
// it: the last active slot's headers and scalars replace c's. Callers scan
// slots in descending order, so the swapped-in slot is always one already
// examined.
func (st *cgCols) finish(c, it int) {
	st.iters[st.orig[c]] = it
	last := st.m - 1
	if c != last {
		st.orig[c] = st.orig[last]
		st.x[c], st.x[last] = st.x[last], st.x[c]
		st.b[c], st.b[last] = st.b[last], st.b[c]
		st.r[c], st.r[last] = st.r[last], st.r[c]
		st.z[c], st.z[last] = st.z[last], st.z[c]
		st.p[c], st.p[last] = st.p[last], st.p[c]
		st.ap[c], st.ap[last] = st.ap[last], st.ap[c]
		st.bn[c], st.rz[c] = st.bn[last], st.rz[last]
	}
	st.m = last
}

// abort ends every active column at iteration it; x already holds each
// column's current iterate.
func (st *cgCols) abort(it int) {
	for c := st.m - 1; c >= 0; c-- {
		st.finish(c, it)
	}
}
