package sparse

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"
)

// ssorGoldenPath holds the iteration counts and solution digests of the
// SSOR-preconditioned CG solves below, recorded from the standalone
// SSOR-preconditioned loop that preceded the shared PCG kernel.
const ssorGoldenPath = "testdata/ssor_golden.json"

type ssorGolden struct {
	Name   string `json:"name"`
	Iters  int    `json:"iters"`
	SHA256 string `json:"sha256"`
}

type ssorGoldenCase struct {
	name string
	a    *CSR
	x, b []float64
	opt  CGOptions
}

// ssorGoldenCases builds the recorded systems: a random diagonally dominant
// chain from a zero guess, and two layered grid Laplacians from a random warm
// guess — the larger one above ParallelThresholdRows, so multi-core hosts run
// its mat-vec partitioned.
func ssorGoldenCases() []ssorGoldenCase {
	rng := rand.New(rand.NewSource(2024))
	a, xTrue := randSPD(400, rng)
	b := make([]float64, a.N)
	a.MulVec(b, xTrue)
	cases := []ssorGoldenCase{{"randSPD-400", a, make([]float64, a.N), b, CGOptions{Tol: 1e-10}}}
	for _, sz := range []struct{ g, l int }{{16, 4}, {32, 16}} {
		a := grid3D(sz.g, sz.l)
		x := make([]float64, a.N)
		b := make([]float64, a.N)
		for i := range b {
			x[i] = 0.1 * rng.NormFloat64()
			b[i] = rng.Float64()
		}
		cases = append(cases, ssorGoldenCase{
			name: fmt.Sprintf("grid3D-%dx%dx%d", sz.g, sz.g, sz.l),
			a:    a, x: x, b: b, opt: CGOptions{Tol: 1e-9},
		})
	}
	return cases
}

// solutionDigest is the SHA-256 of x's IEEE-754 bit patterns, little-endian.
func solutionDigest(x []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSSORGoldenBitIdentical: the SSOR preconditioner run through the shared
// PCG kernel reproduces the recorded iteration counts and solutions bit for
// bit.
func TestSSORGoldenBitIdentical(t *testing.T) {
	raw, err := os.ReadFile(ssorGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []ssorGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cases := ssorGoldenCases()
	if len(want) != len(cases) {
		t.Fatalf("%s has %d entries, want %d", ssorGoldenPath, len(want), len(cases))
	}
	for k, tc := range cases {
		opt := tc.opt
		opt.Precond = NewSSOR(tc.a)
		it, err := NewCGSolver(tc.a).Solve(tc.x, tc.b, opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := ssorGolden{tc.name, it, solutionDigest(tc.x)}
		if got != want[k] {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, want[k])
		}
	}
}
