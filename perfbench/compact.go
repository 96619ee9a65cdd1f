package main

import (
	"fmt"
	"math/rand"

	"tap25d"
	"tap25d/internal/btree"
	"tap25d/internal/ocm"
)

// maxDraws bounds the seed draws for one legal Compact-2.5D placement.
const maxDraws = 64

// compactDraws finds Compact-2.5D initial placements the placer can use.
// The placer legalizes its initial placement onto the Occupation Chiplet
// Matrix and fails the whole flow when that is impossible, which happens for
// a large share of Compact-2.5D seeds (most of them on cpudram). The
// workloads must not fail, so set-up draws seeds until the placement
// legalizes, and reports the share it had to reject as btree.illegal_frac.
type compactDraws struct {
	tr       *tracer
	drawn    int
	rejected int
}

// draw returns the first seed from rng whose Compact-2.5D placement of sys
// (steps 0 keeps the default budget) legalizes, and that placement.
func (c *compactDraws) draw(sys *tap25d.System, rng *rand.Rand, steps int) (int64, tap25d.Placement, error) {
	grid, err := ocm.NewGrid(sys, ocm.DefaultPitchMM)
	if err != nil {
		return 0, tap25d.Placement{}, err
	}
	for i := 0; i < maxDraws; i++ {
		seed := rng.Int63n(1<<30) + 1
		id := c.tr.begin("btree.compact", 0)
		res, err := btree.PlaceCompact(sys, btree.Options{Seed: seed, Steps: steps})
		c.tr.end(id)
		if err != nil {
			return 0, tap25d.Placement{}, err
		}
		c.drawn++
		if _, err := grid.Legalize(sys, res.Placement); err == nil {
			return seed, res.Placement, nil
		}
		c.rejected++
	}
	return 0, tap25d.Placement{}, fmt.Errorf("no legal Compact-2.5D placement of %s in %d seeds", sys.Name, maxDraws)
}

func (c *compactDraws) illegalFrac() float64 { return ratio(float64(c.rejected), float64(c.drawn)) }
