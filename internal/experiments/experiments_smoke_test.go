package experiments

import "testing"

// Smoke tests running every remaining experiment end-to-end at tiny
// fidelity. The shape assertions live in EXPERIMENTS.md and the bench suite;
// here we verify the pipelines complete and produce structurally sound
// reports. Skipped under -short.

func TestE2RunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four placement flows")
	}
	rep, err := Run("E2", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Larger interposers must not be hotter at equal link type.
	if rep.Rows[2].TempC > rep.Rows[0].TempC+1 {
		t.Errorf("50 mm repeaterless (%v C) hotter than 45 mm (%v C)",
			rep.Rows[2].TempC, rep.Rows[0].TempC)
	}
	if len(rep.Notes) < 3 {
		t.Error("expected measured-delta notes")
	}
}

func TestE3RunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two placement flows")
	}
	rep, err := Run("E3", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// The original and compact CPU-DRAM placements are thermally infeasible
	// by construction.
	if rep.Rows[0].TempC <= 85 || rep.Rows[1].TempC <= 85 {
		t.Errorf("original/compact should exceed 85 C: %v, %v",
			rep.Rows[0].TempC, rep.Rows[1].TempC)
	}
}

func TestE6RunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a placement flow")
	}
	rep, err := Run("E6", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Every Ascend 910 design point is thermally safe.
	for _, row := range rep.Rows {
		if row.TempC > 85 {
			t.Errorf("%s: %v C above the threshold", row.Label, row.TempC)
		}
	}
	// The reference layout has the shortest wirelength.
	if rep.Rows[0].WirelengthMM > rep.Rows[1].WirelengthMM {
		t.Errorf("original WL %v above compact %v", rep.Rows[0].WirelengthMM, rep.Rows[1].WirelengthMM)
	}
}

func TestE9RunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four placement flows")
	}
	rep, err := Run("E9", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.TempC <= 45 {
			t.Errorf("%s: implausible temperature %v", row.Label, row.TempC)
		}
	}
}

func TestE10RunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a placement flow plus TDP envelopes")
	}
	rep, err := Run("E10", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	origLinks := rep.Rows[0].Extra
	tapRLLinks := rep.Rows[2].Extra
	tapGasLinks := rep.Rows[4].Extra
	if origLinks["mean_cycles"] < 1 || tapRLLinks["mean_cycles"] < 1 {
		t.Error("mean link cycles below 1")
	}
	// TAP spreads chiplets, so its links cannot be faster on average.
	if tapRLLinks["mean_cycles"] < origLinks["mean_cycles"]-0.05 {
		t.Errorf("TAP links (%v cycles) faster than original (%v)",
			tapRLLinks["mean_cycles"], origLinks["mean_cycles"])
	}
	// Gas stations break long wires into short hops: mean hop latency must
	// not exceed the repeaterless classification.
	if tapGasLinks["mean_cycles"] > tapRLLinks["mean_cycles"]+0.05 {
		t.Errorf("gas-station hops (%v cycles) slower than repeaterless (%v)",
			tapGasLinks["mean_cycles"], tapRLLinks["mean_cycles"])
	}
	tapPerf := rep.Rows[5].Extra
	if tapPerf["uplift_pct"] < 0 {
		t.Errorf("negative frequency uplift %v", tapPerf["uplift_pct"])
	}
}

func TestE12RunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a placement flow plus liquid solves")
	}
	rep, err := Run("E12", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Liquid cooling must beat forced air on the same placement, both times.
	if rep.Rows[1].TempC >= rep.Rows[0].TempC {
		t.Errorf("liquid (%v C) not cooler than air (%v C) on the original placement",
			rep.Rows[1].TempC, rep.Rows[0].TempC)
	}
	if rep.Rows[3].TempC >= rep.Rows[2].TempC {
		t.Errorf("liquid (%v C) not cooler than air (%v C) on the TAP placement",
			rep.Rows[3].TempC, rep.Rows[2].TempC)
	}
	// Cooling does not change the routing.
	if rep.Rows[1].WirelengthMM != rep.Rows[0].WirelengthMM {
		t.Error("liquid cooling changed the wirelength")
	}
}

func TestE13RunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six placement flows")
	}
	rep, err := Run("E13", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 6 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// The extreme weights should order as a trade-off: the most
	// temperature-weighted point must not be hotter than the most
	// wirelength-weighted one.
	if rep.Rows[4].TempC > rep.Rows[0].TempC+1 {
		t.Errorf("alpha=0.9 (%v C) hotter than alpha=0.1 (%v C)",
			rep.Rows[4].TempC, rep.Rows[0].TempC)
	}
}
