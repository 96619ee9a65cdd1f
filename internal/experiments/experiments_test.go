package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tinyConfig keeps experiment tests fast; shape assertions that need more
// fidelity live in the root bench suite and EXPERIMENTS.md.
func tinyConfig() Config {
	return Config{ThermalGrid: 16, Steps: 50, Runs: 1, CompactSteps: 2000, Seed: 1}
}

func TestPresets(t *testing.T) {
	r := Reduced()
	f := Full()
	if f.ThermalGrid != 64 || f.Steps != 4500 || f.Runs != 5 {
		t.Errorf("Full preset does not match the paper: %+v", f)
	}
	if r.ThermalGrid >= f.ThermalGrid || r.Steps >= f.Steps {
		t.Errorf("Reduced preset not smaller than Full")
	}
	var zero Config
	d := zero.withDefaults()
	if d.ThermalGrid == 0 || d.Steps == 0 || d.Runs == 0 || d.Seed == 0 {
		t.Errorf("withDefaults left zeros: %+v", d)
	}
}

func TestIDsAndDispatch(t *testing.T) {
	ids := IDs()
	if len(ids) != 13 {
		t.Fatalf("IDs = %v", ids)
	}
	if _, err := Run("nope", tinyConfig()); err == nil {
		t.Error("unknown experiment accepted")
	}
	// Case-insensitive dispatch.
	if _, err := Run("e5", tinyConfig()); err != nil {
		t.Errorf("lower-case id rejected: %v", err)
	}
}

func TestE5Shape(t *testing.T) {
	rep, err := Run("E5", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "E5" || len(rep.Rows) != 26 { // 2 x (1 summary + 12 workloads)
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	m2 := rep.Rows[0].Extra["mean_pct"]
	m3 := rep.Rows[13].Extra["mean_pct"]
	if m2 <= 0 || m3 <= m2 {
		t.Errorf("means not increasing: %v %v", m2, m3)
	}
}

func TestE7Shape(t *testing.T) {
	rep, err := Run("E7", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 4 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Gas-station routing time must grow with chiplet count (O(|C|^2...)).
	first := rep.Rows[0].Extra["route_gas_ms"]
	last := rep.Rows[len(rep.Rows)-1].Extra["route_gas_ms"]
	if last <= first {
		t.Errorf("gas routing time did not grow: %v -> %v", first, last)
	}
}

func TestE8NoConstraintViolations(t *testing.T) {
	rep, err := Run("E8", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rep.Rows {
		if gap := row.Extra["gap_pct"]; gap < -1e-6 {
			t.Errorf("%s: fast router beat the exact MILP by %v%% — MILP bug", row.Label, gap)
		}
	}
}

func TestE1RunsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("E1 runs three placement flows")
	}
	rep, err := Run("E1", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row.TempC < 50 || row.TempC > 200 || row.WirelengthMM <= 0 {
			t.Errorf("%s: implausible metrics %v C %v mm", row.Label, row.TempC, row.WirelengthMM)
		}
	}
}

func TestE4ReportsEnvelopes(t *testing.T) {
	if testing.Short() {
		t.Skip("E4 runs a placement flow plus two TDP envelopes")
	}
	rep, err := Run("E4", tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	orig := rep.Rows[0].Extra["TDP_W"]
	tap := rep.Rows[1].Extra["TDP_W"]
	if orig <= 0 || tap <= 0 {
		t.Fatalf("bad envelopes: %v %v", orig, tap)
	}
	if delta := rep.Rows[2].Extra["delta_W"]; delta != tap-orig {
		t.Errorf("delta row inconsistent: %v != %v - %v", delta, tap, orig)
	}
}

func TestReportFormat(t *testing.T) {
	rep := &Report{
		ID:    "EX",
		Title: "test",
		Rows: []Row{
			{Label: "a", TempC: 90, WirelengthMM: 1000},
			{Label: "b", Extra: map[string]float64{"z": 1, "a": 2}},
		},
		Notes: []string{"hello"},
	}
	var buf bytes.Buffer
	rep.Format(&buf)
	out := buf.String()
	for _, want := range []string{"== EX: test", "T=  90.00 C", "WL=     1000 mm", "a=2.00", "z=1.00", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted report missing %q:\n%s", want, out)
		}
	}
}

func TestSyntheticSystemValid(t *testing.T) {
	for _, n := range []int{4, 9, 16, 25} {
		sys, p := syntheticSystem(n, 1)
		if err := sys.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := sys.CheckPlacement(p); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRandomPlacementValid(t *testing.T) {
	sys, _ := syntheticSystem(8, 1)
	p, err := randomPlacement(sys, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckPlacement(p); err != nil {
		t.Fatal(err)
	}
}
