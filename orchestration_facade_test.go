package tap25d

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// TestFacadeCheckpointResumeBitCompatible is the public-API version of the
// placer-level kill/resume contract: interrupting tap25d.Place mid-anneal,
// snapshotting through the Options.Checkpoint hook, and resuming through
// Options.Restore must finish with exactly the result of an uninterrupted
// run at the same seed.
func TestFacadeCheckpointResumeBitCompatible(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full placement flows")
	}
	sys, err := BuiltinSystem("multigpu")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{ThermalGrid: 16, Steps: 1200, Runs: 1, CompactSteps: 8000, Seed: 7}

	want, err := Place(sys, base)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := func(run int) string {
		return filepath.Join(dir, "ckpt.json")
	}
	ctx, cancel := context.WithCancel(context.Background())
	var steps atomic.Int32
	opt := base
	opt.Context = ctx
	opt.ProgressEvery = 1
	opt.Progress = func(e RunEvent) {
		if e.Kind == EventStep && steps.Add(1) == 900 {
			cancel()
		}
	}
	opt.Checkpoint = func(cp *RunCheckpoint) error { return SaveCheckpoint(path(cp.Run), cp) }
	partial, err := Place(sys, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Place error = %v, want context.Canceled", err)
	}
	if partial == nil || !partial.Interrupted {
		t.Fatal("interrupted Place did not return a best-so-far result")
	}

	res := base
	res.Restore = func(run int) (*RunCheckpoint, error) { return LoadCheckpoint(path(run)) }
	got, err := Place(sys, res)
	if err != nil {
		t.Fatal(err)
	}

	if got.PeakC != want.PeakC || got.WirelengthMM != want.WirelengthMM {
		t.Errorf("resumed run (%.10g C, %.10g mm) != uninterrupted (%.10g C, %.10g mm)",
			got.PeakC, got.WirelengthMM, want.PeakC, want.WirelengthMM)
	}
	if !reflect.DeepEqual(got.Placement, want.Placement) {
		t.Errorf("resumed placement differs from uninterrupted placement:\n got %+v\nwant %+v", got.Placement, want.Placement)
	}
}

// TestTDPEnvelopeHonorsContext: a canceled Options.Context aborts the
// envelope's thermal solve with an error wrapping context.Canceled.
func TestTDPEnvelopeHonorsContext(t *testing.T) {
	sys, err := BuiltinSystem("cpudram")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = TDPEnvelope(sys, CPUDRAMOriginalPlacement(), CPUDRAMCPUIndices(), Options{ThermalGrid: 16, Context: ctx})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("TDPEnvelope error = %v, want context.Canceled", err)
	}
}
