package softwatt

// Clock-skip equivalence: MXS's next-event skip, inside its batch,
// batch-charges elided cycles instead of ticking through them one at a
// time (machine.Machine.DisableSkip ticks instead). DESIGN.md §11 argues
// the batch is exact; this test enforces it end-to-end on a full OS boot +
// workload run: with and without skipping, the serialized result bytes
// must be identical down to every sample window, unit count and Welford
// state.

import (
	"bytes"
	"testing"

	"softwatt/internal/core"
	"softwatt/internal/machine"
	"softwatt/internal/power"
	"softwatt/internal/workload"
)

func runSkip(t *testing.T, disable bool) (*RunResult, uint64) {
	t.Helper()
	opt := Options{Core: "mxs"}
	cfg, err := opt.MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Build("compress")
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	m.DisableSkip = disable
	m.Collector().SetEnergyFn(power.Default().InvocationEnergy)
	if err := m.Run(0); err != nil {
		t.Fatalf("run (DisableSkip=%v): %v (console: %q)", disable, err, m.Console())
	}
	r := core.Collect(m, "compress", cfg.Core.String())
	skipped := m.SkippedCycles()
	m.Release()
	return r, skipped
}

func TestClockSkipEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run equivalence skipped in -short mode")
	}
	fast, skipped, slow := (*RunResult)(nil), uint64(0), (*RunResult)(nil)
	fast, skipped = runSkip(t, false)
	slow, _ = runSkip(t, true)

	if skipped == 0 {
		t.Fatal("next-event skip elided zero cycles: the equivalence check is vacuous")
	}
	var fb, sb bytes.Buffer
	if err := SaveResult(&fb, fast); err != nil {
		t.Fatal(err)
	}
	if err := SaveResult(&sb, slow); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb.Bytes(), sb.Bytes()) {
		t.Fatalf("skip changes results: %d vs %d bytes, first difference at byte %d",
			fb.Len(), sb.Len(), firstDiff(fb.Bytes(), sb.Bytes()))
	}
	t.Logf("identical %d-byte results; skip elided %d of %d cycles (%.1f%%)",
		fb.Len(), skipped, fast.TotalCycles, 100*float64(skipped)/float64(fast.TotalCycles))
}
