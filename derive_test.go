package softwatt

import (
	"fmt"
	"strings"
	"testing"

	"softwatt/internal/obs"
)

// policyGrid is every workload under every disk policy on both detailed
// cores, labelled "core/workload/policy".
func policyGrid() []RunSpec {
	var specs []RunSpec
	for _, c := range []string{"mipsy", "mxs"} {
		for _, sp := range DiskSweepSpecs(Benchmarks, Options{Core: c}) {
			sp.Label = c + "/" + sp.Label
			specs = append(specs, sp)
		}
	}
	return specs
}

// gridPinKey is a grid cell's resultPins key: "core/workload" for the
// conventional policy, "core/workload/policy" for the others.
func gridPinKey(sp RunSpec) string {
	if sp.Options.DiskPolicy == "conventional" {
		return sp.Options.Core + "/" + sp.Benchmark
	}
	return sp.Label
}

// divergedCells are the grid cells whose disk spins up under their
// policy: a request meets a spun-down disk, completes later than under the
// conventional policy, and so the run executes differently.
var divergedCells = []string{
	"mipsy/compress/standby2", "mipsy/javac/standby2",
	"mipsy/mtrt/standby2", "mipsy/mtrt/standby4",
	"mipsy/jack/standby2", "mipsy/jack/standby4",
	"mxs/javac/standby2",
	"mxs/mtrt/standby2", "mxs/mtrt/standby4",
	"mxs/jack/standby2", "mxs/jack/standby4",
}

// TestDiskPolicyGrid runs the 48-cell (core × workload × disk policy) grid
// with a power timeline through one RunBatch. Every cell's timeline must
// match its full-run pin (timelinePins), and its result bytes without the
// timeline its full-run pin (resultPins). Each conventional cell is its
// class's reference; of the 36 other cells, the 25 whose disk replay
// matches the reference must be derived (a "derive" span with outcome
// "derived", the derived-cells counter, no published cycles) and the 11
// that spin up must diverge and simulate in full.
func TestDiskPolicyGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("48-cell grid skipped in -short mode")
	}
	obs.SetMetricsEnabled(true)
	defer obs.SetMetricsEnabled(false)
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)
	derived0, cycles0 := obs.Batch().CellsDerived.Value(), obs.Sim().Cycles.Value()

	specs := policyGrid()
	for i := range specs {
		specs[i].Options.TimelineCycles = timelinePinCycles
	}
	res, err := RunBatch(specs, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, sp := range specs {
		checkTimelinePin(t, sp.Label, res[i])
		bare := *res[i] // a copy: derived results share the reference's slices
		bare.Timeline = nil
		checkResultPin(t, gridPinKey(sp), resultBytes(t, &bare))
	}

	outcome := map[string]string{} // cell -> derive span outcome
	for _, ev := range tr.Events() {
		if ev.Cat == "derive" {
			outcome[strings.TrimPrefix(ev.Name, "derive ")] = fmt.Sprint(ev.Args["outcome"])
		}
	}
	diverged := map[string]bool{}
	for _, c := range divergedCells {
		diverged[c] = true
	}
	var derived int
	var simulated uint64
	for i, sp := range specs {
		want := "derived"
		switch {
		case sp.Options.DiskPolicy == "conventional":
			want = ""
		case diverged[sp.Label]:
			want = "diverged"
		}
		if got := outcome[sp.Label]; got != want {
			t.Errorf("%s: derive outcome %q, want %q", sp.Label, got, want)
		}
		if want == "derived" {
			derived++
		} else {
			simulated += res[i].TotalCycles
		}
	}
	if derived != 25 {
		t.Errorf("%d derived cells, want 25", derived)
	}
	if got := obs.Batch().CellsDerived.Value() - derived0; got != uint64(derived) {
		t.Errorf("softwatt_cells_derived_total moved by %d, want %d", got, derived)
	}
	if got := obs.Sim().Cycles.Value() - cycles0; got != simulated {
		t.Errorf("published cycles = %d, the simulated cells ran %d", got, simulated)
	}
}
