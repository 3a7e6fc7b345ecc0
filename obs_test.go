package softwatt

// Telemetry invariance tests: DESIGN.md §9's byte-identity contract must
// hold with the full observability stack switched on. Metrics publication
// and span tracing read counters the simulator already keeps, so a run
// with both enabled must serialize to the exact golden logv2 bytes of a
// dark run.

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"softwatt/internal/obs"
)

// TestGoldenBytesWithTelemetry re-runs the compress-mipsy golden case with
// metrics publication and the tracer enabled and demands the same result
// bytes as the checked-in golden (which was produced with telemetry off).
func TestGoldenBytesWithTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run golden comparison skipped in -short mode")
	}
	obs.SetMetricsEnabled(true)
	defer obs.SetMetricsEnabled(false)
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	cyclesBefore := obs.Sim().Cycles.Value()
	r, err := Run("compress", Options{Core: "mipsy"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath("compress-mipsy", ".swlog"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("telemetry perturbed the result: %d bytes vs golden %d "+
			"(first difference at byte %d); observability must never touch "+
			"architected state (DESIGN.md §9/§10)",
			buf.Len(), len(want), firstDiff(buf.Bytes(), want))
	}

	// The run must actually have published: the global cycle counter moved
	// by exactly the run's cycle count.
	if got := obs.Sim().Cycles.Value() - cyclesBefore; got != r.TotalCycles {
		t.Errorf("published cycles = %d, run had %d", got, r.TotalCycles)
	}

	// And the pipeline must have traced its phases on the direct track.
	cats := map[string]bool{}
	for _, ev := range tr.Events() {
		cats[ev.Cat] = true
	}
	for _, want := range []string{"build", "boot", "simulate", "estimate"} {
		if !cats[want] {
			t.Errorf("trace has no %q span; categories seen: %v", want, cats)
		}
	}
}

// TestGoldenBytesWithTelemetryMXS is the out-of-order variant: the MXS
// run exercises the event-scheduler instruments (skip counter, occupancy
// and ready-depth histograms) that the in-order golden never touches, and
// publication must still leave the result bytes untouched.
func TestGoldenBytesWithTelemetryMXS(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run golden comparison skipped in -short mode")
	}
	obs.SetMetricsEnabled(true)
	defer obs.SetMetricsEnabled(false)

	r := obs.Default()
	skip := r.Counter("softwatt_mxs_skip_cycles_total",
		"Cycles elided inside a core's batch call: the MXS next-event clock skip and mipsy's WAIT elision (all cores).", "")
	occ := r.Histogram("softwatt_mxs_window_occupancy",
		"Instruction-window occupancy sampled at each telemetry publication (MXS).", "",
		[]float64{0, 4, 8, 16, 24, 32, 40, 48, 56, 64})
	depth := r.Histogram("softwatt_mxs_ready_queue_depth",
		"Issue-ready queue depth sampled at each telemetry publication (MXS).", "",
		[]float64{0, 1, 2, 4, 8, 16, 32})
	skip0, occ0, depth0 := skip.Value(), occ.Count(), depth.Count()

	res, err := Run("compress", Options{Core: "mxs"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveResult(&buf, res); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath("compress-mxs", ".swlog"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("telemetry perturbed the MXS result: %d bytes vs golden %d "+
			"(first difference at byte %d)", buf.Len(), len(want), firstDiff(buf.Bytes(), want))
	}

	if got := skip.Value() - skip0; got == 0 {
		t.Error("skip-cycle counter did not move during an MXS run")
	}
	if occ.Count() == occ0 || depth.Count() == depth0 {
		t.Errorf("occupancy/ready-depth histograms gained no samples (occ %d->%d, depth %d->%d)",
			occ0, occ.Count(), depth0, depth.Count())
	}
}

// TestBatchTraceWorkerTracks checks that batch cells land on per-worker
// trace tracks (tid >= 1) with cell spans wrapping the pipeline phases.
func TestBatchTraceWorkerTracks(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation test skipped in -short mode")
	}
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)

	_, err := RunBatch([]RunSpec{
		{Benchmark: "compress", Options: Options{Core: "mipsy"}, Label: "a"},
		{Benchmark: "compress", Options: Options{Core: "mipsy"}, Label: "b"},
	}, BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, ev := range tr.Events() {
		if ev.Cat == "cell" {
			cells++
			if ev.TID < 1 {
				t.Errorf("cell span %q on tid %d, want a worker track >= 1", ev.Name, ev.TID)
			}
		}
	}
	if cells != 2 {
		t.Errorf("got %d cell spans, want 2", cells)
	}
}

// TestSampledRunPublishesSimCycles: a sampled run drives its machines by
// StepCycles, in windows far shorter than the publication interval, and
// restores checkpoints whose counters it did not simulate. With metrics on
// the global cycle counter must still move by exactly the cycles the run
// simulated: the fast-forward pass plus every window's warm-up and
// measurement on a cold reservoir cache, the windows alone on a warm one.
func TestSampledRunPublishesSimCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("sampled simulation skipped in -short mode")
	}
	obs.SetMetricsEnabled(true)
	defer obs.SetMetricsEnabled(false)
	so := SampleOptions{Windows: 3, WindowCycles: 40_000, Workers: 1, FFCacheDir: t.TempDir()}
	for _, row := range []string{"cold", "warm"} {
		t.Run(row, func(t *testing.T) {
			before := obs.Sim().Cycles.Value()
			r, err := RunSampled("compress", Options{Core: "mipsy"}, so)
			if err != nil {
				t.Fatal(err)
			}
			want := r.SampledCycles + uint64(len(r.Windows))*(so.WindowCycles/2)
			if row == "cold" {
				want += r.TotalCycles
			}
			if got := obs.Sim().Cycles.Value() - before; got != want {
				t.Errorf("published cycles = %d, the run simulated %d", got, want)
			}
		})
	}
}

// TestDerivedCellsMetricHelp pins the /metrics exposition of the counter
// that shows how many batch cells were derived rather than simulated.
func TestDerivedCellsMetricHelp(t *testing.T) {
	obs.Batch()
	var b strings.Builder
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := "# HELP softwatt_cells_derived_total Batch cells derived from their class's conventional run by disk replay, not simulated.\n" +
		"# TYPE softwatt_cells_derived_total counter\n"
	if !strings.Contains(b.String(), want) {
		t.Errorf("/metrics lacks\n%s", want)
	}
}
