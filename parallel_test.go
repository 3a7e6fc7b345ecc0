// Tests for the parallel batch API over internal/runner: serial-vs-
// parallel equivalence of the sweep report, spec ordering, up-front name
// validation, and the threading of the configured clock into results.
package softwatt

import (
	"strings"
	"testing"
)

// sweep runs the Figure 9 grid of benches on the paper's Mipsy core and
// projects it onto its rows.
func sweep(benches []string, b BatchOptions) ([]Fig9Row, error) {
	specs := DiskSweepSpecs(benches, Options{Core: "mipsy"})
	results, err := RunBatch(specs, b)
	return Fig9Rows(specs, results), err
}

// TestSweepParallelMatchesSerial is the engine's determinism contract: a
// -j 8 sweep must render a byte-identical Figure 9 report to a serial one,
// with rows benchmark-major in input order regardless of completion order.
func TestSweepParallelMatchesSerial(t *testing.T) {
	benches := []string{"jess", "compress"} // deliberately not alphabetical
	serial, err := sweep(benches, BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep(benches, BatchOptions{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(benches)*len(DiskPolicies) {
		t.Fatalf("serial sweep has %d rows, want %d", len(serial), len(benches)*len(DiskPolicies))
	}
	i := 0
	for _, b := range benches {
		for _, pol := range DiskPolicies {
			if par[i].Benchmark != b || par[i].Policy != pol {
				t.Fatalf("row %d = %s/%s, want %s/%s", i, par[i].Benchmark, par[i].Policy, b, pol)
			}
			i++
		}
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("row %d differs:\nserial:   %+v\nparallel: %+v", i, serial[i], par[i])
		}
	}
	if s, p := RenderFig9(serial), RenderFig9(par); s != p {
		t.Fatalf("rendered reports differ:\n--- serial ---\n%s--- parallel ---\n%s", s, p)
	}
}

// TestSweepValidatesNamesUpfront checks an unknown benchmark or policy
// fails before any cell has simulated, naming the valid set.
func TestSweepValidatesNamesUpfront(t *testing.T) {
	ran := 0
	b := BatchOptions{Progress: func(int, int, string, error) { ran++ }}
	_, err := RunBatch(DiskSweepSpecs([]string{"compress", "nosuchbench"}, Options{Core: "mipsy"}), b)
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	if !strings.Contains(err.Error(), "nosuchbench") || !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("error %q should name the bad benchmark and the valid set", err)
	}
	_, err = RunBatch([]RunSpec{
		{Benchmark: "compress", Options: Options{DiskPolicy: "conventional"}},
		{Benchmark: "compress", Options: Options{DiskPolicy: "nosuchpolicy"}},
	}, b)
	if err == nil {
		t.Fatal("unknown policy accepted")
	}
	if !strings.Contains(err.Error(), "nosuchpolicy") || !strings.Contains(err.Error(), "valid:") {
		t.Fatalf("error %q should name the bad policy and the valid set", err)
	}
	if ran != 0 {
		t.Fatalf("%d cells ran before validation failed", ran)
	}
}

// TestRunBatchSpecOrder checks results come back in spec order with each
// spec's core, and an unknown core or benchmark is rejected.
func TestRunBatchSpecOrder(t *testing.T) {
	runs, err := RunBatch([]RunSpec{
		{Benchmark: "jess", Options: Options{Core: "mipsy"}},
		{Benchmark: "compress", Options: Options{Core: "mipsy"}},
	}, BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	if runs[0].Benchmark != "jess" || runs[1].Benchmark != "compress" {
		t.Fatalf("batch order wrong: %s, %s", runs[0].Benchmark, runs[1].Benchmark)
	}
	for _, r := range runs {
		if r.Core != "mipsy" {
			t.Fatalf("core = %s, want mipsy", r.Core)
		}
	}
	if _, err := RunBatch([]RunSpec{{Benchmark: "jess", Options: Options{Core: "nosuchcore"}}}, BatchOptions{}); err == nil {
		t.Fatal("unknown core accepted")
	}
	if _, err := RunBatch([]RunSpec{{Benchmark: "nosuchbench"}}, BatchOptions{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// TestBatchProgress checks the progress callback reports each cell exactly
// once with a strictly increasing counter.
func TestBatchProgress(t *testing.T) {
	var labels []string
	last := 0
	specs := DiskSweepSpecs([]string{"compress"}, Options{Core: "mipsy"})[:2]
	_, err := RunBatch(specs,
		BatchOptions{Workers: 2, Progress: func(done, total int, label string, err error) {
			if done != last+1 || total != 2 {
				t.Errorf("progress (%d,%d) after %d", done, total, last)
			}
			if err != nil {
				t.Errorf("progress reported error for %s: %v", label, err)
			}
			last = done
			labels = append(labels, label)
		}})
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != 2 {
		t.Fatalf("progress called %d times, want 2: %v", len(labels), labels)
	}
	for _, l := range labels {
		if !strings.HasPrefix(l, "compress/") {
			t.Fatalf("bad label %q", l)
		}
	}
}

// TestClockHzThreadsThrough checks the satellite fix for the hardcoded
// 200 MHz in core.Collect: a run configured at a different clock must
// report that clock, and seconds derived from it.
func TestClockHzThreadsThrough(t *testing.T) {
	r, err := Run("compress", Options{Core: "mipsy", ClockHz: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	if r.ClockHz != 100e6 {
		t.Fatalf("RunResult.ClockHz = %g, want 1e8", r.ClockHz)
	}
	s := NewEstimator().Summarize(r)
	want := float64(s.Cycles) / 100e6
	if diff := s.TimeSec - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("TimeSec = %g, want %g (cycles/configured clock)", s.TimeSec, want)
	}
	// Default clock still reports 200 MHz.
	r2, err := Run("compress", Options{Core: "mipsy"})
	if err != nil {
		t.Fatal(err)
	}
	if r2.ClockHz != 200e6 {
		t.Fatalf("default ClockHz = %g, want 2e8", r2.ClockHz)
	}
}
