package softwatt

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"softwatt/internal/core"
	"softwatt/internal/kern"
	"softwatt/internal/obs"
	"softwatt/internal/power"
	"softwatt/internal/trace"
)

// TestEnergyProfileConservation checks the profiler's books against the
// power model's: summed over every (PC bucket, mode, ASID) entry, the
// profile must account for exactly the run's cycles and committed
// instructions, and — because EProfCoeffs is an exact linearization of
// BucketEnergy — for the run's total energy to float tolerance.
func TestEnergyProfileConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation run skipped in -short mode")
	}
	r, err := Run("compress", Options{Core: "mipsy", EnergyProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.EProf) == 0 {
		t.Fatal("no energy profile entries")
	}

	var cycles, insts uint64
	var pj float64
	for _, e := range r.EProf {
		cycles += e.Cycles
		insts += e.Insts
		pj += e.EnergyPJ
	}
	if cycles != r.TotalCycles {
		t.Errorf("profile cycles %d, run total %d", cycles, r.TotalCycles)
	}
	if insts != r.Committed {
		t.Errorf("profile instructions %d, run committed %d", insts, r.Committed)
	}

	var all trace.Bucket
	for m := range r.ModeTotals {
		all.Add(&r.ModeTotals[m])
	}
	wantPJ := power.Default().BucketEnergy(&all).Total * 1e12
	if rel := math.Abs(pj-wantPJ) / wantPJ; rel > 1e-6 {
		t.Errorf("profile energy %g pJ, model total %g pJ (rel err %g)", pj, wantPJ, rel)
	}

	// The profile must survive a log round-trip untouched; so must the
	// timeline (exercised by a second run below only when needed — here
	// EProf alone suffices, the trace round-trip test covers Timeline).
	var buf bytes.Buffer
	if err := SaveResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	lr, err := LoadResult(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lr.EProf, r.EProf) || lr.EProfShift != r.EProfShift {
		t.Error("energy profile does not round-trip through the run log")
	}

	// And the facade writer must produce a loadable gzip (structure is
	// checked in internal/eprof; CI validates with `go tool pprof`).
	var pb bytes.Buffer
	if err := WriteEnergyProfile(&pb, r); err != nil {
		t.Fatal(err)
	}
	if pb.Len() == 0 {
		t.Error("empty profile output")
	}
}

func TestWriteEnergyProfileRequiresProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteEnergyProfile(&buf, &RunResult{Benchmark: "compress"}); err == nil {
		t.Fatal("writing a profile from a run without -eprof must error")
	}
}

// TestSymbolizer checks guest-address symbolization against the kernel
// symbol table: any kernel symbol's own address must resolve to its name,
// and addresses below every symbol must degrade to the empty string.
func TestSymbolizer(t *testing.T) {
	img, err := kern.Build()
	if err != nil {
		t.Skipf("kernel image unavailable: %v", err)
	}
	sym := Symbolizer("compress")
	checked := 0
	for name, addr := range img.Symbols {
		if got := sym(addr); got != name {
			// Two symbols can share an address; accept any name that maps
			// back to the same address.
			if img.Symbols[got] != addr {
				t.Errorf("sym(%#x) = %q, want %q", addr, got, name)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("kernel image has no symbols to check")
	}
	lo := uint32(math.MaxUint32)
	for _, addr := range img.Symbols {
		if addr < lo {
			lo = addr
		}
	}
	if lo > 0 {
		if got := sym(lo - 1); got != "" {
			t.Errorf("sym(%#x) = %q, want unsymbolized below the first symbol", lo-1, got)
		}
	}
}

func TestEnergyProfileRejectsSwift(t *testing.T) {
	_, err := Run("compress", Options{Core: "swift", EnergyProfile: true})
	if err == nil {
		t.Fatal("swift has no power model; -eprof must be rejected")
	}
}

// TestTimelineCountersMatchRows: the live Perfetto power counters and the
// swreport timeline come from one computation, so every "power … (W)"
// counter a traced run emits, the trailing partial point's included, must
// equal, exactly, the matching field of the finished result's
// TimelineRows, point for point. The cells cover both detailed cores and
// a disk that spins up (jack under standby2).
func TestTimelineCountersMatchRows(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation runs skipped in -short mode")
	}
	for _, tc := range []struct {
		name, bench string
		opt         Options
	}{
		{"mipsy/compress", "compress", Options{Core: "mipsy"}},
		{"mxs/compress", "compress", Options{Core: "mxs"}},
		{"mipsy/jack/standby2", "jack", Options{Core: "mipsy", DiskPolicy: "standby2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := obs.NewTracer()
			obs.SetTracer(tr)
			defer obs.SetTracer(nil)
			tc.opt.TimelineCycles = 500_000
			r, err := Run(tc.bench, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if tc.opt.DiskPolicy == "standby2" && r.DiskStats.Spinups == 0 {
				t.Fatal("the disk never spins up: the cell covers nothing a conventional one does not")
			}
			if r.TotalCycles%tc.opt.TimelineCycles == 0 {
				t.Fatal("the run ends on a point boundary: no trailing partial point")
			}
			rows, fromSamples := core.NewEstimator(power.Default()).TimelineRows(r)
			if fromSamples || len(rows) < 2 {
				t.Fatalf("run derived %d timeline rows (from samples: %v), want a timeline", len(rows), fromSamples)
			}
			want := map[string][]float64{}
			for _, row := range rows {
				for i, w := range []float64{row.CPUW, row.MemW, row.ClockW, row.DiskW, row.TotalW} {
					name := "power " + timelineComponents[i] + " (W)"
					want[name] = append(want[name], w)
				}
				for m := trace.Mode(0); m < trace.NumModes; m++ {
					name := "power " + m.String() + " (W)"
					want[name] = append(want[name], row.ModeW[m])
				}
			}
			got := map[string][]float64{}
			for _, ev := range tr.Events() {
				if ev.Ph == "C" {
					got[ev.Name] = append(got[ev.Name], ev.Args["value"].(float64))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("traced %d power counter series, want %d", len(got), len(want))
			}
			for name, w := range want {
				if !reflect.DeepEqual(got[name], w) {
					t.Errorf("%s: counters %v, TimelineRows %v", name, got[name], w)
				}
			}
		})
	}
}
