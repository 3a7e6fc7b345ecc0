package softwatt

import (
	"math"
	"testing"
)

// TestTimelinePartitionsRun pins the derived timeline's structural
// contract: the points partition [0, halt] exactly — contiguous and
// non-empty, every interior point the interval rounded up to whole sample
// windows, the last ending at the halt with the run's disk energy. The
// intervals cover one below a window, one that is not a window multiple,
// ones of at least the run length (2⁶⁴−1 among them, whose rounding to
// cycles would wrap) and a run that halts exactly on a point boundary.
func TestTimelinePartitionsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation runs skipped in -short mode")
	}
	cfg, err := Options{Core: "mipsy"}.MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	whole, _ := runConfigured(t, cfg, "compress", false, 0)
	halt := whole.TotalCycles

	// Windows of a k-th of the run, one per point: the last point ends on
	// a boundary.
	exact, k := cfg, uint64(2)
	for ; halt%k != 0; k++ {
		if k == 64 {
			t.Fatalf("no k ≤ 64 divides the run's %d cycles", halt)
		}
	}
	exact.WindowCycles = halt / k

	for _, tc := range []struct {
		name     string
		cfg      bool // use exact's windows
		interval uint64
		points   int // 0: at least two
	}{
		{"below-one-window", false, 1, 0},
		{"not-a-window-multiple", false, 30_001, 0},
		{"run-length", false, halt, 1},
		{"max-uint64", false, math.MaxUint64, 1},
		{"halts-on-a-boundary", true, halt / k, int(k)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			if tc.cfg {
				c = exact
			}
			r, _ := runConfigured(t, c, "compress", false, tc.interval)
			if r.TotalCycles != halt {
				t.Fatalf("run halted at %d, the reference run at %d", r.TotalCycles, halt)
			}
			tl := r.Timeline
			if tc.points > 0 && len(tl) != tc.points || len(tl) < 2 && tc.points == 0 {
				t.Fatalf("%d points, want %d (0: at least two)", len(tl), tc.points)
			}
			w := c.WindowCycles
			span := (tc.interval/w + min(tc.interval%w, 1)) * w
			prev := uint64(0)
			for i, p := range tl {
				if p.Start != prev {
					t.Fatalf("point %d starts at %d, previous ended at %d", i, p.Start, prev)
				}
				if p.End <= p.Start {
					t.Fatalf("point %d is empty: [%d, %d)", i, p.Start, p.End)
				}
				if i < len(tl)-1 && p.End-p.Start != span {
					t.Fatalf("interior point %d spans %d cycles, want %d", i, p.End-p.Start, span)
				}
				if i > 0 && p.DiskJ < tl[i-1].DiskJ {
					t.Fatalf("point %d: disk energy falls from %v to %v J", i, tl[i-1].DiskJ, p.DiskJ)
				}
				prev = p.End
			}
			if prev != halt {
				t.Fatalf("timeline ends at %d, run halted at %d", prev, halt)
			}
			if last := tl[len(tl)-1].DiskJ; last != r.DiskEnergyJ {
				t.Fatalf("last point's disk energy %v J, the run's %v J", last, r.DiskEnergyJ)
			}
		})
	}
}
