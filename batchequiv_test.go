package softwatt

// Batch equivalence and clock-skip safety (DESIGN.md §16). The
// detailed cores run their stage loop inside RunBatch, bounded by the
// machine's next device/timer/telemetry event, and skip the clock over
// provably idle stretches. Two end-to-end properties protect that
// machinery:
//
//   - TestTickBatchRunEquivalence: for every workload and both detailed
//     cores, a batched run serializes byte-for-byte identically to the
//     per-cycle loop (DisableSkip), down to every sample window and unit
//     count.
//
//   - TestClockSkipSafety: under randomized device latencies and event
//     periods, the machine never advances past a pending device completion
//     or a telemetry boundary. Overshooting a device event would shift an
//     interrupt delivery and change the run bytes (checked against the
//     per-cycle loop). The power timeline derived from the run's windows
//     must partition it on whole windows (checked on all three cores).

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"softwatt/internal/core"
	"softwatt/internal/disk"
	"softwatt/internal/machine"
	"softwatt/internal/power"
	"softwatt/internal/trace"
	"softwatt/internal/workload"
)

// runConfigured boots cfg with the named workload and returns the collected
// result, with its power timeline derived when interval is non-zero, and
// the machine's committed count.
func runConfigured(t *testing.T, cfg machine.Config, bench string, disableSkip bool, interval uint64) (*RunResult, uint64) {
	t.Helper()
	w, err := workload.Build(bench)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	m.DisableSkip = disableSkip
	rec := m.Disk().Record()
	m.Collector().SetEnergyFn(power.Default().InvocationEnergy)
	if err := m.Run(0); err != nil {
		t.Fatalf("run %s (DisableSkip=%v): %v (console: %q)", bench, disableSkip, err, m.Console())
	}
	r := core.Collect(m, bench, cfg.Core.String())
	if interval > 0 {
		n := core.TimelineWindows(interval, m.Collector().WindowCycles)
		r.Timeline, _, _, _ = core.Timeline(r.Samples, n, disk.NewReplayer(m.Config().Disk, rec))
	}
	committed := m.Committed
	m.Release()
	return r, committed
}

// TestTickBatchRunEquivalence runs every workload on both detailed cores
// twice — through the batch run loop and through per-cycle ticking —
// and requires bit-identical serialized results, both equal to the
// pinned digest (resultPins), so a change shared by both loops is caught
// too.
func TestTickBatchRunEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run equivalence matrix skipped in -short mode")
	}
	for _, coreName := range []string{"mipsy", "mxs"} {
		for _, bench := range workload.Names {
			t.Run(coreName+"/"+bench, func(t *testing.T) {
				opt := Options{Core: coreName}
				cfg, err := opt.MachineConfig()
				if err != nil {
					t.Fatal(err)
				}
				batched, bc := runConfigured(t, cfg, bench, false, 0)
				percycle, pc := runConfigured(t, cfg, bench, true, 0)
				if bc != pc {
					t.Errorf("machine committed count: batched=%d per-cycle=%d", bc, pc)
				}
				bb, pb := resultBytes(t, batched), resultBytes(t, percycle)
				if !bytes.Equal(bb, pb) {
					t.Fatalf("batched run diverges from per-cycle: %d vs %d bytes, first difference at byte %d",
						len(bb), len(pb), firstDiff(bb, pb))
				}
				checkResultPin(t, coreName+"/"+bench, bb)
				checkResultPin(t, coreName+"/"+bench, pb)
			})
		}
	}
}

// checkTimeline asserts the timeline's points sit on their boundaries:
// every interval ends exactly where the next begins, interior intervals
// span exactly the effective timeline period, and every interior boundary
// lands on a whole sample window (the period rounds up to one).
func checkTimeline(t *testing.T, tl []trace.TimelinePoint, window uint64) {
	t.Helper()
	if len(tl) < 2 {
		t.Fatalf("timeline has %d points: the boundary check is vacuous", len(tl))
	}
	interval := tl[0].End - tl[0].Start
	for i, p := range tl {
		if i > 0 && p.Start != tl[i-1].End {
			t.Fatalf("timeline point %d starts at %d, previous ended at %d", i, p.Start, tl[i-1].End)
		}
		if i < len(tl)-1 {
			if got := p.End - p.Start; got != interval {
				t.Fatalf("timeline point %d spans %d cycles, want %d: a batch overran the boundary",
					i, got, interval)
			}
			if p.End%window != 0 {
				t.Fatalf("timeline point %d ends at %d, not on a %d-cycle sample window", i, p.End, window)
			}
		}
	}
}

// TestClockSkipSafety sweeps randomized device latencies (disk mechanical
// and power-mode time scales), timer periods, sample windows and timeline
// periods, on all three cores. The detailed cores must stay bit-identical
// to per-cycle ticking — any clock skip past a pending disk completion or
// timer tick shifts an interrupt and changes the bytes, derived timeline
// included — and every core's timeline must land exactly on its
// boundaries.
func TestClockSkipSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized full-run property test skipped in -short mode")
	}
	for _, coreName := range []string{"mipsy", "mxs", "swift"} {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", coreName, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed * 31337))
				opt := Options{Core: coreName}
				cfg, err := opt.MachineConfig()
				if err != nil {
					t.Fatal(err)
				}
				cfg.Disk.MechScale = 50 + float64(rng.Intn(450))
				cfg.Disk.TimeScale = 200 + float64(rng.Intn(1800))
				cfg.TimerCycles = uint32(30_000 + rng.Intn(120_000))
				cfg.WindowCycles = uint64(5_000 + rng.Intn(35_000))
				interval := uint64(50_000 + rng.Intn(200_000))

				batched, _ := runConfigured(t, cfg, "compress", false, interval)
				checkTimeline(t, batched.Timeline, cfg.WindowCycles)
				if coreName == "swift" {
					return // no per-cycle oracle for the batch core
				}
				percycle, _ := runConfigured(t, cfg, "compress", true, interval)
				bb, pb := resultBytes(t, batched), resultBytes(t, percycle)
				if !bytes.Equal(bb, pb) {
					t.Fatalf("randomized-latency run diverges from per-cycle: %d vs %d bytes, first difference at byte %d",
						len(bb), len(pb), firstDiff(bb, pb))
				}
			})
		}
	}
}
