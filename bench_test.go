// The benchmark harness regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each Benchmark*
// runs the full simulation(s) behind one artifact and reports the headline
// quantities as benchmark metrics, printing the rendered table on the first
// iteration with -v. Absolute numbers come from this reproduction's scaled
// substrate; EXPERIMENTS.md records the paper-vs-measured comparison.
package softwatt

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"softwatt/internal/core"
	"softwatt/internal/machine"
	"softwatt/internal/power"
	"softwatt/internal/trace"
	"softwatt/internal/workload"
)

// benchCache shares simulation results between benchmarks so that the full
// `go test -bench=.` pass runs each configuration once.
var benchCache = struct {
	sync.Mutex
	mxs  []*RunResult
	idle []*RunResult
	fig9 []Fig9Row
}{}

// allBench is the six-benchmark spec list under one option set.
func allBench(opt Options) []RunSpec {
	specs := make([]RunSpec, len(Benchmarks))
	for i, b := range Benchmarks {
		specs[i] = RunSpec{Benchmark: b, Options: opt}
	}
	return specs
}

func mxsRuns(b *testing.B) []*RunResult {
	b.Helper()
	benchCache.Lock()
	defer benchCache.Unlock()
	if benchCache.mxs == nil {
		runs, err := RunBatch(allBench(Options{Core: "mxs"}), BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		benchCache.mxs = runs
	}
	return benchCache.mxs
}

func idleRuns(b *testing.B) []*RunResult {
	b.Helper()
	benchCache.Lock()
	defer benchCache.Unlock()
	if benchCache.idle == nil {
		runs, err := RunBatch(allBench(Options{Core: "mxs", DiskPolicy: "idle"}), BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		benchCache.idle = runs
	}
	return benchCache.idle
}

// BenchmarkMaxPowerValidation reproduces the paper's §2 validation: the
// maximum CPU power of the R10000-class configuration (paper: 25.3 W
// against the 30 W datasheet value).
func BenchmarkMaxPowerValidation(b *testing.B) {
	var w float64
	for i := 0; i < b.N; i++ {
		w = ValidateMaxPower()
	}
	b.ReportMetric(w, "W")
}

// BenchmarkFig3JessMemoryProfile regenerates Figure 3: the jess execution
// and memory-subsystem power profile on Mipsy plus the single-issue MXS
// processor profile.
func BenchmarkFig3JessMemoryProfile(b *testing.B) {
	est := NewEstimator()
	for i := 0; i < b.N; i++ {
		r, err := Run("jess", Options{Core: "mipsy"})
		if err != nil {
			b.Fatal(err)
		}
		r1, err := Run("jess", Options{Core: "mxs1"})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + est.RenderProfile(r, "Fig 3: memory subsystem profile (Mipsy)"))
			b.Log("\n" + est.RenderProfile(r1, "Fig 3: single-issue MXS processor profile"))
			// §3.2: memory subsystem avg power > datapath on single issue.
			bud := est.PowerBudget([]*RunResult{r})
			mem := bud.L1IW + bud.L1DW + bud.L2W + bud.MemoryW
			b.ReportMetric(mem/bud.DatapathW, "mem/datapath-power-ratio")
		}
	}
}

// BenchmarkFig4JessProcessorProfile regenerates Figure 4: the jess
// processor profile on the 4-wide MXS.
func BenchmarkFig4JessProcessorProfile(b *testing.B) {
	est := NewEstimator()
	for i := 0; i < b.N; i++ {
		r, err := Run("jess", Options{Core: "mxs"})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + est.RenderProfile(r, "Fig 4: processor profile (MXS)"))
			b.ReportMetric(est.PeakPowerW(r), "peak-W")
		}
	}
}

// BenchmarkFig5PowerBudgetConventional regenerates Figure 5: the overall
// power budget with the conventional disk (paper: disk 34%, datapath 22%,
// clock 22%, memory 15%, L1I 6%).
func BenchmarkFig5PowerBudgetConventional(b *testing.B) {
	est := NewEstimator()
	for i := 0; i < b.N; i++ {
		runs := mxsRuns(b)
		bud := est.PowerBudget(runs)
		if i == 0 {
			b.Log("\n" + est.RenderBudget(runs, "Fig 5: conventional disk"))
			b.ReportMetric(bud.Pct("disk"), "disk-%")
			b.ReportMetric(bud.Pct("clock"), "clock-%")
			b.ReportMetric(bud.Pct("datapath"), "datapath-%")
		}
	}
}

// BenchmarkFig6ModeAveragePower regenerates Figure 6: average power per
// software mode, stacked by component (paper: user mode the highest).
func BenchmarkFig6ModeAveragePower(b *testing.B) {
	est := NewEstimator()
	for i := 0; i < b.N; i++ {
		runs := mxsRuns(b)
		mp := est.ModeAveragePower(runs)
		if i == 0 {
			b.Log("\n" + est.RenderFig6(runs))
			b.ReportMetric(mp[ModeUser].Total, "user-W")
			b.ReportMetric(mp[ModeIdle].Total, "idle-W")
		}
	}
}

// BenchmarkFig7PowerBudgetLowPower regenerates Figure 7: the power budget
// with the IDLE-capable disk (paper: disk falls from 34% to 23% and the
// hotspot shifts to the clock and the L1 I-cache).
func BenchmarkFig7PowerBudgetLowPower(b *testing.B) {
	est := NewEstimator()
	for i := 0; i < b.N; i++ {
		runs := idleRuns(b)
		bud := est.PowerBudget(runs)
		if i == 0 {
			b.Log("\n" + est.RenderBudget(runs, "Fig 7: IDLE-capable disk"))
			b.ReportMetric(bud.Pct("disk"), "disk-%")
		}
	}
}

// BenchmarkFig8ServicePower regenerates Figure 8: average power of the four
// key kernel services (paper: utlb clearly the lowest).
func BenchmarkFig8ServicePower(b *testing.B) {
	est := NewEstimator()
	for i := 0; i < b.N; i++ {
		runs := mxsRuns(b)
		sv := est.ServiceAveragePower(runs, []Svc{SvcUTLB, SvcRead, SvcDemandZero, SvcCacheFlush})
		if i == 0 {
			b.Log("\n" + est.RenderFig8(runs))
			b.ReportMetric(sv[0].Total, "utlb-W")
			b.ReportMetric(sv[1].Total, "read-W")
		}
	}
}

// BenchmarkFig9DiskSweep regenerates Figure 9: disk energy and workload
// idle cycles across the four disk configurations for all six benchmarks.
func BenchmarkFig9DiskSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchCache.Lock()
		if benchCache.fig9 == nil {
			rows, err := sweep(Benchmarks, BatchOptions{})
			if err != nil {
				benchCache.Unlock()
				b.Fatal(err)
			}
			benchCache.fig9 = rows
		}
		rows := benchCache.fig9
		benchCache.Unlock()
		if i == 0 {
			b.Log("\n" + RenderFig9(rows))
			// mtrt's signature anomaly: the 4 s threshold costs MORE disk
			// energy than the 2 s threshold.
			var e2, e4 float64
			for _, r := range rows {
				if r.Benchmark == "mtrt" && r.Policy == "standby2" {
					e2 = r.DiskJ
				}
				if r.Benchmark == "mtrt" && r.Policy == "standby4" {
					e4 = r.DiskJ
				}
			}
			b.ReportMetric(e4/e2, "mtrt-standby4/2-energy-ratio")
		}
	}
}

// BenchmarkTable2ModeBreakdown regenerates Table 2: per-benchmark cycles vs
// energy per software mode.
func BenchmarkTable2ModeBreakdown(b *testing.B) {
	est := NewEstimator()
	for i := 0; i < b.N; i++ {
		runs := mxsRuns(b)
		if i == 0 {
			b.Log("\n" + est.RenderTable2(runs))
			ms := est.ModeBreakdown(runs[1]) // jess
			b.ReportMetric(ms.CyclesPct[ModeUser], "jess-user-cycles-%")
			b.ReportMetric(ms.EnergyPct[ModeUser], "jess-user-energy-%")
		}
	}
}

// BenchmarkTable3CacheRefs regenerates Table 3: L1 references per cycle per
// mode (paper: user fetch rate ~2/cycle, kernel ~1.1).
func BenchmarkTable3CacheRefs(b *testing.B) {
	est := NewEstimator()
	for i := 0; i < b.N; i++ {
		runs := mxsRuns(b)
		if i == 0 {
			b.Log("\n" + est.RenderTable3(runs))
			cr := est.CacheRefsPerCycle(runs[0]) // compress
			b.ReportMetric(cr.IL1[ModeUser], "compress-user-iL1/cyc")
			b.ReportMetric(cr.IL1[ModeKernel], "compress-kernel-iL1/cyc")
		}
	}
}

// BenchmarkTable4KernelServices regenerates Table 4: the kernel service
// breakdown by cycles and energy per benchmark.
func BenchmarkTable4KernelServices(b *testing.B) {
	est := NewEstimator()
	for i := 0; i < b.N; i++ {
		runs := mxsRuns(b)
		if i == 0 {
			b.Log("\n" + est.RenderTable4(runs))
			rows := est.ServiceTable(runs[1]) // jess
			b.ReportMetric(rows[0].CyclesPct, "jess-top-service-cycles-%")
		}
	}
}

// BenchmarkTable5ServiceVariation regenerates Table 5: the coefficient of
// deviation of per-invocation service energy (paper: internal services
// <3%, I/O syscalls ~6-11%).
func BenchmarkTable5ServiceVariation(b *testing.B) {
	est := NewEstimator()
	for i := 0; i < b.N; i++ {
		runs := mxsRuns(b)
		if i == 0 {
			b.Log("\n" + est.RenderTable5(runs))
			rows := est.ServiceVariation(runs, []Svc{SvcUTLB, SvcRead})
			if len(rows) == 2 {
				b.ReportMetric(rows[0].CoeffDevPct, "utlb-cod-%")
				b.ReportMetric(rows[1].CoeffDevPct, "read-cod-%")
			}
		}
	}
}

// BenchmarkX1KernelShareAcrossCores regenerates the §3.2 observation that
// kernel activity grows from single-issue to superscalar (paper: 14.28% to
// 21.02%).
func BenchmarkX1KernelShareAcrossCores(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r1, err := Run("jess", Options{Core: "mipsy"})
		if err != nil {
			b.Fatal(err)
		}
		r4, err := Run("jess", Options{Core: "mxs"})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			est := NewEstimator()
			s1, s4 := est.Summarize(r1), est.Summarize(r4)
			b.ReportMetric(s1.KernelPct, "single-issue-kernel-%")
			b.ReportMetric(s4.KernelPct, "superscalar-kernel-%")
		}
	}
}

// BenchmarkFig9SweepWorkers measures the wall clock of the full 24-cell
// Figure 9 sweep at increasing worker counts. The cells are independent
// simulations, so on a machine with 4+ cores the j4/j8 variants should
// complete the sweep at least 2x faster than j1 while producing the same
// rows (the equivalence itself is asserted by TestSweepParallelMatchesSerial).
// Run with -bench Fig9SweepWorkers and compare ns/op across sub-benchmarks.
func BenchmarkFig9SweepWorkers(b *testing.B) {
	for _, j := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, err := sweep(Benchmarks, BatchOptions{Workers: j})
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != len(Benchmarks)*len(DiskPolicies) {
					b.Fatalf("%d rows, want %d", len(rows), len(Benchmarks)*len(DiskPolicies))
				}
			}
			b.ReportMetric(float64(len(Benchmarks)*len(DiskPolicies))/b.Elapsed().Seconds()*float64(b.N), "cells/s")
		})
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed on each core
// (cycles simulated per wall second) — an engineering metric, not a paper
// artifact. swift is the fast-forward functional core; its floor is gated
// by scripts/bench.sh like the timing models'.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for _, core := range []string{"mipsy", "mxs", "swift"} {
		b.Run(core, func(b *testing.B) {
			var cycles, insts uint64
			for i := 0; i < b.N; i++ {
				r, err := Run("compress", Options{Core: core})
				if err != nil {
					b.Fatal(err)
				}
				cycles += r.TotalCycles
				insts += r.Committed
			}
			secs := b.Elapsed().Seconds()
			b.ReportMetric(float64(cycles)/secs/1e6, "Mcycles/s")
			b.ReportMetric(float64(insts)/secs/1e6, "Minsts/s")
			b.ReportMetric(secs*1e9/float64(insts), "ns/inst")
		})
	}
	// The detailed cores with the energy profiler and timeline on: the
	// observability overhead ceiling (DESIGN.md §15) is gated by
	// scripts/bench.sh against each core's plain row — enabled must stay
	// within 10% on mipsy and mxs alike (the mxs commit path batches unit
	// counts, so its attribution hook is the one most at risk of creeping
	// cost), and the plain mipsy row itself (the disabled path, compiled-in
	// but dormant) within 2% of the committed baseline.
	for _, core := range []string{"mipsy", "mxs"} {
		b.Run(core+"-eprof", func(b *testing.B) {
			var cycles, insts uint64
			for i := 0; i < b.N; i++ {
				r, err := Run("compress", Options{Core: core, EnergyProfile: true, TimelineCycles: 1_000_000})
				if err != nil {
					b.Fatal(err)
				}
				cycles += r.TotalCycles
				insts += r.Committed
			}
			secs := b.Elapsed().Seconds()
			b.ReportMetric(float64(cycles)/secs/1e6, "Mcycles/s")
			b.ReportMetric(float64(insts)/secs/1e6, "Minsts/s")
			b.ReportMetric(secs*1e9/float64(insts), "ns/inst")
		})
	}
}

// BenchmarkSampledSpeedup is the DESIGN.md §13 wall-clock claim: on a
// ~10^8-cycle workload (compress scaled to 300 rounds), sampled simulation
// — one swift fast-forward pass plus 10 detailed windows — must beat a
// full-detail mipsy run of the same workload by >=5x. Both sides run for
// real; speedup-x is their measured wall-clock ratio, and scripts/bench.sh
// gates it alongside the per-core throughput floors. The sampled side's
// 95% CI half-width is reported so a run whose windows stop agreeing (a
// checkpoint-placement regression) is visible in the same output.
func BenchmarkSampledSpeedup(b *testing.B) {
	const rounds = 300
	w := scaledCompress(b, rounds)
	for i := 0; i < b.N; i++ {
		start := time.Now()
		s, err := runSampledWorkload("compress", w, Options{Core: "mipsy"}, SampleOptions{})
		if err != nil {
			b.Fatal(err)
		}
		sampledSec := time.Since(start).Seconds()
		if s.TotalCycles < 100_000_000 {
			b.Fatalf("scaled workload ran only %d cycles; the >=10^8 claim needs more rounds", s.TotalCycles)
		}

		start = time.Now()
		cfg, err := Options{Core: "mipsy"}.MachineConfig()
		if err != nil {
			b.Fatal(err)
		}
		m, err := machine.New(cfg, w)
		if err != nil {
			b.Fatal(err)
		}
		m.Collector().SetEnergyFn(power.Default().InvocationEnergy)
		if err := m.Run(0); err != nil {
			b.Fatal(err)
		}
		exact := core.Collect(m, "compress", cfg.Core.String())
		m.Release()
		detailedSec := time.Since(start).Seconds()

		if i == 0 {
			model := power.Default()
			var e float64
			for mo := trace.Mode(0); mo < trace.NumModes; mo++ {
				e += model.BucketEnergy(&exact.ModeTotals[mo]).Total
			}
			exactW := e / (float64(exact.TotalCycles) / exact.ClockHz)
			b.ReportMetric(sampledSec, "sampled-s")
			b.ReportMetric(detailedSec, "detailed-s")
			b.ReportMetric(detailedSec/sampledSec, "speedup-x")
			b.ReportMetric(s.MeanPowerW, "sampled-W")
			b.ReportMetric(s.PowerCI95W, "ci95-W")
			b.ReportMetric(exactW, "exact-W")
		}
	}
}

// BenchmarkSampledWarmFF is the DESIGN.md §14 amortization claim: with a
// persistent fast-forward reservoir cache, the second sampled run of the
// same ~10^8-cycle workload skips the fast-forward pass and pays only for
// its detailed windows. Both runs execute for real against a fresh cache
// directory; warmspeed-x is their measured wall-clock ratio (gated by
// scripts/bench.sh at >=3x), and the warm result must be structurally
// identical to the cold one — a cache that changed the answer would fail
// here before any speedup is reported. Five windows, not the default ten:
// what the cache amortises is the fast-forward pass, and the windows —
// paid identically on both sides — only dilute the measured ratio.
func BenchmarkSampledWarmFF(b *testing.B) {
	const rounds = 300
	w := scaledCompress(b, rounds)
	for i := 0; i < b.N; i++ {
		so := SampleOptions{Windows: 5, FFCacheDir: b.TempDir()}

		start := time.Now()
		cold, err := runSampledWorkload("compress", w, Options{Core: "mipsy"}, so)
		if err != nil {
			b.Fatal(err)
		}
		coldSec := time.Since(start).Seconds()

		start = time.Now()
		warm, err := runSampledWorkload("compress", w, Options{Core: "mipsy"}, so)
		if err != nil {
			b.Fatal(err)
		}
		warmSec := time.Since(start).Seconds()

		if !reflect.DeepEqual(cold, warm) {
			b.Fatalf("warm FF-cache result differs from cold:\ncold %+v\nwarm %+v", cold, warm)
		}
		if i == 0 {
			b.ReportMetric(coldSec, "cold-s")
			b.ReportMetric(warmSec, "warm-s")
			b.ReportMetric(coldSec/warmSec, "warmspeed-x")
			b.ReportMetric(cold.MeanPowerW, "sampled-W")
		}
	}
}

// ---------------------------------------------------------------------------
// Extensions and ablations (DESIGN.md design-choice studies).
// ---------------------------------------------------------------------------

// BenchmarkA1IdleHalt quantifies the paper's §5 proposal, implemented here
// as a kernel option: halting the processor in the idle loop instead of
// busy-waiting.
func BenchmarkA1IdleHalt(b *testing.B) {
	est := NewEstimator()
	for i := 0; i < b.N; i++ {
		busy, err := Run("jess", Options{Core: "mipsy"})
		if err != nil {
			b.Fatal(err)
		}
		halt, err := Run("jess", Options{Core: "mipsy", IdleHalt: true})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			pb := est.ModeAveragePower([]*RunResult{busy})[ModeIdle].Total
			ph := est.ModeAveragePower([]*RunResult{halt})[ModeIdle].Total
			b.ReportMetric(pb, "busy-idle-W")
			b.ReportMetric(ph, "halt-idle-W")
			b.ReportMetric(100*(est.Summarize(busy).CPUMemJ-est.Summarize(halt).CPUMemJ)/
				est.Summarize(busy).CPUMemJ, "energy-saved-%")
		}
	}
}

// BenchmarkA2TraceEstimation quantifies the paper's trace-driven kernel
// energy estimation proposal via leave-one-out cross validation.
func BenchmarkA2TraceEstimation(b *testing.B) {
	est := NewEstimator()
	for i := 0; i < b.N; i++ {
		runs, err := RunBatch(allBench(Options{Core: "mipsy"}), BatchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var worst float64
			for _, te := range est.CrossValidateTraceEstimation(runs) {
				if e := te.InternalErrorPct; e < 0 {
					e = -e
					if e > worst {
						worst = e
					}
				} else if e > worst {
					worst = e
				}
			}
			b.ReportMetric(worst, "worst-internal-err-%")
		}
	}
}

// BenchmarkAblationL1ISize studies the design sensitivity DESIGN.md calls
// out: how the L1 I-cache size moves both performance (cycles) and the
// cache's share of the power budget. Larger arrays cost more energy per
// access but miss less.
func BenchmarkAblationL1ISize(b *testing.B) {
	for _, kb := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("%dKB", kb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mcfg := machine.DefaultConfig()
				mcfg.Core = machine.CoreMipsy
				mcfg.Hier.L1I.Size = kb << 10
				w, err := workload.Build("jess")
				if err != nil {
					b.Fatal(err)
				}
				m, err := machine.New(mcfg, w)
				if err != nil {
					b.Fatal(err)
				}
				pcfg := power.DefaultConfig()
				pcfg.L1ISize = kb << 10
				model := power.New(power.DefaultTech(), pcfg)
				m.Collector().SetEnergyFn(model.InvocationEnergy)
				if err := m.Run(0); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					r := core.Collect(m, "jess", "mipsy")
					est := core.NewEstimator(model)
					bud := est.PowerBudget([]*RunResult{r})
					b.ReportMetric(float64(r.TotalCycles), "cycles")
					b.ReportMetric(bud.L1IW, "L1I-W")
					b.ReportMetric(model.UnitJ[trace.UnitL1I]*1e9, "L1I-nJ/access")
				}
			}
		})
	}
}

// BenchmarkAblationWindowSize studies the instruction-window energy/IPC
// trade-off on the out-of-order core.
func BenchmarkAblationWindowSize(b *testing.B) {
	for _, win := range []int{16, 64} {
		b.Run(fmt.Sprintf("win%d", win), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mcfg := machine.DefaultConfig()
				mcfg.Core = machine.CoreMXS
				w, err := workload.Build("compress")
				if err != nil {
					b.Fatal(err)
				}
				// The window size is an MXS parameter; route via a custom
				// machine build.
				m, err := machine.NewWithMXSWindow(mcfg, w, win)
				if err != nil {
					b.Fatal(err)
				}
				pcfg := power.DefaultConfig()
				pcfg.WindowSize = win
				model := power.New(power.DefaultTech(), pcfg)
				m.Collector().SetEnergyFn(model.InvocationEnergy)
				if err := m.Run(0); err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					r := core.Collect(m, "compress", "mxs")
					est := core.NewEstimator(model)
					s := est.Summarize(r)
					b.ReportMetric(s.IPC, "IPC")
					b.ReportMetric(s.CPUMemJ*1e3, "CPU+mem-mJ")
				}
			}
		})
	}
}
