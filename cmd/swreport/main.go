// Command swreport regenerates the paper's evaluation artifacts. Each
// experiment id selects one table or figure (see DESIGN.md §4); -exp all
// runs the whole set. Multi-run experiments (the all-benchmark passes and
// the Figure 9 sweep) fan their independent simulations out over a worker
// pool (-j) with per-cell progress on stderr; report output is unchanged
// by the worker count.
//
// With -logs, every simulation goes through a run-log cache in the given
// directory: cells whose saved log matches the requested configuration
// (by config digest) load in milliseconds instead of re-simulating, and
// cache misses simulate and save their log for next time. A warm cache
// regenerates the full report with zero simulations, byte-identical to
// the live-run output.
//
// -http serves live metrics and pprof during the passes; -trace records
// the whole report generation as a Perfetto-viewable pipeline trace.
//
// -sample/-window parameterize the s1 experiment, which cross-checks the
// sampled-simulation estimator against a full detailed run.
//
// A second mode turns swreport into a run-log viewer: with -eprof-top,
// -timeline, -timeline-csv, or -eprof, the positional arguments are saved
// v2 run logs (.swlog) and the requested energy-profile/power-timeline
// renderings are produced from them with zero simulation. The logs must
// have been recorded with the matching softwatt/swsweep flags (-eprof,
// -timeline); see DESIGN.md §15.
//
// Usage:
//
//	swreport [-j N] [-logs dir] [-http addr] [-trace file.json]
//	         [-sample N] [-window W]
//	         [-exp all|v1|t1|f2|f3|f4|f5|f6|f7|f8|f9|t2|t3|t4|t5|x1|x2|a1|a2|s1]
//	swreport [-eprof-top N] [-timeline] [-timeline-csv] [-eprof out.pb.gz]
//	         <run.swlog ...>
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"softwatt"
	"softwatt/internal/cli"
	"softwatt/internal/machine"
	"softwatt/internal/mem"
	"softwatt/internal/obs"
	"softwatt/internal/trace"
)

func main() {
	cl := cli.Register(flag.CommandLine, "", "override every experiment's CPU model (mipsy, mxs, mxs1, swift); default: each experiment's paper configuration. swift is a functional pass: power columns are not meaningful")
	exp := flag.String("exp", "all", "experiment id (see DESIGN.md §4) or 'all'")
	logsDir := flag.String("logs", "", "run-log cache directory: load saved runs, save simulated ones")
	eprofTop := flag.Int("eprof-top", 0, "log-viewer mode: print the N hottest guest code regions by energy from each positional run log")
	timelineSpark := flag.Bool("timeline", false, "log-viewer mode: print each positional run log's power timeline as terminal sparklines")
	timelineCSV := flag.Bool("timeline-csv", false, "log-viewer mode: print each positional run log's power timeline as CSV")
	eprofOut := flag.String("eprof", "", "log-viewer mode: write the single positional run log's energy profile as a gzipped pprof file")
	flag.Parse()
	cl.Start()
	defer cl.Stop()

	if *eprofTop > 0 || *timelineSpark || *timelineCSV || *eprofOut != "" {
		if err := viewLogs(flag.Args(), *eprofTop, *timelineSpark, *timelineCSV, *eprofOut); err != nil {
			cli.Fail(err)
		}
		return
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		ids = []string{"v1", "t1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "t2", "t3", "t4", "t5", "x1", "x2", "f9", "a1", "a2", "s1"}
	}
	st := &state{est: softwatt.NewEstimator(), flags: cl, logsDir: *logsDir}
	for _, id := range ids {
		if err := st.run(strings.TrimSpace(id)); err != nil {
			cli.Fail(fmt.Errorf("experiment %s: %v", id, err))
		}
	}
}

// viewLogs is the log-viewer mode: render energy profiles and power
// timelines from saved run logs with zero simulation.
func viewLogs(paths []string, top int, spark, csv bool, eprofOut string) error {
	if len(paths) == 0 {
		return fmt.Errorf("swreport: -eprof-top/-timeline/-eprof need run-log arguments")
	}
	if eprofOut != "" && len(paths) > 1 {
		return fmt.Errorf("swreport: -eprof needs a single run log")
	}
	est := softwatt.NewEstimator()
	for i, path := range paths {
		res, err := softwatt.LoadResultFile(path)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Println()
		}
		if top > 0 {
			fmt.Print(est.RenderEProfTop(res, top, softwatt.Symbolizer(res.Benchmark)))
		}
		if spark {
			fmt.Print(est.RenderTimeline(res, 64))
		}
		if csv {
			fmt.Print(est.RenderTimelineCSV(res))
		}
		if eprofOut != "" {
			if err := softwatt.WriteEnergyProfileFile(eprofOut, res); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote energy profile %s\n", eprofOut)
		}
	}
	return nil
}

type state struct {
	est       *softwatt.Estimator
	flags     *cli.Flags            // the shared run flags (-core override, -j, s1's sampling)
	logsDir   string                // -logs: run-log and sampled-result cache
	mxsRuns   []*softwatt.RunResult // cached all-benchmark MXS results
	mipsyRuns []*softwatt.RunResult // cached all-benchmark Mipsy results
}

// runs sends a list of cells through the run-log cache (when -logs is
// set): saved logs load instead of simulating, misses simulate and save.
// A -core override rewrites every cell's CPU model before submission.
// Every multi-run experiment shares the -j worker count and per-cell
// progress (rate, ETA, failures) on stderr.
func (s *state) runs(specs []softwatt.RunSpec) ([]*softwatt.RunResult, error) {
	if s.flags.Core != "" {
		for i := range specs {
			specs[i].Options.Core = s.flags.Core
		}
	}
	b := s.flags.BatchOptions()
	b.Progress = obs.NewProgress(os.Stderr).Cell
	b.LogDir = s.logsDir
	return softwatt.RunBatch(specs, b)
}

// one is runs for a single cell.
func (s *state) one(bench string, opt softwatt.Options) (*softwatt.RunResult, error) {
	res, err := s.runs([]softwatt.RunSpec{{Benchmark: bench, Options: opt}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// allBench builds the all-benchmark spec list for one option set.
func allBench(opt softwatt.Options) []softwatt.RunSpec {
	specs := make([]softwatt.RunSpec, len(softwatt.Benchmarks))
	for i, b := range softwatt.Benchmarks {
		specs[i] = softwatt.RunSpec{Benchmark: b, Options: opt}
	}
	return specs
}

func (s *state) mxs() ([]*softwatt.RunResult, error) {
	if s.mxsRuns == nil {
		fmt.Fprintln(os.Stderr, "running all benchmarks on MXS (this is the slow pass)...")
		runs, err := s.runs(allBench(softwatt.Options{Core: "mxs"}))
		if err != nil {
			return nil, err
		}
		s.mxsRuns = runs
	}
	return s.mxsRuns, nil
}

func (s *state) mipsy() ([]*softwatt.RunResult, error) {
	if s.mipsyRuns == nil {
		fmt.Fprintln(os.Stderr, "running all benchmarks on Mipsy...")
		runs, err := s.runs(allBench(softwatt.Options{Core: "mipsy"}))
		if err != nil {
			return nil, err
		}
		s.mipsyRuns = runs
	}
	return s.mipsyRuns, nil
}

func hdr(title string) {
	fmt.Printf("\n==== %s ====\n", title)
}

func (s *state) run(id string) error {
	switch id {
	case "v1":
		hdr("V1: CPU power model validation")
		fmt.Printf("Modelled maximum R10000-class CPU power: %.1f W\n", softwatt.ValidateMaxPower())
		fmt.Printf("Paper: SoftWatt reports 25.3 W against the 30 W datasheet maximum.\n")

	case "t1":
		hdr("T1: system model (Table 1)")
		cfg := machine.DefaultConfig()
		h := mem.DefaultHierConfig()
		fmt.Printf("Window 64, LSQ 32, 4-wide fetch/issue/commit, 2 INT + 2 FP units\n")
		fmt.Printf("BHT 1024, BTB 1024, RAS 32, unified TLB 64 entries\n")
		fmt.Printf("L1I %dKB/%dB/%d-way  L1D %dKB/%dB/%d-way  L2 %dMB/%dB/%d-way\n",
			h.L1I.Size>>10, h.L1I.LineSize, h.L1I.Assoc,
			h.L1D.Size>>10, h.L1D.LineSize, h.L1D.Assoc,
			h.L2.Size>>20, h.L2.LineSize, h.L2.Assoc)
		fmt.Printf("Memory %d MB, 0.35um, 3.3V, %d MHz\n", cfg.RAMBytes>>20, int(cfg.ClockHz/1e6))

	case "f2":
		hdr("F2: MK3003MAN operating modes (Figure 2)")
		fmt.Print("Mode      Power (W)\nSleep     0.15\nIdle      1.6\nStandby   0.35\nActive    3.2\nSeeking   4.1\nSpin up   4.2\n")
		fmt.Print("Transitions: IDLE->ACTIVE on seek; IDLE->STANDBY by spindown threshold;\n" +
			"STANDBY->ACTIVE via spinup (5 s, scaled); SLEEP via explicit command.\n")

	case "f3":
		hdr("F3: jess memory-system profile on Mipsy (Figure 3)")
		runs, err := s.runs([]softwatt.RunSpec{
			{Benchmark: "jess", Options: softwatt.Options{Core: "mipsy"}, Label: "jess/mipsy"},
			{Benchmark: "jess", Options: softwatt.Options{Core: "mxs1"}, Label: "jess/mxs1"},
		})
		if err != nil {
			return err
		}
		fmt.Print(s.est.RenderProfile(runs[0], "Memory subsystem / execution profile"))
		fmt.Print(s.est.RenderProfile(runs[1], "Single-issue MXS processor profile"))

	case "f4":
		hdr("F4: jess processor profile on MXS (Figure 4)")
		runs, err := s.mxs()
		if err != nil {
			return err
		}
		fmt.Print(s.est.RenderProfile(runs[1], "Processor profile"))

	case "f5":
		hdr("F5: overall power budget, conventional disk (Figure 5)")
		runs, err := s.mxs()
		if err != nil {
			return err
		}
		fmt.Print(s.est.RenderBudget(runs, "Overall Average Power with Conventional Disk"))
		fmt.Println("Paper: disk 34%, datapath 22%, clock 22%, memory 15%, L1I 6%.")

	case "f6":
		hdr("F6: average power per mode (Figure 6)")
		runs, err := s.mxs()
		if err != nil {
			return err
		}
		fmt.Print(s.est.RenderFig6(runs))

	case "f7":
		hdr("F7: overall power budget, IDLE-capable disk (Figure 7)")
		runs, err := s.runs(allBench(softwatt.Options{Core: "mxs", DiskPolicy: "idle"}))
		if err != nil {
			return err
		}
		fmt.Print(s.est.RenderBudget(runs, "Overall Average Power with Low Power Disk"))
		fmt.Println("Paper: disk 23%, datapath 26%, clock 26%, memory 17%, L1I 8%.")

	case "f8":
		hdr("F8: average power of kernel services (Figure 8)")
		runs, err := s.mxs()
		if err != nil {
			return err
		}
		fmt.Print(s.est.RenderFig8(runs))

	case "t2":
		hdr("T2: cycles vs energy per mode (Table 2)")
		runs, err := s.mxs()
		if err != nil {
			return err
		}
		fmt.Print(s.est.RenderTable2(runs))

	case "t3":
		hdr("T3: cache references per cycle (Table 3)")
		runs, err := s.mxs()
		if err != nil {
			return err
		}
		fmt.Print(s.est.RenderTable3(runs))

	case "t4":
		hdr("T4: kernel services (Table 4)")
		runs, err := s.mxs()
		if err != nil {
			return err
		}
		fmt.Print(s.est.RenderTable4(runs))

	case "t5":
		hdr("T5: per-invocation service energy variation (Table 5)")
		runs, err := s.mxs()
		if err != nil {
			return err
		}
		fmt.Print(s.est.RenderTable5(runs))

	case "x1":
		hdr("X1: kernel share, single-issue vs superscalar (§3.2)")
		var inorder, ooo float64
		mipsyRuns, err := s.mipsy()
		if err != nil {
			return err
		}
		for _, r1 := range mipsyRuns {
			inorder += kernelShare(r1) / float64(len(mipsyRuns))
		}
		runs, err := s.mxs()
		if err != nil {
			return err
		}
		for _, r := range runs {
			ooo += kernelShare(r) / float64(len(runs))
		}
		fmt.Printf("Average kernel activity: single-issue %.2f%%, superscalar %.2f%%\n", inorder, ooo)
		fmt.Printf("Paper: 14.28%% -> 21.02%%\n")

	case "x2":
		hdr("X2: memory-subsystem vs datapath power, single-issue (§3.2)")
		r, err := s.one("jess", softwatt.Options{Core: "mipsy"})
		if err != nil {
			return err
		}
		b := s.est.PowerBudget([]*softwatt.RunResult{r})
		memSub := b.L1IW + b.L1DW + b.L2W + b.MemoryW
		fmt.Printf("jess on single-issue: memory subsystem %.2f W vs datapath %.2f W (ratio %.2f)\n",
			memSub, b.DatapathW, memSub/b.DatapathW)
		fmt.Printf("Paper: memory-subsystem average power is more than twice the datapath's.\n")

	case "f9":
		hdr("F9: disk power management sweep (Figure 9)")
		fmt.Fprintln(os.Stderr, "running 4 disk configurations x 6 benchmarks...")
		specs := softwatt.DiskSweepSpecs(softwatt.Benchmarks, softwatt.Options{Core: "mipsy"})
		results, err := s.runs(specs)
		if err != nil {
			return err
		}
		fmt.Print(softwatt.RenderFig9(softwatt.Fig9Rows(specs, results)))

	case "a1":
		hdr("A1 (extension): halting the idle loop (§5 proposal)")
		for _, halt := range []bool{false, true} {
			r, err := s.one("jess", softwatt.Options{Core: "mipsy", IdleHalt: halt})
			if err != nil {
				return err
			}
			mp := s.est.ModeAveragePower([]*softwatt.RunResult{r})
			sum := s.est.Summarize(r)
			fmt.Printf("idle-halt=%-5v idle power %.2f W, CPU+mem energy %.4f J\n",
				halt, mp[softwatt.ModeIdle].Total, sum.CPUMemJ)
		}
		fmt.Println("Paper §5: idle consumes >5% of system energy; halting the CPU instead of")
		fmt.Println("executing the idle process recovers it.")

	case "a2":
		hdr("A2 (extension): trace-driven kernel energy estimation (§3.3/§5)")
		runs, err := s.mipsy()
		if err != nil {
			return err
		}
		fmt.Printf("%-10s %18s %18s\n", "Benchmark", "all services err", "internal-only err")
		for _, te := range s.est.CrossValidateTraceEstimation(runs) {
			fmt.Printf("%-10s %17.1f%% %17.1f%%\n", te.Benchmark, te.ErrorPct, te.InternalErrorPct)
		}
		fmt.Println("Internal services estimate within the paper's ~10% margin from invocation")
		fmt.Println("counts alone; I/O syscalls need transfer-size-aware terms, as Table 5's")
		fmt.Println("deviation analysis anticipates.")

	case "s1":
		hdr("S1 (extension): sampled simulation vs full detail (DESIGN.md §13)")
		// The stock benchmarks are short (sampling exists for runs far past
		// them), so the cross-check defaults to a light 4 x 100k window set.
		so := s.flags.SampleOptions()
		so.LogDir = s.logsDir
		if so.Windows == 0 {
			so.Windows = 4
		}
		if so.WindowCycles == 0 {
			so.WindowCycles = 100_000
		}
		sr, err := softwatt.RunSampled("compress", softwatt.Options{Core: "mipsy"}, so)
		if err != nil {
			return err
		}
		r, err := s.one("compress", softwatt.Options{Core: "mipsy"})
		if err != nil {
			return err
		}
		sum := s.est.Summarize(r)
		exact := sum.CPUMemJ / sum.TimeSec
		fmt.Printf("compress on mipsy, %d windows x %d cycles (%.2f%% of the run in detail):\n",
			len(sr.Windows), sr.WindowCycles, 100*float64(sr.SampledCycles)/float64(sr.TotalCycles))
		fmt.Printf("  sampled  %.3f W +/- %s W (95%% CI)\n", sr.MeanPowerW, softwatt.FmtCI(sr.PowerCI95W))
		fmt.Printf("  exact    %.3f W (full detailed run)\n", exact)
		fmt.Printf("  error    %+.2f%%\n", 100*(sr.MeanPowerW-exact)/exact)
		fmt.Println("On stock-length runs the windows oversample the compute phases; on the")
		fmt.Println("long phase-repeating workloads sampling exists for, the CI covers the")
		fmt.Println("exact mean (TestSampledRunCoversExactMean).")

	default:
		return fmt.Errorf("unknown experiment id %q", id)
	}
	return nil
}

func kernelShare(r *softwatt.RunResult) float64 {
	var all uint64
	for m := trace.Mode(0); m < trace.NumModes; m++ {
		all += r.ModeTotals[m].Cycles
	}
	k := r.ModeTotals[trace.ModeKernel].Cycles + r.ModeTotals[trace.ModeSync].Cycles
	return 100 * float64(k) / float64(all)
}
