// Command swreport regenerates the paper's evaluation artifacts. Each
// experiment id selects one table or figure (see DESIGN.md §4); -exp all
// runs the whole set. Every id is checked first; then the cells of all
// requested experiments, each configuration once, run as one batch over
// a worker pool (-j) with per-cell progress on stderr, and the reports
// render in the requested order. Report output is unchanged by the worker
// count.
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
	// Every id is checked before any cell simulates.
	exps := make([]experiment, len(ids))
	for i, id := range ids {
		e, err := st.experiment(strings.TrimSpace(id))
		if err != nil {
			cli.Fail(fmt.Errorf("experiment %s: %v", id, err))
		}
		exps[i] = e
	}
	results, errs := st.runs(exps)
	for i, id := range ids {
		hdr(exps[i].title)
		err := errs[i]
		if err == nil {
			err = exps[i].render(results[i])
		}
		if err != nil {
			cli.Fail(fmt.Errorf("experiment %s: %v", id, err))
		}
		// Results no later report needs can be collected, which keeps
		// the sampled s1 run from peaking on top of the whole suite.
		results[i] = nil
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
	est     *softwatt.Estimator
	flags   *cli.Flags // the shared run flags (-core override, -j, s1's sampling)
	logsDir string     // -logs: run-log and sampled-result cache
}

// experiment is one table or figure: its title, the cells it needs, and
// how it renders from their results, given in cell order.
type experiment struct {
	title  string
	cells  []softwatt.RunSpec
	render func(runs []*softwatt.RunResult) error
}

// runs submits the cells of every experiment as one batch, each distinct
// configuration once, so a disk-policy cell and the conventional run it
// derives from (softwatt.RunBatch) are always in the same batch. Cells go
// through the run-log cache when -logs is set: saved logs load instead of
// simulating, misses simulate and save. A -core override rewrites every
// cell's CPU model first. The batch has the -j worker count and per-cell
// progress (rate, ETA, failures) on stderr. It returns each experiment's
// results in its cell order, or the error that fails the experiment.
func (s *state) runs(exps []experiment) ([][]*softwatt.RunResult, []error) {
	var batch []softwatt.RunSpec
	at := map[string]int{} // configuration digest -> batch index
	idx := make([][]int, len(exps))
	var err error
	for e := range exps {
		for _, sp := range exps[e].cells {
			if s.flags.Core != "" {
				sp.Options.Core = s.flags.Core
			}
			d, derr := softwatt.SpecDigest(sp)
			if derr != nil {
				err = derr
				continue
			}
			u, ok := at[d]
			if !ok {
				u = len(batch)
				at[d] = u
				batch = append(batch, sp)
			}
			idx[e] = append(idx[e], u)
		}
	}
	var res []*softwatt.RunResult
	if err == nil && len(batch) > 0 {
		fmt.Fprintf(os.Stderr, "running %d cells...\n", len(batch))
		b := s.flags.BatchOptions()
		b.Progress = obs.NewProgress(os.Stderr).Cell
		b.LogDir = s.logsDir
		res, err = softwatt.RunBatch(batch, b)
	}
	failed := map[int]error{} // batch index -> the cell's error
	if be, ok := err.(*softwatt.BatchError); ok {
		for _, je := range be.Jobs {
			failed[je.Index] = je.Err
		}
		err = nil
	}
	results := make([][]*softwatt.RunResult, len(exps))
	errs := make([]error, len(exps))
	for e, x := range exps {
		if len(x.cells) == 0 {
			continue
		}
		if err != nil {
			errs[e] = err
			continue
		}
		var cellErrs []*softwatt.CellError
		for k, u := range idx[e] {
			results[e] = append(results[e], res[u])
			if ferr, ok := failed[u]; ok {
				label := x.cells[k].Label
				if label == "" {
					label = x.cells[k].Benchmark
				}
				cellErrs = append(cellErrs, &softwatt.CellError{Index: k, Label: label, Err: ferr})
			}
		}
		if len(cellErrs) > 0 {
			errs[e] = &softwatt.BatchError{Jobs: cellErrs}
		}
	}
	return results, errs
}

// allBench builds the all-benchmark spec list for one option set.
func allBench(opt softwatt.Options) []softwatt.RunSpec {
	specs := make([]softwatt.RunSpec, len(softwatt.Benchmarks))
	for i, b := range softwatt.Benchmarks {
		specs[i] = softwatt.RunSpec{Benchmark: b, Options: opt}
	}
	return specs
}

func hdr(title string) {
	fmt.Printf("\n==== %s ====\n", title)
}

// text is an experiment that simulates nothing.
func text(title string, print func()) experiment {
	return over(title, nil, func([]*softwatt.RunResult) { print() })
}

// over is an experiment that renders from its cells' results and cannot
// fail once they are in.
func over(title string, cells []softwatt.RunSpec, print func(runs []*softwatt.RunResult)) experiment {
	return experiment{title: title, cells: cells, render: func(runs []*softwatt.RunResult) error {
		print(runs)
		return nil
	}}
}

// experiment returns the experiment an id names.
func (s *state) experiment(id string) (experiment, error) {
	mxs := allBench(softwatt.Options{Core: "mxs"})
	mipsy := allBench(softwatt.Options{Core: "mipsy"})
	switch id {
	case "v1":
		return text("V1: CPU power model validation", func() {
			fmt.Printf("Modelled maximum R10000-class CPU power: %.1f W\n", softwatt.ValidateMaxPower())
			fmt.Printf("Paper: SoftWatt reports 25.3 W against the 30 W datasheet maximum.\n")
		}), nil

	case "t1":
		return text("T1: system model (Table 1)", func() {
			cfg := machine.DefaultConfig()
			h := mem.DefaultHierConfig()
			fmt.Printf("Window 64, LSQ 32, 4-wide fetch/issue/commit, 2 INT + 2 FP units\n")
			fmt.Printf("BHT 1024, BTB 1024, RAS 32, unified TLB 64 entries\n")
			fmt.Printf("L1I %dKB/%dB/%d-way  L1D %dKB/%dB/%d-way  L2 %dMB/%dB/%d-way\n",
				h.L1I.Size>>10, h.L1I.LineSize, h.L1I.Assoc,
				h.L1D.Size>>10, h.L1D.LineSize, h.L1D.Assoc,
				h.L2.Size>>20, h.L2.LineSize, h.L2.Assoc)
			fmt.Printf("Memory %d MB, 0.35um, 3.3V, %d MHz\n", cfg.RAMBytes>>20, int(cfg.ClockHz/1e6))
		}), nil

	case "f2":
		return text("F2: MK3003MAN operating modes (Figure 2)", func() {
			fmt.Print("Mode      Power (W)\nSleep     0.15\nIdle      1.6\nStandby   0.35\nActive    3.2\nSeeking   4.1\nSpin up   4.2\n")
			fmt.Print("Transitions: IDLE->ACTIVE on seek; IDLE->STANDBY by spindown threshold;\n" +
				"STANDBY->ACTIVE via spinup (5 s, scaled); SLEEP via explicit command.\n")
		}), nil

	case "f3":
		return over("F3: jess memory-system profile on Mipsy (Figure 3)", []softwatt.RunSpec{
			{Benchmark: "jess", Options: softwatt.Options{Core: "mipsy"}, Label: "jess/mipsy"},
			{Benchmark: "jess", Options: softwatt.Options{Core: "mxs1"}, Label: "jess/mxs1"},
		}, func(runs []*softwatt.RunResult) {
			fmt.Print(s.est.RenderProfile(runs[0], "Memory subsystem / execution profile"))
			fmt.Print(s.est.RenderProfile(runs[1], "Single-issue MXS processor profile"))
		}), nil

	case "f4":
		return over("F4: jess processor profile on MXS (Figure 4)", mxs, func(runs []*softwatt.RunResult) {
			fmt.Print(s.est.RenderProfile(runs[1], "Processor profile"))
		}), nil

	case "f5":
		return over("F5: overall power budget, conventional disk (Figure 5)", mxs, func(runs []*softwatt.RunResult) {
			fmt.Print(s.est.RenderBudget(runs, "Overall Average Power with Conventional Disk"))
			fmt.Println("Paper: disk 34%, datapath 22%, clock 22%, memory 15%, L1I 6%.")
		}), nil

	case "f6":
		return over("F6: average power per mode (Figure 6)", mxs, func(runs []*softwatt.RunResult) {
			fmt.Print(s.est.RenderFig6(runs))
		}), nil

	case "f7":
		return over("F7: overall power budget, IDLE-capable disk (Figure 7)", allBench(softwatt.Options{Core: "mxs", DiskPolicy: "idle"}), func(runs []*softwatt.RunResult) {
			fmt.Print(s.est.RenderBudget(runs, "Overall Average Power with Low Power Disk"))
			fmt.Println("Paper: disk 23%, datapath 26%, clock 26%, memory 17%, L1I 8%.")
		}), nil

	case "f8":
		return over("F8: average power of kernel services (Figure 8)", mxs, func(runs []*softwatt.RunResult) {
			fmt.Print(s.est.RenderFig8(runs))
		}), nil

	case "t2":
		return over("T2: cycles vs energy per mode (Table 2)", mxs, func(runs []*softwatt.RunResult) {
			fmt.Print(s.est.RenderTable2(runs))
		}), nil

	case "t3":
		return over("T3: cache references per cycle (Table 3)", mxs, func(runs []*softwatt.RunResult) {
			fmt.Print(s.est.RenderTable3(runs))
		}), nil

	case "t4":
		return over("T4: kernel services (Table 4)", mxs, func(runs []*softwatt.RunResult) {
			fmt.Print(s.est.RenderTable4(runs))
		}), nil

	case "t5":
		return over("T5: per-invocation service energy variation (Table 5)", mxs, func(runs []*softwatt.RunResult) {
			fmt.Print(s.est.RenderTable5(runs))
		}), nil

	case "x1":
		return over("X1: kernel share, single-issue vs superscalar (§3.2)", append(mipsy, mxs...), func(runs []*softwatt.RunResult) {
			mipsyRuns, mxsRuns := runs[:len(mipsy)], runs[len(mipsy):]
			var inorder, ooo float64
			for _, r1 := range mipsyRuns {
				inorder += kernelShare(r1) / float64(len(mipsyRuns))
			}
			for _, r := range mxsRuns {
				ooo += kernelShare(r) / float64(len(mxsRuns))
			}
			fmt.Printf("Average kernel activity: single-issue %.2f%%, superscalar %.2f%%\n", inorder, ooo)
			fmt.Printf("Paper: 14.28%% -> 21.02%%\n")
		}), nil

	case "x2":
		return over("X2: memory-subsystem vs datapath power, single-issue (§3.2)", []softwatt.RunSpec{{Benchmark: "jess", Options: softwatt.Options{Core: "mipsy"}}}, func(runs []*softwatt.RunResult) {
			b := s.est.PowerBudget(runs)
			memSub := b.L1IW + b.L1DW + b.L2W + b.MemoryW
			fmt.Printf("jess on single-issue: memory subsystem %.2f W vs datapath %.2f W (ratio %.2f)\n",
				memSub, b.DatapathW, memSub/b.DatapathW)
			fmt.Printf("Paper: memory-subsystem average power is more than twice the datapath's.\n")
		}), nil

	case "f9":
		specs := softwatt.DiskSweepSpecs(softwatt.Benchmarks, softwatt.Options{Core: "mipsy"})
		return over("F9: disk power management sweep (Figure 9)", specs, func(runs []*softwatt.RunResult) {
			fmt.Print(softwatt.RenderFig9(softwatt.Fig9Rows(specs, runs)))
		}), nil

	case "a1":
		halts := []bool{false, true}
		var cells []softwatt.RunSpec
		for _, halt := range halts {
			cells = append(cells, softwatt.RunSpec{Benchmark: "jess", Options: softwatt.Options{Core: "mipsy", IdleHalt: halt}})
		}
		return over("A1 (extension): halting the idle loop (§5 proposal)", cells, func(runs []*softwatt.RunResult) {
			for i, r := range runs {
				mp := s.est.ModeAveragePower([]*softwatt.RunResult{r})
				sum := s.est.Summarize(r)
				fmt.Printf("idle-halt=%-5v idle power %.2f W, CPU+mem energy %.4f J\n",
					halts[i], mp[softwatt.ModeIdle].Total, sum.CPUMemJ)
			}
			fmt.Println("Paper §5: idle consumes >5% of system energy; halting the CPU instead of")
			fmt.Println("executing the idle process recovers it.")
		}), nil

	case "a2":
		return over("A2 (extension): trace-driven kernel energy estimation (§3.3/§5)", mipsy, func(runs []*softwatt.RunResult) {
			fmt.Printf("%-10s %18s %18s\n", "Benchmark", "all services err", "internal-only err")
			for _, te := range s.est.CrossValidateTraceEstimation(runs) {
				fmt.Printf("%-10s %17.1f%% %17.1f%%\n", te.Benchmark, te.ErrorPct, te.InternalErrorPct)
			}
			fmt.Println("Internal services estimate within the paper's ~10% margin from invocation")
			fmt.Println("counts alone; I/O syscalls need transfer-size-aware terms, as Table 5's")
			fmt.Println("deviation analysis anticipates.")
		}), nil

	case "s1":
		return experiment{
			title:  "S1 (extension): sampled simulation vs full detail (DESIGN.md §13)",
			cells:  []softwatt.RunSpec{{Benchmark: "compress", Options: softwatt.Options{Core: "mipsy"}}},
			render: s.renderS1,
		}, nil
	}
	return experiment{}, fmt.Errorf("unknown experiment id %q", id)
}

// renderS1 runs the sampled estimate of compress and sets it against the
// full detailed run, runs[0].
func (s *state) renderS1(runs []*softwatt.RunResult) error {
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
	sum := s.est.Summarize(runs[0])
	exact := sum.CPUMemJ / sum.TimeSec
	fmt.Printf("compress on mipsy, %d windows x %d cycles (%.2f%% of the run in detail):\n",
		len(sr.Windows), sr.WindowCycles, 100*float64(sr.SampledCycles)/float64(sr.TotalCycles))
	fmt.Printf("  sampled  %.3f W +/- %s W (95%% CI)\n", sr.MeanPowerW, softwatt.FmtCI(sr.PowerCI95W))
	fmt.Printf("  exact    %.3f W (full detailed run)\n", exact)
	fmt.Printf("  error    %+.2f%%\n", 100*(sr.MeanPowerW-exact)/exact)
	fmt.Println("On stock-length runs the windows oversample the compute phases; on the")
	fmt.Println("long phase-repeating workloads sampling exists for, the CI covers the")
	fmt.Println("exact mean (TestSampledRunCoversExactMean).")
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
