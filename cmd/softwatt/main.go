// Command softwatt runs one or more benchmarks on the simulated machine and
// prints each one's power/energy characterization: the run summary, the
// mode breakdown, the kernel-service table, and (optionally) the
// execution/power time profile.
//
// With several benchmarks the independent simulations fan out over a worker
// pool (-j) with per-run progress on stderr; reports print in argument
// order regardless of parallelism.
//
// -o saves the complete run (identity, resolved config, totals, service
// statistics, disk energy, sample windows) as a run log; -replay
// re-renders the identical report from such a log with zero simulation.
//
// -sample N estimates power by sampled simulation instead of a full
// detailed run: a swift fast-forward pass measures the run length and the
// exact disk figures, then N detailed windows (each -window cycles,
// restored from fast-forward checkpoints) run in parallel and aggregate
// into a mean CPU power with a 95% confidence interval. -ci T makes the
// window count adaptive: windows run in waves until the CI half-width is
// at most T watts (capped by -maxwindows). -ffcache dir persists each
// fast-forward pass's checkpoint reservoir, so repeated sampled runs over
// the same workload and configuration skip the fast-forward entirely.
// With -sample, -o saves the sampled result (.swsmp) instead of a run
// log; -replay re-renders either kind of file. -ckpt makes full detailed
// runs resumable: periodic checkpoints are saved to the directory and an
// interrupted run continues from its last one.
//
// Usage:
//
//	softwatt [-core mipsy|mxs|mxs1] [-disk conventional|idle|standby2|standby4]
//	         [-j N] [-profile] [-services] [-o file]
//	         [-sample N] [-window W] [-ci T] [-maxwindows N]
//	         [-ffcache dir] [-ckpt dir]
//	         [-eprof out.pb.gz] [-timeline N]
//	         [-http addr] [-trace file.json] <benchmark ...>
//	softwatt -replay [-profile] [-services] <run.swlog|run.swsmp ...>
//
// -eprof attributes every joule to the guest code that spent it and writes
// a gzipped pprof profile (energy flame graphs via go tool pprof);
// -timeline N records per-component/per-mode power every N cycles into the
// run result (saved by -o, rendered by swreport -timeline) and, while the
// run is live, exports it as /metrics gauges and Perfetto counter tracks.
//
// -http serves live Prometheus-text metrics and pprof while the run is in
// flight; -trace writes a Chrome trace-event JSON of the run pipeline
// (open in Perfetto). See DESIGN.md §10.
//
// Benchmarks: compress jess db javac mtrt jack
package main

import (
	"flag"
	"fmt"
	"os"

	"softwatt"
	"softwatt/internal/obs"
	"softwatt/internal/prof"
)

func main() {
	pr := prof.Flags()
	ob := obs.Flags()
	coreKind := flag.String("core", "mxs", "CPU model: mipsy, mxs, mxs1, or swift (functional fast-forward, no power numbers)")
	diskPol := flag.String("disk", "conventional", "disk policy: conventional, idle, standby2, standby4")
	jobs := flag.Int("j", 0, "simulations to run in parallel (0 = one per CPU)")
	profile := flag.Bool("profile", false, "print the execution/power time profile (paper Figs. 3/4)")
	services := flag.Bool("services", true, "print the kernel service table (paper Table 4)")
	outFile := flag.String("o", "", "save the complete run as a run log (single benchmark only)")
	replay := flag.Bool("replay", false, "arguments are saved run logs: report from them without simulating")
	sample := flag.Int("sample", 0, "estimate power from N sampled detailed windows instead of a full run (0 = full detail)")
	window := flag.Uint64("window", 0, "detailed cycles per sample window (0 = default 200000)")
	ciTarget := flag.Float64("ci", 0, "adaptive sampling: add window waves until the 95% CI half-width is at most this many watts (0 = fixed window count)")
	maxWindows := flag.Int("maxwindows", 0, "window cap for adaptive sampling (0 = default 32)")
	ffCache := flag.String("ffcache", "", "fast-forward reservoir cache directory: sampled runs restore saved fast-forward passes and save new ones")
	ckptDir := flag.String("ckpt", "", "checkpoint directory: detailed runs save periodic checkpoints and resume from the last one")
	eprofFile := flag.String("eprof", "", "write the guest energy profile as a gzipped pprof profile.proto to this file (single benchmark only; view with go tool pprof)")
	timeline := flag.Uint64("timeline", 0, "record a power timeline point every N cycles into the run result (0 = off); export live when -http/-trace are active")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: softwatt [flags] <benchmark ...>\n"+
			"       softwatt -replay [flags] <run.swlog ...>\nbenchmarks: %v\n", softwatt.Benchmarks)
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := pr.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		prof.Exit(1)
	}
	defer pr.Stop()
	if err := ob.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		prof.Exit(1)
	}
	prof.OnExit(ob.Stop)
	defer ob.Stop()
	est := softwatt.NewEstimator()
	if *replay {
		for i, path := range flag.Args() {
			// A saved sampled result re-renders through the sampled report.
			if sres, serr := softwatt.LoadSampledResultFile(path); serr == nil {
				if i > 0 {
					fmt.Println()
				}
				fmt.Print(softwatt.RenderSampled(sres))
				continue
			}
			res, err := softwatt.LoadResultFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				prof.Exit(1)
			}
			if i > 0 {
				fmt.Println()
			}
			report(est, res, *services, *profile)
		}
		return
	}
	benches := flag.Args()
	if *outFile != "" && len(benches) > 1 {
		fmt.Fprintln(os.Stderr, "softwatt: -o needs a single benchmark")
		os.Exit(2)
	}
	if *eprofFile != "" && len(benches) > 1 {
		fmt.Fprintln(os.Stderr, "softwatt: -eprof needs a single benchmark")
		os.Exit(2)
	}
	opt := softwatt.Options{
		Core: *coreKind, DiskPolicy: *diskPol, CheckpointDir: *ckptDir,
		EnergyProfile:  *eprofFile != "",
		TimelineCycles: *timeline,
	}

	if *sample > 0 || *ciTarget > 0 {
		if *eprofFile != "" {
			fmt.Fprintln(os.Stderr, "softwatt: -eprof needs a full detailed run, not -sample")
			os.Exit(2)
		}
		// Sampled estimation replaces the detailed report; the sample
		// windows do not produce the service/profile data a run log holds,
		// so -o saves the sampled result itself (-replay re-renders it).
		so := softwatt.SampleOptions{
			Windows:      *sample,
			WindowCycles: *window,
			Workers:      *jobs,
			Progress:     obs.NewProgress(os.Stderr).Cell,
			TargetCIW:    *ciTarget,
			MaxWindows:   *maxWindows,
			FFCacheDir:   *ffCache,
		}
		for i, bench := range benches {
			res, err := softwatt.RunSampled(bench, opt, so)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				prof.Exit(1)
			}
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(softwatt.RenderSampled(res))
			// The -o notice goes to stderr so that stdout stays
			// byte-identical between a live run and its -replay.
			if *outFile != "" {
				if err := softwatt.SaveSampledResultFile(*outFile, res); err != nil {
					fmt.Fprintln(os.Stderr, err)
					prof.Exit(1)
				}
				fmt.Fprintf(os.Stderr, "wrote sampled result %s\n", *outFile)
			}
		}
		return
	}

	for _, bench := range benches {
		if path, ok := softwatt.ResumableCheckpoint(bench, opt); ok {
			fmt.Fprintf(os.Stderr, "softwatt: %s resumes from %s\n", bench, path)
		}
	}
	batch := softwatt.BatchOptions{Workers: *jobs}
	if len(benches) > 1 {
		batch.Progress = obs.NewProgress(os.Stderr).Cell
	}
	results, err := softwatt.RunMatrixBatch(benches, nil, opt, batch)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		prof.Exit(1)
	}

	for i, res := range results {
		if i > 0 {
			fmt.Println()
		}
		report(est, res, *services, *profile)
	}

	// The -o notice goes to stderr so that stdout stays byte-identical
	// between a live run and its -replay.
	if *outFile != "" {
		if err := softwatt.SaveResultFile(*outFile, results[0]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			prof.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote run log %s\n", *outFile)
	}
	if *eprofFile != "" {
		if err := softwatt.WriteEnergyProfileFile(*eprofFile, results[0]); err != nil {
			fmt.Fprintln(os.Stderr, err)
			prof.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote energy profile %s\n", *eprofFile)
	}
}

// report prints one run's characterization sections.
func report(est *softwatt.Estimator, res *softwatt.RunResult, services, profile bool) {
	fmt.Println(est.Summarize(res))
	fmt.Println()
	ms := est.ModeBreakdown(res)
	fmt.Printf("Mode breakdown (%% cycles / %% energy):\n")
	for m := softwatt.Mode(0); m < softwatt.NumModes; m++ {
		fmt.Printf("  %-7s %6.2f%% / %6.2f%%\n", m, ms.CyclesPct[m], ms.EnergyPct[m])
	}
	fmt.Printf("Peak window power: %.2f W\n", est.PeakPowerW(res))

	if services {
		fmt.Println()
		fmt.Print(est.RenderTable4([]*softwatt.RunResult{res}))
	}
	if profile {
		fmt.Println()
		fmt.Print(est.RenderProfile(res, "Execution and power profile"))
	}
}
