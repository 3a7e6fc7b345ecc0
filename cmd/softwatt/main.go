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
// log; -replay re-renders either kind of file. -eprof and -timeline apply
// to full detailed runs only, and are rejected with -sample or -ci.
//
// Usage:
//
//	softwatt [-core mipsy|mxs|mxs1] [-disk conventional|idle|standby2|standby4]
//	         [-j N] [-profile] [-services] [-o file]
//	         [-sample N] [-window W] [-ci T] [-maxwindows N]
//	         [-ffcache dir]
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
	"errors"
	"flag"
	"fmt"
	"os"

	"softwatt"
	"softwatt/internal/cli"
	"softwatt/internal/obs"
)

func main() {
	cl := cli.Register(flag.CommandLine, "mxs", "CPU model: mipsy, mxs, mxs1, or swift (functional fast-forward, no power numbers)")
	diskPol := flag.String("disk", "conventional", "disk policy: conventional, idle, standby2, standby4")
	profile := flag.Bool("profile", false, "print the execution/power time profile (paper Figs. 3/4)")
	services := flag.Bool("services", true, "print the kernel service table (paper Table 4)")
	outFile := flag.String("o", "", "save the complete run as a run log (single benchmark only)")
	replay := flag.Bool("replay", false, "arguments are saved run logs: report from them without simulating")
	maxWindows := flag.Int("maxwindows", 0, "window cap for adaptive sampling (0 = default 32)")
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
	cl.Start()
	defer cl.Stop()
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
				cli.Fail(err)
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
		cli.Usage(errors.New("softwatt: -o needs a single benchmark"))
	}
	if *eprofFile != "" && len(benches) > 1 {
		cli.Usage(errors.New("softwatt: -eprof needs a single benchmark"))
	}
	if err := cl.CheckSampled(); err != nil {
		cli.Usage(err)
	}
	opt := cl.Options()
	opt.DiskPolicy = *diskPol
	opt.EnergyProfile = *eprofFile != ""
	opt.TimelineCycles = *timeline

	if cl.Sampled() {
		// Sampled estimation replaces the detailed report; the sample
		// windows do not produce the service/profile data a run log holds,
		// so -o saves the sampled result itself (-replay re-renders it).
		so := cl.SampleOptions()
		so.Progress = obs.NewProgress(os.Stderr).Cell
		so.MaxWindows = *maxWindows
		for i, bench := range benches {
			res, err := softwatt.RunSampled(bench, opt, so)
			if err != nil {
				cli.Fail(err)
			}
			if i > 0 {
				fmt.Println()
			}
			fmt.Print(softwatt.RenderSampled(res))
			// The -o notice goes to stderr so that stdout stays
			// byte-identical between a live run and its -replay.
			if *outFile != "" {
				if err := softwatt.SaveSampledResultFile(*outFile, res); err != nil {
					cli.Fail(err)
				}
				fmt.Fprintf(os.Stderr, "wrote sampled result %s\n", *outFile)
			}
		}
		return
	}

	specs := make([]softwatt.RunSpec, len(benches))
	for i, bench := range benches {
		specs[i] = softwatt.RunSpec{Benchmark: bench, Options: opt}
	}
	batch := cl.BatchOptions()
	if len(benches) > 1 {
		batch.Progress = obs.NewProgress(os.Stderr).Cell
	}
	results, err := softwatt.RunBatch(specs, batch)
	if err != nil {
		cli.Fail(err)
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
			cli.Fail(err)
		}
		fmt.Fprintf(os.Stderr, "wrote run log %s\n", *outFile)
	}
	if *eprofFile != "" {
		if err := softwatt.WriteEnergyProfileFile(*eprofFile, results[0]); err != nil {
			cli.Fail(err)
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
