// Command swsweep reproduces the paper's Figure 9 disk power-management
// study: it runs each benchmark under the four §4 disk configurations
// (conventional; IDLE after request; IDLE+STANDBY with 2 s and 4 s scaled
// spindown thresholds) and prints the per-configuration disk energy and
// workload idle-cycle counts.
//
// The grid cells are independent simulations, so the sweep fans out over a
// worker pool (-j). Report rows stay in input order: -j 8 prints output
// byte-identical to -j 1. Benchmark names are validated before the first
// cell simulates, and a failing cell does not abort the rest of the sweep.
//
// With -logs, each cell's complete run log is written to the directory as
// the parallel engine completes it, and cells whose log is already present
// (matched by configuration digest) load instead of re-simulating — a
// warm sweep renders the identical report with zero simulations.
//
// -http serves live metrics (throughput, worker occupancy, disk-state
// counters) while the sweep runs; -trace records the pipeline for
// Perfetto.
//
// -sample N replaces each cell's full detailed run with a sampled
// estimate: the disk columns come exactly from a swift fast-forward pass
// (the disk timeline is functional), and CPU power is measured over N
// detailed windows of -window cycles with a 95% confidence interval. -ci T
// makes the window count adaptive (waves until the CI half-width reaches
// T watts). Under -sample, -logs caches each cell's sampled result (a warm
// sweep renders with zero simulation) and -ffcache persists each cell's
// fast-forward reservoir, so re-sweeping the grid with different sampling
// parameters skips the ~10⁸-cycle fast-forward per cell. -eprof and
// -timeline apply to full detailed cells only, and are rejected with
// -sample or -ci.
//
// Usage:
//
//	swsweep [-j N] [-q] [-logs dir] [-sample N] [-window W]
//	        [-ci T] [-ffcache dir]
//	        [-http addr] [-trace file.json] [benchmark ...]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"softwatt"
	"softwatt/internal/cli"
	"softwatt/internal/obs"
)

func main() {
	cl := cli.Register(flag.CommandLine, "mipsy", "CPU model driving the sweep: mipsy, mxs, mxs1, or swift (fast functional pass: disk timeline without power attribution)")
	quiet := flag.Bool("q", false, "suppress per-cell progress on stderr")
	logsDir := flag.String("logs", "", "run-log cache directory: load saved cells, save simulated ones")
	eprofDir := flag.String("eprof", "", "write each cell's guest energy profile (gzipped pprof) into this directory as <bench>_<policy>.pb.gz")
	timeline := flag.Uint64("timeline", 0, "record a power timeline point every N cycles into each cell's run result (0 = off)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: swsweep [-j N] [-q] [-logs dir] [benchmark ...]\nbenchmarks: %v\n", softwatt.Benchmarks)
		flag.PrintDefaults()
	}
	flag.Parse()
	cl.Start()
	defer cl.Stop()

	benches := flag.Args()
	if len(benches) == 0 {
		benches = softwatt.Benchmarks
	}
	if err := cl.CheckSampled(); err != nil {
		cli.Usage(err)
	}
	opt := cl.Options()
	opt.EnergyProfile = *eprofDir != ""
	opt.TimelineCycles = *timeline
	specs := softwatt.DiskSweepSpecs(benches, opt)

	if cl.Sampled() {
		so := cl.SampleOptions()
		so.LogDir = *logsDir
		if err := sampledSweep(specs, so, *quiet); err != nil {
			cli.Fail(err)
		}
		return
	}

	if *eprofDir != "" {
		if err := os.MkdirAll(*eprofDir, 0o755); err != nil {
			cli.Fail(err)
		}
	}
	b := cl.BatchOptions()
	b.LogDir = *logsDir
	if !*quiet {
		b.Progress = obs.NewProgress(os.Stderr).Cell
	}
	results, err := softwatt.RunBatch(specs, b)
	if err != nil {
		cli.Fail(err)
	}
	fmt.Print(softwatt.RenderFig9(softwatt.Fig9Rows(specs, results)))
	for i, r := range results {
		if *timeline > 0 && r != nil && len(r.Timeline) == 0 { // the interval is not in the digest
			fmt.Fprintf(os.Stderr, "swsweep: %s: cached log has no power timeline\n", specs[i].Label)
		}
	}
	if *eprofDir != "" {
		for i, r := range results {
			if r == nil {
				continue
			}
			if len(r.EProf) == 0 {
				// A warm cell loaded from a log recorded without -eprof has
				// no profile to write; say so instead of silently skipping.
				fmt.Fprintf(os.Stderr, "swsweep: %s: cached log has no energy profile, skipping\n", specs[i].Label)
				continue
			}
			path := filepath.Join(*eprofDir,
				specs[i].Benchmark+"_"+specs[i].Options.DiskPolicy+".pb.gz")
			if err := softwatt.WriteEnergyProfileFile(path, r); err != nil {
				cli.Fail(err)
			}
		}
		fmt.Fprintf(os.Stderr, "wrote energy profiles to %s\n", *eprofDir)
	}
}

// sampledSweep reproduces the Figure 9 grid by sampled simulation. Each
// cell's disk energy, idle cycles, and spin transitions come exactly from
// its swift fast-forward pass; CPU power is a sampled estimate, reported
// with its confidence interval in a second table. Cells run one after
// another — the parallelism is inside each cell, across its detailed
// windows. With so.LogDir, each cell's sampled result is cached (saved as
// it completes, loaded on a warm sweep instead of simulating); with
// so.FFCacheDir, the per-cell fast-forward reservoirs persist too.
func sampledSweep(specs []softwatt.RunSpec, so softwatt.SampleOptions, quiet bool) error {
	if !quiet {
		so.Progress = obs.NewProgress(os.Stderr).Cell
	}
	sampled := make([]*softwatt.SampledResult, len(specs))
	for i, sp := range specs {
		if !quiet {
			fmt.Fprintf(os.Stderr, "sampling %s...\n", sp.Label)
		}
		r, err := softwatt.RunSampled(sp.Benchmark, sp.Options, so)
		if err != nil {
			return fmt.Errorf("%s: %w", sp.Label, err)
		}
		sampled[i] = r
	}
	fmt.Print(softwatt.RenderFig9(softwatt.Fig9Rows(specs, sampled)))
	fmt.Println("\nSampled CPU power:")
	for i, r := range sampled {
		fmt.Printf("  %-10s %-12s %8.3f W +/- %s W (95%% CI, %d windows)\n",
			r.Benchmark, specs[i].Options.DiskPolicy, r.MeanPowerW, softwatt.FmtCI(r.PowerCI95W), len(r.Windows))
	}
	return nil
}
