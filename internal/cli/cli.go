// Package cli is the flag set and process plumbing the three commands
// (softwatt, swsweep, swreport) share: the run flags -core, -j, -sample,
// -window, -ci and -ffcache, the -cpuprofile/-memprofile and
// -http/-trace flags with their start and stop, and the error exit that
// flushes profiles and traces first. Typical use:
//
//	cl := cli.Register(flag.CommandLine, "mipsy", "CPU model: ...")
//	flag.Parse()
//	cl.Start()
//	defer cl.Stop()
//	if err := work(cl.Options(), cl.BatchOptions()); err != nil {
//		cli.Fail(err)
//	}
package cli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"softwatt"
	"softwatt/internal/obs"
	"softwatt/internal/prof"
)

// Flags holds the shared flags of one command, valid after parsing.
type Flags struct {
	Core    string  // -core: CPU model
	Jobs    int     // -j: simulations (or sample windows) in parallel
	Sample  int     // -sample: detailed windows per sampled estimate
	Window  uint64  // -window: detailed cycles per sample window
	CI      float64 // -ci: adaptive sampling's CI half-width target (W)
	FFCache string  // -ffcache: fast-forward reservoir cache directory

	fs *flag.FlagSet
	pr *prof.Profiler
	ob *obs.Setup
}

// Register declares the shared flags on fs. Only -core's default and usage
// differ between commands, so the caller passes them in.
func Register(fs *flag.FlagSet, coreDefault, coreUsage string) *Flags {
	f := &Flags{fs: fs, pr: prof.Flags(fs), ob: obs.Flags(fs)}
	fs.StringVar(&f.Core, "core", coreDefault, coreUsage)
	fs.IntVar(&f.Jobs, "j", 0, "simulations to run in parallel (0 = one per CPU)")
	fs.IntVar(&f.Sample, "sample", 0, "estimate power from N sampled detailed windows instead of a full detailed run (0 = full detail; swreport -exp s1 defaults to 4)")
	fs.Uint64Var(&f.Window, "window", 0, "detailed cycles per sample window (0 = default 200000; swreport -exp s1 defaults to 100000)")
	fs.Float64Var(&f.CI, "ci", 0, "adaptive sampling: add window waves until the 95% CI half-width is at most this many watts (0 = fixed window count)")
	fs.StringVar(&f.FFCache, "ffcache", "", "fast-forward reservoir cache directory: sampled runs restore saved fast-forward passes and save new ones")
	return f
}

// Sampled reports whether -sample or -ci asks for sampled estimates.
func (f *Flags) Sampled() bool { return f.Sample > 0 || f.CI > 0 }

// fullOnly are the flags only a full detailed run honours: a sampled run
// has no run result to carry a timeline and no full-run energy to profile.
var fullOnly = []string{"timeline", "eprof"}

// CheckSampled rejects -sample or -ci combined with a full-run-only flag
// the command declares (-timeline, -eprof) given a non-default
// value, naming every such flag in one message.
func (f *Flags) CheckSampled() error {
	if !f.Sampled() {
		return nil
	}
	var given []string
	for _, name := range fullOnly {
		if fl := f.fs.Lookup(name); fl != nil && fl.Value.String() != fl.DefValue {
			given = append(given, "-"+name)
		}
	}
	if len(given) == 0 {
		return nil
	}
	verb := "needs"
	if len(given) > 1 {
		verb = "need"
	}
	return fmt.Errorf("%s: %s %s a full detailed run, not -sample/-ci",
		filepath.Base(f.fs.Name()), strings.Join(given, ", "), verb)
}

// Options returns the run options the shared flags select.
func (f *Flags) Options() softwatt.Options {
	return softwatt.Options{Core: f.Core}
}

// SampleOptions returns the sampled-simulation options the shared flags
// select: -j bounds the detailed windows in flight.
func (f *Flags) SampleOptions() softwatt.SampleOptions {
	return softwatt.SampleOptions{
		Windows:      f.Sample,
		WindowCycles: f.Window,
		Workers:      f.Jobs,
		TargetCIW:    f.CI,
		FFCacheDir:   f.FFCache,
	}
}

// BatchOptions returns the batch options the shared flags select.
func (f *Flags) BatchOptions() softwatt.BatchOptions {
	return softwatt.BatchOptions{Workers: f.Jobs}
}

// Start begins CPU profiling and observability as the flags ask and
// registers their flushing as exit hooks, so Fail and SIGINT/SIGTERM
// still write profiles and traces. Call after parsing; a failure exits.
func (f *Flags) Start() {
	if err := f.pr.Start(); err != nil {
		Fail(err)
	}
	if err := f.ob.Start(); err != nil {
		Fail(err)
	}
	prof.OnExit(f.ob.Stop)
}

// Stop writes the trace and the profiles; defer it after Start. It is
// idempotent, so it is safe next to the exit hooks.
func (f *Flags) Stop() {
	f.ob.Stop()
	f.pr.Stop()
}

// Fail prints err on stderr and exits with status 1 after the exit hooks.
func Fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	prof.Exit(1)
}

// Usage prints err on stderr and exits with status 2, the status of a
// command-line misuse, after the exit hooks.
func Usage(err error) {
	fmt.Fprintln(os.Stderr, err)
	prof.Exit(2)
}
