// Package cli is the flag set and process plumbing the three commands
// (softwatt, swsweep, swreport) share: the run flags -core, -j, -sample,
// -window, -ci and -ffcache; -cpuprofile and -memprofile; -http (live
// /metrics and pprof) and -trace (a Chrome trace-event file); and the
// exits. Start begins the profiling and telemetry the flags ask for and
// Stop finishes it: the trace and both profiles are written once, whether
// the command returns, fails through Fail or Usage, or is stopped by
// SIGINT/SIGTERM — an exit path never loses them. Typical use:
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
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"

	"softwatt"
	"softwatt/internal/obs"
)

// Flags holds the shared flags of one command, valid after parsing.
type Flags struct {
	Core    string  // -core: CPU model
	Jobs    int     // -j: simulations (or sample windows) in parallel
	Sample  int     // -sample: detailed windows per sampled estimate
	Window  uint64  // -window: detailed cycles per sample window
	CI      float64 // -ci: adaptive sampling's CI half-width target (W)
	FFCache string  // -ffcache: fast-forward reservoir cache directory

	cpuProfile, memProfile string // -cpuprofile, -memprofile
	httpAddr, tracePath    string // -http, -trace

	fs      *flag.FlagSet
	cpuFile *os.File
	tracer  *obs.Tracer
	stop    sync.Once
}

// started is the Flags whose Start ran, for Fail and Usage to stop.
var started *Flags

// Register declares the shared flags on fs. Only -core's default and usage
// differ between commands, so the caller passes them in.
func Register(fs *flag.FlagSet, coreDefault, coreUsage string) *Flags {
	f := &Flags{fs: fs}
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile to this file on exit")
	fs.StringVar(&f.httpAddr, "http", "", "serve live /metrics (Prometheus text) and /debug/pprof on this address, e.g. :8080")
	fs.StringVar(&f.tracePath, "trace", "", "write a Chrome trace-event JSON file of the run pipeline (open in Perfetto)")
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

// Start arms the SIGINT/SIGTERM handler, which runs Stop and exits with
// status 128+signal, then begins CPU profiling, serves telemetry and
// installs the tracer, as the flags ask. Call once, after parsing; a
// failure exits through Fail.
func (f *Flags) Start() {
	started = f
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		f.Stop()
		os.Exit(128 + int(s.(syscall.Signal)))
	}()
	if f.cpuProfile != "" {
		pf, err := os.Create(f.cpuProfile)
		if err == nil {
			if err = pprof.StartCPUProfile(pf); err != nil {
				pf.Close()
			}
		}
		if err != nil {
			Fail(fmt.Errorf("prof: %w", err))
		}
		f.cpuFile = pf
	}
	if f.httpAddr != "" {
		addr, err := obs.Serve(f.httpAddr)
		if err != nil {
			Fail(err)
		}
		fmt.Fprintf(os.Stderr, "obs: serving metrics on http://%s/metrics (pprof under /debug/pprof/)\n", addr)
	}
	if f.tracePath != "" {
		f.tracer = obs.NewTracer()
		obs.SetTracer(f.tracer)
	}
}

// Stop writes the trace, then stops the CPU profile and writes the heap
// profile, as the flags ask; defer it after Start. Only the first call
// does the work and later ones wait for it to finish, so the deferred
// call, Fail, Usage and the signal handler never write a file twice.
// Errors go to stderr, as an exit path cannot do better.
func (f *Flags) Stop() {
	f.stop.Do(func() {
		if f.tracer != nil {
			obs.SetTracer(nil)
			if writeFile("obs", f.tracePath, f.tracer.WriteJSON) {
				fmt.Fprintf(os.Stderr, "obs: wrote trace %s (%d events)\n", f.tracePath, len(f.tracer.Events()))
			}
		}
		if f.cpuFile != nil {
			pprof.StopCPUProfile()
			if err := f.cpuFile.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "prof: %v\n", err)
			}
		}
		if f.memProfile != "" {
			writeFile("prof", f.memProfile, func(w io.Writer) error {
				runtime.GC() // materialize up-to-date allocation stats
				return pprof.WriteHeapProfile(w)
			})
		}
	})
}

// writeFile creates path and fills it with write, reporting a failure on
// stderr under prefix.
func writeFile(prefix, path string, write func(io.Writer) error) bool {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prefix, err)
	}
	return err == nil
}

// Fail prints err on stderr and exits with status 1 after Stop.
func Fail(err error) { exit(err, 1) }

// Usage prints err on stderr and exits with status 2, the status of a
// command-line misuse, after Stop.
func Usage(err error) { exit(err, 2) }

func exit(err error, code int) {
	fmt.Fprintln(os.Stderr, err)
	if started != nil {
		started.Stop()
	}
	os.Exit(code)
}
