// Package prof provides the shared -cpuprofile/-memprofile plumbing for
// the CLIs, so every binary exposes the same profiling interface without
// per-main duplication. Typical use:
//
//	p := prof.Flags(flag.CommandLine)
//	flag.Parse()
//	if err := p.Start(); err != nil { ... }
//	defer p.Stop()
//
// Start registers Stop as an exit hook and installs the signal handler,
// so profiles are written on every exit path — normal return, prof.Exit
// on errors, and SIGINT/SIGTERM — never lost to a bare os.Exit.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiler holds the profile destinations parsed from the command line.
type Profiler struct {
	cpuPath *string
	memPath *string
	cpuFile *os.File
	stopped bool
}

// Flags registers -cpuprofile and -memprofile on fs. Call before parsing.
func Flags(fs *flag.FlagSet) *Profiler {
	return &Profiler{
		cpuPath: fs.String("cpuprofile", "", "write a pprof CPU profile to this file"),
		memPath: fs.String("memprofile", "", "write a pprof heap profile to this file on exit"),
	}
}

// Start begins CPU profiling if requested, registers Stop as an exit
// hook, and arms the signal handler. Call after flag.Parse.
func (p *Profiler) Start() error {
	OnExit(p.Stop)
	HandleSignals()
	if *p.cpuPath == "" {
		return nil
	}
	f, err := os.Create(*p.cpuPath)
	if err != nil {
		return fmt.Errorf("prof: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("prof: %w", err)
	}
	p.cpuFile = f
	return nil
}

// Stop ends CPU profiling and writes the heap profile, as requested.
// Idempotent: it runs once whether reached by defer, prof.Exit, or a
// signal.
func (p *Profiler) Stop() {
	if p.stopped {
		return
	}
	p.stopped = true
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		p.cpuFile.Close()
		p.cpuFile = nil
	}
	if *p.memPath != "" {
		f, err := os.Create(*p.memPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "prof: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize up-to-date allocation stats
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "prof: %v\n", err)
		}
	}
}
