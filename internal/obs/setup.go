package obs

// Shared -http / -trace plumbing for the CLIs, mirroring internal/prof's
// Flags/Start/Stop shape so every binary exposes the same observability
// interface without per-main duplication.

import (
	"flag"
	"fmt"
	"os"
)

// Setup holds the observability destinations parsed from the command line.
type Setup struct {
	httpAddr  *string
	tracePath *string
	tracer    *Tracer
	stopped   bool
}

// Flags registers -http and -trace on fs. Call before parsing.
func Flags(fs *flag.FlagSet) *Setup {
	return &Setup{
		httpAddr: fs.String("http", "",
			"serve live /metrics (Prometheus text) and /debug/pprof on this address, e.g. :8080"),
		tracePath: fs.String("trace", "",
			"write a Chrome trace-event JSON file of the run pipeline (open in Perfetto)"),
	}
}

// Start serves the telemetry endpoint and installs the tracer, as
// requested. Call after flag.Parse.
func (s *Setup) Start() error {
	if *s.httpAddr != "" {
		addr, err := Serve(*s.httpAddr)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "obs: serving metrics on http://%s/metrics (pprof under /debug/pprof/)\n", addr)
	}
	if *s.tracePath != "" {
		s.tracer = NewTracer()
		SetTracer(s.tracer)
	}
	return nil
}

// Stop writes the trace file if tracing was requested. Idempotent, so it is
// safe both as a defer and as a prof.OnExit hook; errors are reported to
// stderr because exit paths cannot do better.
func (s *Setup) Stop() {
	if s.stopped || s.tracer == nil {
		return
	}
	s.stopped = true
	SetTracer(nil)
	f, err := os.Create(*s.tracePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obs: %v\n", err)
		return
	}
	if err := s.tracer.WriteJSON(f); err != nil {
		fmt.Fprintf(os.Stderr, "obs: %v\n", err)
		f.Close()
		return
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "obs: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "obs: wrote trace %s (%d events)\n", *s.tracePath, len(s.tracer.Events()))
}
