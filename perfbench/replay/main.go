// Command replay is the traced half of the softwatt benchmark. It runs one
// benchmark workload in this process with the program's own span tracer
// installed (internal/obs), so the facade's batch calls record their
// build, boot, simulate, estimate and save spans themselves. Only what has
// no span in the program is driven here and wrapped in spans: the sampled
// pipeline (fast-forward, checkpoint encode, reservoir store, restore,
// recycle and the detailed windows), the report rendering and the
// run-log lookups in front of each cached batch. The spans are folded
// into per-layer times, a CPU profile into package shares, and the exact
// simulated counts are read from the machines' telemetry counters and
// from the machines the replay drives itself. One JSON object of figures
// goes to stdout; the harness checks its exact counts against the pinned
// reference, which the workload's CLI runs are checked against too.
//
// Usage:
//
//	replay -workload paper-suite|sampled-cold|sampled-warm -dir scratch-dir
//
// sampled-warm expects -dir to hold the reservoir cache a sampled-cold
// replay over the same -dir filled.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"softwatt"
	"softwatt/internal/core"
	"softwatt/internal/machine"
	"softwatt/internal/obs"
)

// tracer carries what the program's spans do not: the exact counts of the
// machines the replay drives itself, and the run logs the facade saved.
type tracer struct {
	cycles    uint64
	insts     uint64
	skipped   uint64 // cycles elided by the next-event skip
	ckptBytes int
	ffBytes   int64             // reservoir bytes written or read
	saved     []*core.RunResult // cells a cached batch simulated and saved
}

// span records f as one span of the given layer on the direct-call track.
func span(layer string, f func()) {
	sp := obs.StartSpan(0, layer, layer)
	f()
	sp.End()
}

// advance runs one core call (Run or StepCycles) of a machine the replay
// drives as a span of the core's layer, and accounts the cycles,
// instructions and skipped cycles it simulated.
func (t *tracer) advance(m *machine.Machine, f func()) {
	kind := m.Config().Core.String()
	c0, i0, s0 := m.Cycle(), m.Committed, m.SkippedCycles()
	sp := obs.StartSpan(0, kind, "simulate")
	sp.Arg("core", kind)
	f()
	sp.Arg("cycles", fmt.Sprint(m.Cycle()-c0))
	sp.End()
	t.cycles += m.Cycle() - c0
	t.insts += m.Committed - i0
	t.skipped += m.SkippedCycles() - s0
}

// report renders one report as a core.report span.
func report(f func() string) { span("core.report", func() { f() }) }

// batch runs one RunBatchCached call at -j 1 inside a container span,
// with the machines' telemetry on so their exact counts reach the
// registry. Its simulated cells are kept so that trace.save_s can time
// their encoding.
func (t *tracer) batch(f func(softwatt.BatchOptions) ([]*core.RunResult, error)) ([]*core.RunResult, error) {
	b := softwatt.BatchOptions{Workers: 1, OnResult: func(_ int, _ string, r *core.RunResult) error {
		t.saved = append(t.saved, r)
		return nil
	}}
	obs.SetMetricsEnabled(true)
	defer obs.SetMetricsEnabled(false)
	sp := obs.StartSpan(0, "cached", "batch")
	defer sp.End()
	return f(b)
}

func main() {
	name := flag.String("workload", "", "workload to replay")
	dir := flag.String("dir", "", "scratch directory for run logs and reservoir files")
	flag.Parse()
	if err := run(*name, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func run(name, dir string) error {
	if dir == "" {
		return fmt.Errorf("-dir is required")
	}
	logs, ffcache := filepath.Join(dir, "logs"), filepath.Join(dir, "ffcache")
	var body func(*tracer) error
	switch name {
	case "paper-suite":
		body = func(t *tracer) error { return replaySuite(t, logs) }
	case "sampled-cold":
		body = func(t *tracer) error { return replaySampledAll(t, ffcache, false) }
	case "sampled-warm":
		// The cache must already hold every reservoir: the harness fills
		// it with a sampled-cold replay in a separate process, so this
		// process starts as cold as the CLI's warm run does.
		body = func(t *tracer) error { return replaySampledAll(t, ffcache, true) }
	default:
		return fmt.Errorf("unknown workload %q", name)
	}

	t := &tracer{}
	tr := obs.NewTracer()
	obs.SetTracer(tr)
	var prof bytes.Buffer
	runtime.GC()
	before := readGoMetrics()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	start := time.Now()
	err := body(t)
	wall := time.Since(start)
	pprof.StopCPUProfile()
	after := readGoMetrics()
	obs.SetTracer(nil)
	if err != nil {
		return err
	}

	m := fold(tr.Events(), wall)
	m["go.alloc_mb"] = (after.allocBytes - before.allocBytes) / 1e6
	m["go.gc_cycles"] = after.gcCycles - before.gcCycles

	// Exact counts: the machines the facade built published theirs to the
	// registry at the end of each Run; the replay's own are in t.
	sim := obs.Sim()
	skip := obs.Default().Counter("softwatt_mxs_skip_cycles_total", "", "")
	m["sim.cycles"] = float64(t.cycles + sim.Cycles.Value())
	m["sim.insts"] = float64(t.insts + sim.Insts.Value())
	m["mxs.skipped_cycles"] = float64(t.skipped + skip.Value())
	m["machine.checkpoint_mb"] = float64(t.ckptBytes) / 1e6
	m["ffstore.bytes"] = float64(t.ffBytes)
	m["ffstore.mb"] = float64(t.ffBytes) / 1e6
	logBytes, err := dirBytes(logs)
	if err != nil {
		return err
	}
	m["trace.log_bytes"] = float64(logBytes)
	m["trace.log_mb"] = float64(logBytes) / 1e6

	// trace.save_s is the run-log encoding inside runlog.write_s (the
	// facade saves a log as one call), timed by encoding the saved cells
	// again once the replay is over; it is not part of the traced wall.
	var enc time.Duration
	for _, r := range t.saved {
		var buf bytes.Buffer
		s := time.Now()
		if err := core.SaveResult(&buf, r); err != nil {
			return err
		}
		enc += time.Since(s)
	}
	m["trace.save_s"] = enc.Seconds()

	shares, samples, err := foldShares(prof.Bytes())
	if err != nil {
		return fmt.Errorf("folding the CPU profile: %w", err)
	}
	for k, v := range shares {
		m[k] = v
	}
	m["share.samples"] = float64(samples)
	return json.NewEncoder(os.Stdout).Encode(m)
}

type goMetrics struct{ allocBytes, gcCycles float64 }

// readGoMetrics samples cumulative heap allocation and GC cycle counts.
func readGoMetrics() goMetrics {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return goMetrics{float64(s[0].Value.Uint64()), float64(s[1].Value.Uint64())}
}

// dirBytes sums the sizes of the regular files in dir; a directory that
// was never made holds none.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
