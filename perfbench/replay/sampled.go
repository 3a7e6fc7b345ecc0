package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"

	"softwatt"
	"softwatt/internal/core"
	"softwatt/internal/ffstore"
	"softwatt/internal/machine"
	"softwatt/internal/obs"
	"softwatt/internal/power"
	"softwatt/internal/runner"
	"softwatt/internal/stats"
	"softwatt/internal/trace"
	"softwatt/internal/workload"
)

// sampling is a resolved fixed-count sampled run: what SampleOptions
// resolves to for the given window count and length.
type sampling struct {
	windows        int
	window, warmup uint64
	capacity       int // reservoir entries, 2 x windows
}

func fixedSampling(windows int, window uint64) sampling {
	return sampling{windows: windows, window: window, warmup: window / 2, capacity: 2 * windows}
}

// sampledWorkload is the harness's `softwatt -sample 10 -window 200000`.
var sampledWorkload = fixedSampling(10, 200_000)

// replaySampledAll is `softwatt -sample 10 -window 200000 -core mipsy -j 1
// -ffcache dir` over every benchmark. With requireHit every reservoir must
// load from dir (the warm run).
func replaySampledAll(t *tracer, dir string, requireHit bool) error {
	for _, b := range softwatt.Benchmarks {
		res, err := t.sampled(b, softwatt.Options{Core: "mipsy"}, sampledWorkload, dir, requireHit)
		if err != nil {
			return err
		}
		report(func() string { return softwatt.RenderSampled(res) })
	}
	return nil
}

// ffDigest is the reservoir store key: the whole fast-forward machine
// configuration without its cycle budget, plus the reservoir capacity.
func ffDigest(bench string, ffCfg machine.Config, capacity int) string {
	ffCfg.MaxCycles = 0
	entries := append(core.ConfigEntries(ffCfg),
		trace.ConfigEntry{Key: "ff.reservoir_entries", Value: strconv.Itoa(capacity)})
	return core.ConfigDigest(bench, ffCfg.Core.String(), entries)
}

// sampled is one sampled run, RunSampled's pipeline driven step by step
// because it records no spans: the swift fast-forward pass or its stored
// reservoir, then the detailed windows on a one-worker pool.
func (t *tracer) sampled(bench string, opt softwatt.Options, sc sampling, ffDir string, requireHit bool) (*softwatt.SampledResult, error) {
	var w machine.Workload
	var err error
	span("workload.build", func() { w, err = workload.Build(bench) })
	if err != nil {
		return nil, err
	}
	cfg, err := opt.MachineConfig()
	if err != nil {
		return nil, err
	}
	ffOpt := opt
	ffOpt.Core = "swift"
	ffCfg, err := ffOpt.MachineConfig()
	if err != nil {
		return nil, err
	}
	digest := ffDigest(bench, ffCfg, sc.capacity)

	var ffres *ffstore.Reservoir
	if ffDir == "" {
		if ffres, err = t.fastForward(bench, w, ffCfg, sc.capacity, digest); err != nil {
			return nil, err
		}
	} else {
		st := ffstore.Store{Dir: ffDir}
		span("ffstore.load", func() { ffres, err = st.Load(bench, digest) })
		switch {
		case err == nil:
		case requireHit || !errors.Is(err, fs.ErrNotExist):
			return nil, fmt.Errorf("%s: reservoir cache: %w", bench, err)
		default:
			if ffres, err = t.fastForward(bench, w, ffCfg, sc.capacity, digest); err != nil {
				return nil, err
			}
			span("ffstore.save", func() { err = st.Save(ffres) })
			if err != nil {
				return nil, err
			}
		}
		info, err := os.Stat(st.Path(bench, digest))
		if err != nil {
			return nil, err
		}
		t.ffBytes += info.Size()
	}

	sdigest, err := softwatt.SampledDigest(bench, opt, softwatt.SampleOptions{Windows: sc.windows, WindowCycles: sc.window})
	if err != nil {
		return nil, err
	}
	res := &softwatt.SampledResult{
		Benchmark:    bench,
		Core:         cfg.Core.String(),
		ClockHz:      cfg.ClockHz,
		Digest:       sdigest,
		TotalCycles:  ffres.TotalCycles,
		Committed:    ffres.Committed,
		WindowCycles: sc.window,
		DiskEnergyJ:  ffres.DiskEnergyJ,
		DiskStats:    ffres.DiskStats,
		IdleCycles:   ffres.IdleCycles,
	}
	cps := ffres.Entries
	if len(cps) == 0 {
		return nil, fmt.Errorf("%s: run too short for sampling", bench)
	}
	// Skip tail entries that cannot fill warmup+window, keeping at least
	// the requested window count; then spread the windows evenly.
	eligible := cps
	if res.TotalCycles > sc.warmup+sc.window {
		bound := res.TotalCycles - (sc.warmup + sc.window)
		n := len(cps)
		for n > sc.windows && cps[n-1].Cycle > bound {
			n--
		}
		eligible = cps[:n]
	}
	sel := eligible
	if len(eligible) > sc.windows {
		sel = make([]ffstore.Entry, sc.windows)
		for i := range sel {
			if sc.windows == 1 {
				sel[i] = eligible[len(eligible)/2]
				continue
			}
			sel[i] = eligible[(i*(len(eligible)-1))/(sc.windows-1)]
		}
	}
	windows, err := t.windows(w, cfg, sc, sel)
	if err != nil {
		return nil, err
	}
	var pw stats.Welford
	for _, wm := range windows {
		res.Windows = append(res.Windows, wm)
		res.SampledCycles += wm.Cycles
		if wm.Cycles > 0 {
			pw.Add(wm.PowerW)
		}
	}
	res.MeanPowerW = pw.Mean()
	res.PowerCI95W = pw.CI95()
	sec := float64(res.TotalCycles) / cfg.ClockHz
	res.EnergyJ = res.MeanPowerW * sec
	res.EnergyCI95J = res.PowerCI95W * sec
	return res, nil
}

// fastForward is the swift pass to the halt, keeping a decimating
// reservoir of checkpoints at consecutive multiples of an interval that
// doubles whenever the reservoir fills.
func (t *tracer) fastForward(bench string, w machine.Workload, ffCfg machine.Config, capacity int, digest string) (*ffstore.Reservoir, error) {
	var ff *machine.Machine
	var err error
	span("machine.new", func() { ff, err = machine.New(ffCfg, w) })
	if err != nil {
		return nil, err
	}
	defer ff.Release()
	var entries []ffstore.Entry
	interval := uint64(1) << 16
	for !ff.Halted() {
		if ff.Cycle() >= ffCfg.MaxCycles {
			return nil, fmt.Errorf("%s fast-forward did not halt within %d cycles", bench, ffCfg.MaxCycles)
		}
		t.advance(ff, func() { ff.StepCycles(interval - ff.Cycle()%interval) })
		if ff.Halted() {
			break
		}
		var payload []byte
		span("machine.checkpoint", func() { payload = ff.Checkpoint() })
		t.ckptBytes += len(payload)
		entries = append(entries, ffstore.Entry{Cycle: ff.Cycle(), Payload: payload})
		if len(entries) == capacity {
			kept := entries[:0]
			for _, c := range entries {
				if c.Cycle%(interval*2) == 0 {
					kept = append(kept, c)
				}
			}
			entries = kept
			interval *= 2
		}
	}
	if ff.ExitCode() != 0 {
		return nil, fmt.Errorf("%s exited with code %d", bench, ff.ExitCode())
	}
	return &ffstore.Reservoir{
		Benchmark:   bench,
		Digest:      digest,
		TotalCycles: ff.Cycle(),
		Committed:   ff.Committed,
		DiskEnergyJ: ff.Disk().EnergyJ(ff.Cycle()),
		DiskStats:   ff.Disk().Stats(),
		IdleCycles:  ff.Collector().ModeTotals()[trace.ModeIdle].Cycles,
		Entries:     entries,
	}, nil
}

// windows runs the detailed windows on a one-worker pool whose worker
// builds one machine and recycles it for every later window.
func (t *tracer) windows(w machine.Workload, cfg machine.Config, sc sampling, sel []ffstore.Entry) ([]softwatt.WindowMeasure, error) {
	model := power.Default()
	pool := runner.NewPool(1)
	defer pool.Close()
	var m *machine.Machine
	defer func() {
		if m != nil {
			m.Release()
		}
	}()
	jobs := make([]runner.Job[softwatt.WindowMeasure], len(sel))
	for i, e := range sel {
		jobs[i] = runner.Job[softwatt.WindowMeasure]{Label: strconv.Itoa(i), Run: func() (softwatt.WindowMeasure, error) {
			var err error
			if m == nil {
				span("machine.new", func() { m, err = machine.New(cfg, w) })
				if err != nil {
					return softwatt.WindowMeasure{}, err
				}
			} else {
				span("machine.recycle", m.Recycle)
			}
			span("machine.restore", func() { err = m.RestoreState(e.Payload) })
			if err != nil {
				m.Release()
				m = nil
				return softwatt.WindowMeasure{}, err
			}
			t.advance(m, func() { m.StepCycles(sc.warmup) })
			start := m.Cycle()
			before := m.Collector().ModeTotals()
			t.advance(m, func() { m.StepCycles(sc.window) })
			after := m.Collector().ModeTotals()
			wm := softwatt.WindowMeasure{Index: i, StartCycle: start, Cycles: m.Cycle() - start}
			for k := range after {
				var d trace.Bucket
				for u := range d.Units {
					d.Units[u] = after[k].Units[u] - before[k].Units[u]
				}
				d.Cycles = after[k].Cycles - before[k].Cycles
				d.Insts = after[k].Insts - before[k].Insts
				wm.EnergyJ += model.BucketEnergy(&d).Total
			}
			if wm.Cycles > 0 {
				wm.PowerW = wm.EnergyJ / (float64(wm.Cycles) / cfg.ClockHz)
			}
			return wm, nil
		}}
	}
	sp := obs.StartSpan(0, "windows", "batch")
	defer sp.End()
	return runner.MapOn(pool, jobs, runner.Options{})
}
