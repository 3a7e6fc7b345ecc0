package softwatt

// SMARTS-style sampled simulation (DESIGN.md §13–14). A full detailed run
// spends almost all its wall-clock simulating cycles whose power looks like
// their neighbours'. Sampling replaces it with two phases:
//
//  1. a single swift fast-forward pass to the end. It measures the run's
//     length and the disk's exact activity (functional behaviour — and
//     therefore every disk request — is identical on every core), and it
//     keeps a decimating reservoir of machine checkpoints: one every
//     `interval` cycles, and whenever the reservoir fills, every other
//     entry is dropped and the interval doubles. The run's length need not
//     be known in advance, yet the pass ends with N..2N evenly spaced
//     checkpoints in constant memory — and the fast-forward happens once,
//     not once to measure and again to checkpoint. With SampleOptions.
//     FFCacheDir set, the pass's complete outcome persists in an
//     internal/ffstore reservoir store keyed by the FF configuration
//     digest, and later runs over the same key skip the pass entirely.
//  2. N detailed windows, fanned out across the parallel job engine: each
//     restores a checkpoint into a detailed-core machine, simulates W
//     cycles, and measures the energy of exactly that window. Each worker
//     builds one machine and recycles it (Machine.Recycle + RestoreState)
//     across all the windows it runs, paying one construction, not N.
//
// Window powers aggregate through Welford into a mean and a 95% confidence
// interval; total CPU energy extrapolates as mean power x run length. A
// restored window starts with a cold pipeline, cold predictors, and cold
// caches (swift models none of them), so each window first simulates a
// detailed warmup stretch before measurement begins — SMARTS's detailed
// warming, which removes most of the cold-start bias; what remains shows up
// honestly in the spread of window powers, i.e. in the CI.
//
// With TargetCIW set, the window count is adaptive: windows run in waves
// (doubling the total each wave, evenly spread over the reservoir entries
// not yet measured) until the CI half-width reaches the target or
// MaxWindows is hit — low-variance workloads converge in a wave or two,
// and with a warm FF cache each extra wave costs only its new windows.

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"softwatt/internal/core"
	"softwatt/internal/disk"
	"softwatt/internal/ffstore"
	"softwatt/internal/machine"
	"softwatt/internal/power"
	"softwatt/internal/runner"
	"softwatt/internal/stats"
	"softwatt/internal/store"
	"softwatt/internal/trace"
	"softwatt/internal/workload"
)

// SampleOptions configure one sampled simulation.
type SampleOptions struct {
	// Windows is the number of detailed measurement windows (default 10).
	// With TargetCIW set it is the first wave's size instead.
	Windows int
	// WindowCycles is the detailed-simulation length of each window
	// (default 200000 cycles — ten statistics windows). Each window is
	// preceded by WindowCycles/2 cycles of detailed warmup, which
	// repopulate the caches and predictors the fast-forward checkpoint
	// cannot carry (swift models neither).
	WindowCycles uint64
	// Workers bounds how many detailed windows simulate concurrently;
	// zero or negative uses GOMAXPROCS.
	Workers int
	// Progress, when non-nil, is called serially as each detailed window
	// finishes, with the window's label (e.g. "compress[3]"). Under
	// adaptive sampling the done/total counts restart per wave.
	Progress func(done, total int, label string, err error)

	// TargetCIW, when positive, makes the window count adaptive: waves of
	// detailed windows run until the 95% CI half-width of the mean power
	// is at most TargetCIW watts (or MaxWindows windows have run, or the
	// reservoir has no unmeasured checkpoints left).
	TargetCIW float64
	// MaxWindows caps adaptive sampling (default 32); ignored unless
	// TargetCIW is set.
	MaxWindows int
	// ReservoirEntries overrides the fast-forward checkpoint reservoir's
	// capacity (default: 2·Windows, or 2·MaxWindows when adaptive). The
	// reservoir's content is a pure function of the FF configuration and
	// this capacity, so it participates in the FF cache key.
	ReservoirEntries int
	// FFCacheDir, when non-empty, is a persistent fast-forward reservoir
	// store (internal/ffstore): the pass's outcome is saved there keyed by
	// the FF configuration digest, and a later run over the same key
	// restores it instead of re-simulating the fast-forward.
	FFCacheDir string
	// LogDir, when non-empty, is a directory of saved sampled results
	// (DESIGN.md §14): a run whose result is present (matched by sampled
	// digest) loads instead of simulating anything at all — no
	// fast-forward, no windows — and a miss samples and saves. A file that
	// fails to decode or records another digest is corrupt under the
	// store's policy, and is re-sampled over. In either directory, a file
	// that cannot be read at all fails the run before it simulates.
	LogDir string
}

// resolve fills the option defaults and returns the effective reservoir
// capacity, so the digest a cache key uses and the run itself agree.
func (so SampleOptions) resolve() (SampleOptions, int) {
	if so.Windows <= 0 {
		so.Windows = 10
	}
	if so.WindowCycles == 0 {
		so.WindowCycles = 200_000
	}
	if so.MaxWindows <= 0 {
		so.MaxWindows = 32
	}
	if so.MaxWindows < so.Windows {
		so.MaxWindows = so.Windows
	}
	capacity := 2 * so.Windows
	if so.TargetCIW > 0 {
		capacity = 2 * so.MaxWindows
	}
	if so.ReservoirEntries > 0 {
		capacity = so.ReservoirEntries
	}
	if capacity < 2 {
		capacity = 2
	}
	return so, capacity
}

// WindowMeasure is one detailed measurement window of a sampled run.
type WindowMeasure struct {
	Index      int
	StartCycle uint64 // fast-forward-timeline cycle of the checkpoint
	Cycles     uint64 // detailed cycles simulated (W, less if the run halted)
	EnergyJ    float64
	PowerW     float64
}

// SampledResult is the outcome of a sampled simulation: an estimate of the
// workload's CPU power with a confidence interval, plus the exact
// functional and disk figures from the fast-forward pass.
type SampledResult struct {
	Benchmark string
	Core      string // detailed core the windows ran on
	ClockHz   float64
	// Digest keys the result for the sampled-result cache: the detailed
	// configuration plus every sampling parameter that shapes the estimate.
	Digest string

	TotalCycles  uint64 // full run length on the fast-forward timeline
	Committed    uint64 // instructions committed over the full run
	WindowCycles uint64 // requested detailed cycles per window
	Windows      []WindowMeasure

	SampledCycles uint64  // detailed cycles actually simulated
	MeanPowerW    float64 // mean CPU power across windows
	PowerCI95W    float64 // 95% confidence half-width of the mean
	EnergyJ       float64 // mean power x run length
	EnergyCI95J   float64

	// The disk timeline and idle-loop occupancy are functional, so the
	// fast-forward pass measures them exactly — no sampling error. They are
	// what a Fig. 9 row needs, which is how swsweep -sample reproduces the
	// disk sweep without a single full detailed run.
	DiskEnergyJ float64
	DiskStats   disk.Stats
	IdleCycles  uint64
}

// subBucket returns a-b component-wise.
func subBucket(a, b *trace.Bucket) trace.Bucket {
	var out trace.Bucket
	for i := range out.Units {
		out.Units[i] = a.Units[i] - b.Units[i]
	}
	out.Cycles = a.Cycles - b.Cycles
	out.Insts = a.Insts - b.Insts
	return out
}

// cpuEnergyDelta is the modelled CPU energy between two mode-total
// snapshots of one machine.
func cpuEnergyDelta(model *power.Model, before, after *[trace.NumModes]trace.Bucket) float64 {
	var e float64
	for m := range after {
		d := subBucket(&after[m], &before[m])
		e += model.BucketEnergy(&d).Total
	}
	return e
}

// ffConfigDigest is the fast-forward cache key: the FF (swift) machine
// configuration — all of it, because e.g. the disk policy shifts spinup
// timing and therefore checkpoint contents — plus the reservoir capacity,
// which shapes the entry set. MaxCycles is excluded: a reservoir is only
// saved from a pass that halted, and its entries do not depend on the
// budget, so it is valid under any cycle budget.
func ffConfigDigest(benchmark string, ffCfg machine.Config, capacity int) string {
	ffCfg.MaxCycles = 0
	entries := core.ConfigEntries(ffCfg)
	entries = append(entries, trace.ConfigEntry{Key: "ff.reservoir_entries", Value: strconv.Itoa(capacity)})
	return core.ConfigDigest(benchmark, ffCfg.Core.String(), entries)
}

// fastForward is phase 1: one swift pass to the end of the workload,
// keeping the decimating checkpoint reservoir. Entries always sit at
// consecutive multiples of the current interval; decimation fires when the
// reservoir reaches capacity, and the kept (even-multiple) entries are
// consecutive multiples of the doubled interval, so the invariant survives.
func fastForward(benchmark string, w machine.Workload, ffCfg machine.Config, capacity int, digest string) (*ffstore.Reservoir, error) {
	ff, err := machine.New(ffCfg, w)
	if err != nil {
		return nil, err
	}
	defer ff.Release()
	var entries []ffstore.Entry
	interval := uint64(1) << 16
	for !ff.Halted() {
		if ff.Cycle() >= ffCfg.MaxCycles {
			return nil, fmt.Errorf("softwatt: %s fast-forward did not halt within %d cycles (console: %q)",
				benchmark, ffCfg.MaxCycles, ff.Console())
		}
		ff.StepCycles(interval - ff.Cycle()%interval)
		if ff.Halted() {
			break
		}
		entries = append(entries, ffstore.Entry{Cycle: ff.Cycle(), Payload: ff.Checkpoint()})
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
		return nil, fmt.Errorf("softwatt: %s exited with code %d (console: %q)",
			benchmark, ff.ExitCode(), ff.Console())
	}
	res := &ffstore.Reservoir{
		Benchmark:   benchmark,
		Digest:      digest,
		TotalCycles: ff.Cycle(),
		Committed:   ff.Committed,
		DiskEnergyJ: ff.Disk().EnergyJ(ff.Cycle()),
		DiskStats:   ff.Disk().Stats(),
		IdleCycles:  ff.Collector().ModeTotals()[trace.ModeIdle].Cycles,
		Entries:     entries,
	}
	return res, nil
}

// loadOrFastForward answers phase 1 from the reservoir store when a cache
// directory is configured and holds the key, fast-forwarding (and saving)
// otherwise; a corrupt reservoir is rebuilt under the store's policy.
func loadOrFastForward(benchmark string, w machine.Workload, ffCfg machine.Config, capacity int, dir string) (*ffstore.Reservoir, error) {
	digest := ffConfigDigest(benchmark, ffCfg, capacity)
	if dir == "" {
		return fastForward(benchmark, w, ffCfg, capacity, digest)
	}
	st := ffstore.Store{Dir: dir}
	r, ok, err := store.Lookup(store.Reservoir, st.Path(benchmark, digest), ffstore.Decoder(benchmark, digest))
	if err != nil || ok {
		return r, err
	}
	if r, err = fastForward(benchmark, w, ffCfg, capacity, digest); err != nil {
		return nil, err
	}
	if err := st.Save(r); err != nil {
		return nil, fmt.Errorf("softwatt: saving fast-forward reservoir: %w", err)
	}
	return r, nil
}

// RunSampled estimates one benchmark's power by sampled simulation. The
// options select the detailed core ("mipsy", "mxs", "mxs1") and machine
// configuration; the fast-forward passes use the swift core over the same
// configuration. The benchmark, core and options are validated before
// anything is simulated or any cache file is looked up. With so.LogDir set
// the result goes through the sampled-result cache (SampleOptions).
func RunSampled(benchmark string, opt Options, so SampleOptions) (*SampledResult, error) {
	digest, err := SampledDigest(benchmark, opt, so)
	if err != nil {
		return nil, err
	}
	path := ""
	if so.LogDir != "" {
		path = store.Sampled.Path(so.LogDir, benchmark, digest)
		if r, ok, err := store.Lookup(store.Sampled, path, sampledDecoder(digest)); err != nil || ok {
			return r, err
		}
	}
	w, err := workload.Build(benchmark)
	if err != nil {
		return nil, err
	}
	r, err := runSampledWorkload(benchmark, w, opt, so)
	if err != nil {
		return nil, err
	}
	if path != "" {
		if err := SaveSampledResultFile(path, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// sampledConfig resolves the detailed machine configuration of a sampled
// run, rejecting swift, which has no timing for the windows to measure.
func sampledConfig(opt Options) (machine.Config, error) {
	if opt.Core == "swift" {
		return machine.Config{}, fmt.Errorf("softwatt: sampled simulation needs a detailed core for its windows (got %q)", opt.Core)
	}
	return opt.MachineConfig()
}

// runSampledWorkload is RunSampled over an explicit (possibly scaled)
// workload, with no result cache; the internal entry point the benchmarks
// drive.
func runSampledWorkload(benchmark string, w machine.Workload, opt Options, so SampleOptions) (*SampledResult, error) {
	cfg, err := sampledConfig(opt)
	if err != nil {
		return nil, err
	}
	ffOpt := opt
	ffOpt.Core = "swift"
	ffCfg, err := ffOpt.MachineConfig()
	if err != nil {
		return nil, err
	}
	so, capacity := so.resolve()
	warmup := so.WindowCycles / 2
	adaptive := so.TargetCIW > 0

	// Phase 1: the fast-forward pass, or its cached outcome.
	ffres, err := loadOrFastForward(benchmark, w, ffCfg, capacity, so.FFCacheDir)
	if err != nil {
		return nil, err
	}
	res := &SampledResult{
		Benchmark:    benchmark,
		Core:         cfg.Core.String(),
		ClockHz:      cfg.ClockHz,
		Digest:       sampledDigest(benchmark, cfg, so),
		TotalCycles:  ffres.TotalCycles,
		Committed:    ffres.Committed,
		WindowCycles: so.WindowCycles,
		DiskEnergyJ:  ffres.DiskEnergyJ,
		DiskStats:    ffres.DiskStats,
		IdleCycles:   ffres.IdleCycles,
	}
	cps := ffres.Entries
	if len(cps) == 0 {
		return nil, fmt.Errorf("softwatt: run too short (%d cycles) for sampling", res.TotalCycles)
	}

	// Trim the reservoir's tail. A checkpoint within warmup+W fast-forward
	// cycles of the halt cannot fill its window (the detailed core needs at
	// least as many cycles as swift for the remaining instruction stream),
	// so such entries are skipped when enough earlier ones exist: fixed
	// sampling keeps at least its N windows (a short run still measures N
	// windows, truncated if it must), adaptive keeps at least one.
	minKeep := so.Windows
	if adaptive {
		minKeep = 1
	}
	eligible := cps
	if res.TotalCycles > warmup+so.WindowCycles {
		bound := res.TotalCycles - (warmup + so.WindowCycles)
		n := len(cps)
		for n > minKeep && cps[n-1].Cycle > bound {
			n--
		}
		eligible = cps[:n]
	}

	// Phase 2: detailed windows on a persistent worker pool. Each worker
	// owns slot [worker]: it builds a machine for its first window and
	// recycles it for the rest, so N windows pay one construction. OnStart
	// runs on the worker's own goroutine immediately before the job body,
	// which makes the workerOf handoff race-free.
	model := power.Default()
	pool := runner.NewPool(so.Workers)
	defer pool.Close()
	slots := make([]*machine.Machine, pool.Workers())
	defer func() {
		for _, m := range slots {
			if m != nil {
				m.Release()
			}
		}
	}()
	runWave := func(entries []ffstore.Entry, base int) ([]WindowMeasure, error) {
		jobs := make([]runner.Job[WindowMeasure], len(entries))
		workerOf := make([]int, len(entries))
		for i := range entries {
			i := i
			e := entries[i]
			jobs[i] = runner.Job[WindowMeasure]{
				Label: fmt.Sprintf("%s[%d]", benchmark, base+i),
				Run: func() (WindowMeasure, error) {
					worker := workerOf[i]
					m := slots[worker]
					if m == nil {
						var err error
						if m, err = machine.New(cfg, w); err != nil {
							return WindowMeasure{}, err
						}
						slots[worker] = m
					} else {
						m.Recycle()
					}
					if err := m.RestoreState(e.Payload); err != nil {
						// A half-restored machine must never be recycled.
						m.Release()
						slots[worker] = nil
						return WindowMeasure{}, err
					}
					m.StepCycles(warmup)
					start := m.Cycle()
					before := m.Collector().ModeTotals()
					m.StepCycles(so.WindowCycles)
					after := m.Collector().ModeTotals()
					wm := WindowMeasure{
						Index:      base + i,
						StartCycle: start,
						Cycles:     m.Cycle() - start,
						EnergyJ:    cpuEnergyDelta(model, &before, &after),
					}
					if wm.Cycles > 0 {
						wm.PowerW = wm.EnergyJ / (float64(wm.Cycles) / cfg.ClockHz)
					}
					return wm, nil
				},
			}
		}
		return runner.MapOn(pool, jobs, runner.Options{
			Progress: so.Progress,
			OnStart:  func(worker, index int, label string) { workerOf[index] = worker },
		})
	}

	var pw stats.Welford
	record := func(windows []WindowMeasure) {
		for _, wm := range windows {
			res.Windows = append(res.Windows, wm)
			res.SampledCycles += wm.Cycles
			if wm.Cycles > 0 {
				pw.Add(wm.PowerW)
			}
		}
	}

	// Waves double the measured window count, each wave spreading its
	// picks evenly over the entries not yet measured, until the CI target,
	// the window cap, or reservoir exhaustion. Fixed mode is the first wave
	// alone: N windows spread evenly across the eligible entries.
	unused := make([]ffstore.Entry, len(eligible))
	copy(unused, eligible)
	next := so.Windows
	for {
		if next > so.MaxWindows-len(res.Windows) {
			next = so.MaxWindows - len(res.Windows)
		}
		if next > len(unused) {
			next = len(unused)
		}
		if next <= 0 {
			break
		}
		var wave []ffstore.Entry
		if next == len(unused) {
			wave, unused = unused, nil
		} else {
			picks := make([]int, next)
			for i := range picks {
				if next == 1 {
					picks[i] = len(unused) / 2
					continue
				}
				picks[i] = (i * (len(unused) - 1)) / (next - 1)
			}
			wave = make([]ffstore.Entry, next)
			for i, p := range picks {
				wave[i] = unused[p]
			}
			for i := len(picks) - 1; i >= 0; i-- {
				unused = append(unused[:picks[i]], unused[picks[i]+1:]...)
			}
		}
		windows, err := runWave(wave, len(res.Windows))
		if err != nil {
			return nil, err
		}
		record(windows)
		if ci := pw.CI95(); !adaptive || (!math.IsNaN(ci) && ci <= so.TargetCIW) {
			break
		}
		next = len(res.Windows)
	}
	// Later waves pick entries out of timeline order; the report reads in
	// StartCycle order. The sort is stable, so the first wave, already in
	// order, keeps it.
	sort.SliceStable(res.Windows, func(a, b int) bool {
		return res.Windows[a].StartCycle < res.Windows[b].StartCycle
	})
	for i := range res.Windows {
		res.Windows[i].Index = i
	}

	res.MeanPowerW = pw.Mean()
	res.PowerCI95W = pw.CI95()
	sec := float64(res.TotalCycles) / cfg.ClockHz
	res.EnergyJ = res.MeanPowerW * sec
	res.EnergyCI95J = res.PowerCI95W * sec
	return res, nil
}

// RenderSampled renders a sampled result as a report block.
func RenderSampled(r *SampledResult) string {
	var b strings.Builder
	sec := float64(r.TotalCycles) / r.ClockHz
	fmt.Fprintf(&b, "Sampled estimate: %s on %s\n", r.Benchmark, r.Core)
	fmt.Fprintf(&b, "  run length        %12d cycles (%.3f s at %.0f MHz)\n",
		r.TotalCycles, sec, r.ClockHz/1e6)
	fmt.Fprintf(&b, "  committed         %12d instructions\n", r.Committed)
	fmt.Fprintf(&b, "  windows           %12d x %d cycles (%.2f%% of run simulated in detail)\n",
		len(r.Windows), r.WindowCycles, 100*float64(r.SampledCycles)/float64(r.TotalCycles))
	fmt.Fprintf(&b, "  CPU power         %12.3f W  +/- %s W (95%% CI)\n", r.MeanPowerW, FmtCI(r.PowerCI95W))
	fmt.Fprintf(&b, "  CPU energy        %12.3f J  +/- %s J\n", r.EnergyJ, FmtCI(r.EnergyCI95J))
	fmt.Fprintf(&b, "  disk energy       %12.3f J (exact)\n", r.DiskEnergyJ)
	for _, wm := range r.Windows {
		truncated := ""
		if wm.Cycles < r.WindowCycles {
			truncated = " (truncated)"
		}
		fmt.Fprintf(&b, "    window %2d @ cycle %12d: %8.3f W over %d cycles%s\n",
			wm.Index, wm.StartCycle, wm.PowerW, wm.Cycles, truncated)
	}
	return b.String()
}

// FmtCI formats a 95% confidence half-width for display. The half-width
// is NaN when fewer than two windows measured anything (stats.Welford's
// convention: undefined is never printed as a number), so that case
// renders as n/a.
func FmtCI(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", v)
}
