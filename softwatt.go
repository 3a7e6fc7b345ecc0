// Package softwatt is a complete-machine power simulator in the spirit of
// "Using Complete Machine Simulation for Software Power Estimation: The
// SoftWatt Approach" (Gurumurthi et al., HPCA 2002).
//
// It boots a small IRIX-like operating system on a simulated MIPS-like
// machine (an in-order Mipsy core or an R10000-like out-of-order MXS core,
// a two-level cache hierarchy, a software-managed TLB, and a disk with the
// Toshiba MK3003MAN power-mode state machine), runs synthetic SpecJVM98-
// style workloads on it, and post-processes the sampled activity through
// validated analytical power models into per-mode, per-kernel-service and
// per-component power and energy profiles.
//
// Quick start:
//
//	res, err := softwatt.Run("jess", softwatt.Options{})
//	est := softwatt.NewEstimator()
//	fmt.Println(est.Summarize(res))
package softwatt

import (
	"fmt"
	"sort"
	"strings"

	"softwatt/internal/core"
	"softwatt/internal/disk"
	"softwatt/internal/eprof"
	"softwatt/internal/machine"
	"softwatt/internal/obs"
	"softwatt/internal/power"
	"softwatt/internal/runner"
	"softwatt/internal/trace"
	"softwatt/internal/workload"
)

// Re-exported result and report types. These aliases form the public API
// surface over the internal implementation packages.
type (
	// RunResult carries everything a finished simulation produced.
	RunResult = core.RunResult
	// Estimator converts run results into power/energy reports.
	Estimator = core.Estimator
	// Summary is the headline metrics of one run.
	Summary = core.Summary
	// ModeShare is a Table 2 row (cycles vs energy per software mode).
	ModeShare = core.ModeShare
	// CacheRefs is a Table 3 row (cache references per cycle per mode).
	CacheRefs = core.CacheRefs
	// ServiceRow is a Table 4 row (kernel service cycles vs energy).
	ServiceRow = core.ServiceRow
	// VariationRow is a Table 5 row (per-invocation energy variation).
	VariationRow = core.VariationRow
	// Budget is the Figure 5/7 system power budget.
	Budget = core.Budget
	// StackedPower is a Figure 6/8 per-component power breakdown.
	StackedPower = core.StackedPower
	// ProfilePoint is a Figure 3/4 time-series sample.
	ProfilePoint = core.ProfilePoint
	// Mode is a software execution mode (user/kernel/sync/idle).
	Mode = trace.Mode
	// Svc identifies a kernel service.
	Svc = trace.Svc
	// PowerModel is the evaluated analytical power model.
	PowerModel = power.Model
)

// Software execution modes.
const (
	ModeUser   = trace.ModeUser
	ModeKernel = trace.ModeKernel
	ModeSync   = trace.ModeSync
	ModeIdle   = trace.ModeIdle
	NumModes   = trace.NumModes
)

// Kernel services characterised by the paper.
const (
	SvcUTLB       = trace.SvcUTLB
	SvcTLBMiss    = trace.SvcTLBMiss
	SvcVFault     = trace.SvcVFault
	SvcDemandZero = trace.SvcDemandZero
	SvcCacheFlush = trace.SvcCacheFlush
	SvcRead       = trace.SvcRead
	SvcWrite      = trace.SvcWrite
	SvcOpen       = trace.SvcOpen
	SvcXStat      = trace.SvcXStat
	SvcBSD        = trace.SvcBSD
	SvcClock      = trace.SvcClock
	SvcDuPoll     = trace.SvcDuPoll
)

// Benchmarks lists the six SpecJVM98-style workloads.
var Benchmarks = workload.Names

// Options are what a command selects for one simulation run: the core,
// the disk policy and the paper's extensions. Everything else — memory
// size, clock, timer period, sampling window, cycle bound — is
// machine.DefaultConfig's Table 1 configuration; code in this module
// that needs another edits the machine.Config MachineConfig returns.
type Options struct {
	// Core selects the CPU timing model: "mipsy" (in-order, default),
	// "mxs" (4-wide out-of-order), "mxs1" (MXS configured single-issue,
	// the paper's Figure 3 configuration), or "swift" (functional
	// fast-forward: architecturally exact but with no cache, timing, or
	// power model — for positioning runs and functional checks, at
	// ~5x mipsy's throughput).
	Core string
	// DiskPolicy selects the paper's §4 configurations: "conventional"
	// (default), "idle", "standby2" (2 s scaled threshold) or "standby4".
	DiskPolicy string
	// IdleHalt enables the paper's §5 proposed optimization: the idle loop
	// halts the processor (WAIT) instead of busy-waiting, eliminating the
	// idle process's pipeline activity.
	IdleHalt bool
	// EnergyProfile attributes every joule to the guest code that spent it
	// (DESIGN.md §15): the run result carries per-PC-bucket energy usable
	// via WriteEnergyProfile (pprof flame graphs) and swreport -eprof-top.
	// Requires a timing core; rejected for "swift", which has no power
	// model. Profiling changes no simulation results.
	EnergyProfile bool
	// TimelineCycles, when non-zero, gives the run result a power timeline
	// point every so many cycles (rounded up to whole sample windows) and
	// publishes each point live to the /metrics gauges and Perfetto counter
	// tracks. Timelines change no simulation results and do not
	// participate in the configuration digest.
	TimelineCycles uint64
}

// MachineConfig resolves the options into a machine configuration.
func (o Options) MachineConfig() (machine.Config, error) {
	cfg := machine.DefaultConfig()
	switch o.Core {
	case "", "mipsy":
		cfg.Core = machine.CoreMipsy
	case "mxs":
		cfg.Core = machine.CoreMXS
	case "mxs1":
		cfg.Core = machine.CoreMXS1
	case "swift":
		cfg.Core = machine.CoreSwift
	default:
		return cfg, fmt.Errorf("softwatt: unknown core %q (valid: mipsy, mxs, mxs1, swift)", o.Core)
	}
	switch o.DiskPolicy {
	case "", "conventional":
		cfg.Disk.Policy = disk.PolicyConventional
	case "idle":
		cfg.Disk.Policy = disk.PolicyIdle
	case "standby2":
		cfg.Disk.Policy = disk.PolicyStandby
		cfg.Disk.SpindownThresholdSec = 2.0
	case "standby4":
		cfg.Disk.Policy = disk.PolicyStandby
		cfg.Disk.SpindownThresholdSec = 4.0
	default:
		return cfg, fmt.Errorf("softwatt: unknown disk policy %q (valid: %s)",
			o.DiskPolicy, strings.Join(DiskPolicies, ", "))
	}
	cfg.IdleHalt = o.IdleHalt
	if o.EnergyProfile && cfg.Core == machine.CoreSwift {
		return cfg, fmt.Errorf("softwatt: energy profiling needs a timing core (mipsy, mxs, mxs1); swift has no power model")
	}
	return cfg, nil
}

// Run simulates one named benchmark to completion and returns its results.
func Run(benchmark string, opt Options) (*RunResult, error) {
	r, _, err := run(benchmark, opt, 0, false)
	return r, err
}

// run is Run on an explicit trace track: tid 0 for direct calls, the
// worker's track for batch cells. Each pipeline phase (workload build,
// machine boot, simulation, estimation) is a span; with no tracer
// installed every span is inert and the function is byte-for-byte the old
// Run. With record set, a successful run also returns the reference its
// disk-policy class derives from.
func run(benchmark string, opt Options, tid int64, record bool) (*RunResult, *reference, error) {
	cfg, err := opt.MachineConfig()
	if err != nil {
		return nil, nil, err
	}
	sp := obs.StartSpan(tid, "build "+benchmark, "build")
	w, err := workload.Build(benchmark)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp = obs.StartSpan(tid, "boot "+benchmark, "boot")
	sp.Arg("core", cfg.Core.String())
	m, err := machine.New(cfg, w)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	rec := m.Disk().Record() // a derived cell's and the timeline's input
	// Collect copies everything out of the machine, so on every path its
	// 128 MB RAM goes back to the pool for the next run in this process.
	defer m.Release()
	// Per-invocation service energy (the paper's Table 5) is the one CPU
	// quantity measured online, so wire the power model in.
	model := power.Default()
	m.Collector().SetEnergyFn(model.InvocationEnergy)
	var ep *eprof.Profiler
	if opt.EnergyProfile {
		unitPJ, cyclePJ := model.EProfCoeffs()
		ep = eprof.New(eprof.DefaultShift, unitPJ, cyclePJ)
		m.SetEnergyProfiler(ep, ep.Shift())
	}
	publishRest := exportTimeline(m, rec, opt.TimelineCycles, model, tid)
	sp = obs.StartSpan(tid, "simulate "+benchmark, "simulate")
	sp.Arg("core", cfg.Core.String())
	err = m.Run(0)
	sp.Arg("cycles", fmt.Sprint(m.Cycle()))
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("softwatt: %s: %w (console: %q)", benchmark, err, m.Console())
	}
	if m.ExitCode() != 0 {
		return nil, nil, fmt.Errorf("softwatt: %s exited with code %d (console: %q)",
			benchmark, m.ExitCode(), m.Console())
	}
	sp = obs.StartSpan(tid, "estimate "+benchmark, "estimate")
	r := core.Collect(m, benchmark, cfg.Core.String())
	if opt.TimelineCycles > 0 {
		n := core.TimelineWindows(opt.TimelineCycles, m.Collector().WindowCycles)
		r.Timeline, _, _, _ = core.Timeline(r.Samples, n, disk.NewReplayer(m.Config().Disk, rec))
		publishRest(r.Timeline)
	}
	if ep != nil {
		r.EProf = ep.Entries()
		r.EProfShift = ep.Shift()
	}
	sp.End()
	var ref *reference
	if record {
		ref = &reference{cfg: m.Config(), rec: rec, res: r}
	}
	return r, ref, nil
}

// BatchOptions configure how a batch of independent simulations executes.
// The zero value runs one simulation per CPU with no progress reporting
// and no run-log cache.
type BatchOptions struct {
	// Workers bounds how many simulations run concurrently; zero or
	// negative uses GOMAXPROCS. Worker count never changes results: a
	// batch at any parallelism returns the same result slice, in input
	// order, as a serial run.
	Workers int
	// Progress, when non-nil, is called serially after each cell finishes
	// with the number of finished cells so far, the total, the finished
	// cell's label (e.g. "jess/standby2"), and its error (nil on success)
	// — so a CLI can print failing cells as they fail instead of at the
	// end of the sweep. Cache hits count as finished before any cell
	// simulates; derived cells (RunBatch) count like simulated ones.
	Progress func(done, total int, label string, err error)
	// OnResult, when non-nil, is called from the worker goroutine as soon
	// as a cell's simulation succeeds, before the batch returns — this is
	// how the CLIs write one run log per cell as the parallel engine
	// completes it. index is the cell's input-order position. Calls for
	// different cells may be concurrent. A returned error marks the cell
	// failed. It fires for derived cells too (RunBatch). Cells loaded
	// from LogDir do not simulate, so OnResult does not fire for them.
	OnResult func(index int, label string, r *RunResult) error
	// LogDir, when non-empty, is a directory of saved run logs acting as a
	// simulation cache. A cell whose log is present (matched by
	// configuration digest) loads instead of simulating; every simulated
	// cell's log is written there as it completes. A log that reads but
	// fails to decode or records another configuration is corrupt under
	// the store's policy: counted, warned about, removed and re-simulated.
	// A log that cannot be read at all (LogDir is a regular file, say)
	// fails the batch before any cell simulates.
	LogDir string
}

// BatchError aggregates the per-cell failures of a batch run, in input
// order. Batch APIs keep going past a failed cell, so one error never
// hides the rest of the sweep.
type BatchError = runner.Errors

// CellError is one failed cell of a batch: its input-order index, its
// label (e.g. "jess/standby2"), and the underlying error. A simulation
// panic surfaces here as an error carrying the panic value and stack.
type CellError = runner.JobError

// validateBenchmark fails fast on an unknown benchmark name, before any
// simulation has run or any cache file is named after it.
func validateBenchmark(benchmark string) error {
	if _, ok := workload.Benchmarks()[benchmark]; !ok {
		return fmt.Errorf("softwatt: unknown benchmark %q (valid: %s)",
			benchmark, strings.Join(Benchmarks, ", "))
	}
	return nil
}

// runBatch fans already validated specs out over the job engine. Results
// are in input order; failed cells are nil and aggregated into a
// *BatchError.
//
// Cells of a disk-policy class derive from its conventional run where the
// disk replay allows (derive.go). The engine picks cells up in job order,
// so the references and the cells outside any class are queued first and
// the members after them: by the time a member waits for its reference,
// every reference has been picked up, and none waits on anything.
//
// When a tracer is installed, each cell becomes a span on its worker's
// track: the engine's OnStart hook records which worker picked the cell up
// (the job body runs on that same goroutine, so the read needs no lock),
// and the run pipeline's phase spans nest underneath. Worker tracks are
// tid 1..Workers; tid 0 is the direct-call track.
func runBatch(specs []RunSpec, b BatchOptions) ([]*RunResult, error) {
	refOf := diskClasses(specs)
	order := make([]int, 0, len(specs)) // job index -> spec index
	for _, members := range []bool{false, true} {
		for i, ref := range refOf {
			if (ref >= 0 && ref != i) == members {
				order = append(order, i)
			}
		}
	}
	refs := make([]*reference, len(specs))
	ready := make([]chan struct{}, len(specs))
	for i, ref := range refOf {
		if ref == i {
			ready[i] = make(chan struct{})
		}
	}

	workerOf := make([]int64, len(specs))
	ro := runner.Options{Workers: b.Workers, Progress: b.Progress}
	if tr := obs.ActiveTracer(); tr != nil {
		ro.OnStart = func(worker, index int, label string) {
			tid := int64(worker) + 1
			workerOf[index] = tid
			tr.SetThreadName(tid, fmt.Sprintf("worker %d", worker))
		}
	}
	jobs := make([]runner.Job[*RunResult], len(specs))
	for j, i := range order {
		sp := specs[i]
		label := sp.label()
		jobs[j] = runner.Job[*RunResult]{
			Label: label,
			Run: func() (*RunResult, error) {
				tid := workerOf[j]
				span := obs.StartSpan(tid, label, "cell")
				var r *RunResult
				var err error
				switch ref := refOf[i]; {
				case ref == i:
					func() {
						defer close(ready[i]) // on a panic too
						r, refs[i], err = run(sp.Benchmark, sp.Options, tid, true)
					}()
				case ref >= 0:
					<-ready[ref]
					if refs[ref] != nil {
						r = derive(refs[ref], sp.Options, tid, label)
					}
				}
				if r == nil && err == nil {
					r, _, err = run(sp.Benchmark, sp.Options, tid, false)
				}
				if err == nil && b.OnResult != nil {
					ssp := obs.StartSpan(tid, "save "+label, "save")
					err = b.OnResult(i, label, r)
					ssp.End()
				}
				if err != nil {
					span.Arg("error", err.Error())
					r = nil // a cell whose OnResult failed is a failed cell
				}
				span.End()
				return r, err
			},
		}
	}
	res, err := runner.Map(jobs, ro)
	results := make([]*RunResult, len(specs))
	for j, i := range order {
		results[i] = res[j]
	}
	if be, ok := err.(*BatchError); ok {
		for _, je := range be.Jobs {
			je.Index = order[je.Index]
		}
		sort.Slice(be.Jobs, func(a, b int) bool { return be.Jobs[a].Index < be.Jobs[b].Index })
	}
	return results, err
}

// NewEstimator returns an estimator over the paper's Table 1 power model.
func NewEstimator() *Estimator {
	return core.NewEstimator(power.Default())
}

// DefaultModel returns the evaluated power model (0.35 µm, 3.3 V, 200 MHz).
func DefaultModel() *PowerModel { return power.Default() }

// ValidateMaxPower returns the modelled maximum R10000-class CPU power; the
// paper validates this as 25.3 W against the 30 W datasheet figure.
func ValidateMaxPower() float64 { return power.Default().R10000MaxPowerW() }

// Fig9Row is one cell of the paper's Figure 9 disk study.
type Fig9Row = core.Fig9Row

// DiskPolicies lists the paper's four §4 disk configurations in order.
var DiskPolicies = []string{"conventional", "idle", "standby2", "standby4"}

// DiskSweepSpecs builds the paper's Figure 9 grid: every benchmark under
// each of the four §4 disk configurations, benchmark-major in input order,
// each cell labelled "bench/policy" and otherwise run under opt. The paper
// drives the sweep with the Mipsy core, the fast first-pass model it uses
// for memory and disk behaviour.
func DiskSweepSpecs(benchmarks []string, opt Options) []RunSpec {
	specs := make([]RunSpec, 0, len(benchmarks)*len(DiskPolicies))
	for _, bench := range benchmarks {
		for _, pol := range DiskPolicies {
			o := opt
			o.DiskPolicy = pol
			specs = append(specs, RunSpec{Benchmark: bench, Options: o, Label: bench + "/" + pol})
		}
	}
	return specs
}

// Fig9Rows projects a disk sweep's results onto Figure 9 rows (disk energy,
// idle cycles, spin transitions and run length per cell), in spec order.
// Full and sampled runs both carry exact disk figures: a sampled run takes
// them from its functional fast-forward pass. A nil result (a failed cell)
// stays a zero-valued row.
func Fig9Rows[R *RunResult | *SampledResult](specs []RunSpec, results []R) []Fig9Row {
	rows := make([]Fig9Row, len(results))
	for i, res := range results {
		var r *RunResult
		switch v := any(res).(type) {
		case *RunResult:
			r = v
		case *SampledResult:
			if v != nil {
				// The disk columns, in the shape a full run carries them.
				r = &RunResult{DiskEnergyJ: v.DiskEnergyJ, DiskStats: v.DiskStats,
					IdleCycles: v.IdleCycles, TotalCycles: v.TotalCycles}
			}
		}
		if r == nil {
			continue
		}
		rows[i] = Fig9Row{
			Benchmark:  specs[i].Benchmark,
			Policy:     specs[i].Options.DiskPolicy,
			DiskJ:      r.DiskEnergyJ,
			IdleCycles: r.IdleCycles,
			Spinups:    r.DiskStats.Spinups,
			Spindowns:  r.DiskStats.Spindowns,
			Cycles:     r.TotalCycles,
		}
	}
	return rows
}

// RenderFig9 renders sweep rows as the Figure 9 report.
func RenderFig9(rows []Fig9Row) string { return core.RenderFig9(rows) }

// TraceEstimate is the result of the paper's §5 proposal: estimating a
// workload's kernel energy from a service-invocation trace plus calibrated
// per-service mean energies, without detailed simulation.
type TraceEstimate = core.TraceEstimate
