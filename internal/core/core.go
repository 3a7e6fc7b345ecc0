// Package core implements the SoftWatt estimator: the post-processing pass
// that turns the simulator's sampled activity logs into power and energy
// numbers, reproducing every table and figure of the paper's evaluation.
// Simulation produces per-window, per-mode structure-access counts (see
// internal/trace); this package runs them through the analytical power
// models (internal/power) into per-mode, per-service and per-component
// profiles. Disk energy arrives already integrated, as in the paper.
package core

import (
	"fmt"

	"softwatt/internal/disk"
	"softwatt/internal/machine"
	"softwatt/internal/power"
	"softwatt/internal/trace"
)

// RunResult is everything the estimator needs from one benchmark run.
type RunResult struct {
	Benchmark string
	Core      string
	ClockHz   float64

	// Config is the resolved machine+disk configuration of the run in
	// stable key=value form. It is serialised into run logs and digested
	// for the log-cache lookup (a result loaded from a log answers for a
	// requested configuration only when the digests match).
	Config []trace.ConfigEntry

	Samples    []trace.Sample
	ModeTotals [trace.NumModes]trace.Bucket
	Services   [trace.NumSvc]trace.ServiceStats

	TotalCycles uint64
	Committed   uint64

	DiskEnergyJ float64
	DiskStats   disk.Stats
	IdleCycles  uint64

	// Timeline is the run's power timeline (empty unless derived with
	// Options.TimelineCycles); EProf the aggregated energy profile (empty
	// unless Options.EnergyProfile), sorted by (PCBucket, Mode, ASID),
	// with EProfShift the PC bucket shift. All three round-trip through
	// run logs, so cached/replayed logs re-render timelines and profiles
	// with zero simulation.
	Timeline   []trace.TimelinePoint
	EProf      []trace.EProfEntry
	EProfShift uint32
}

// Collect extracts a RunResult from a finished machine.
func Collect(m *machine.Machine, benchmark, coreName string) *RunResult {
	col := m.Collector()
	r := &RunResult{
		Benchmark:   benchmark,
		Core:        coreName,
		ClockHz:     m.Config().ClockHz,
		Config:      ConfigEntries(m.Config()),
		Samples:     col.Finish(),
		ModeTotals:  col.ModeTotals(),
		TotalCycles: col.TotalCycles(),
		Committed:   col.TotalInsts(),
		DiskEnergyJ: m.Disk().EnergyJ(m.Cycle()),
		DiskStats:   m.Disk().Stats(),
	}
	for s := trace.Svc(0); s < trace.NumSvc; s++ {
		r.Services[s] = *col.ServiceStats(s)
	}
	r.IdleCycles = r.ModeTotals[trace.ModeIdle].Cycles
	return r
}

// Estimator converts run results into the paper's reports.
type Estimator struct {
	Model *power.Model
}

// NewEstimator creates an estimator over the given power model.
func NewEstimator(m *power.Model) *Estimator { return &Estimator{Model: m} }

// seconds converts cycles to wall-clock seconds at the model's clock; used
// for buckets aggregated across runs, which share a configuration.
func (e *Estimator) seconds(cycles uint64) float64 {
	return float64(cycles) / e.Model.Tech.ClockHz
}

// secondsFor converts one run's cycles to seconds at the clock that run was
// actually configured with, so a non-default clock reports correct seconds
// and watts. Falls back to the model clock for results that predate the
// ClockHz field.
func (e *Estimator) secondsFor(r *RunResult, cycles uint64) float64 {
	if r.ClockHz > 0 {
		return float64(cycles) / r.ClockHz
	}
	return e.seconds(cycles)
}

// ---------------------------------------------------------------------------
// Table 2: percentage breakdown of cycles and energy per mode.
// ---------------------------------------------------------------------------

// ModeShare is one benchmark row of Table 2.
type ModeShare struct {
	Benchmark string
	CyclesPct [trace.NumModes]float64
	EnergyPct [trace.NumModes]float64
}

// ModeBreakdown computes Table 2 for one run.
func (e *Estimator) ModeBreakdown(r *RunResult) ModeShare {
	out := ModeShare{Benchmark: r.Benchmark}
	var totC uint64
	var totE float64
	var energy [trace.NumModes]float64
	for m := trace.Mode(0); m < trace.NumModes; m++ {
		b := r.ModeTotals[m]
		totC += b.Cycles
		energy[m] = e.Model.BucketEnergy(&b).Total
		totE += energy[m]
	}
	for m := trace.Mode(0); m < trace.NumModes; m++ {
		if totC > 0 {
			out.CyclesPct[m] = 100 * float64(r.ModeTotals[m].Cycles) / float64(totC)
		}
		if totE > 0 {
			out.EnergyPct[m] = 100 * energy[m] / totE
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Table 3: cache references per cycle per mode.
// ---------------------------------------------------------------------------

// CacheRefs is one benchmark row of Table 3.
type CacheRefs struct {
	Benchmark string
	IL1       [trace.NumModes]float64
	DL1       [trace.NumModes]float64
}

// CacheRefsPerCycle computes Table 3 for one run.
func (e *Estimator) CacheRefsPerCycle(r *RunResult) CacheRefs {
	out := CacheRefs{Benchmark: r.Benchmark}
	for m := trace.Mode(0); m < trace.NumModes; m++ {
		b := r.ModeTotals[m]
		if b.Cycles == 0 {
			continue
		}
		out.IL1[m] = float64(b.Units[trace.UnitL1I]) / float64(b.Cycles)
		out.DL1[m] = float64(b.Units[trace.UnitL1D]) / float64(b.Cycles)
	}
	return out
}

// ---------------------------------------------------------------------------
// Table 4: kernel services by cycles and energy.
// ---------------------------------------------------------------------------

// ServiceRow is one service row of Table 4.
type ServiceRow struct {
	Service     trace.Svc
	Invocations uint64
	CyclesPct   float64 // % of kernel (incl. sync) cycles
	EnergyPct   float64 // % of kernel (incl. sync) energy
}

// ServiceTable computes Table 4 for one run: services ordered by cycle
// share, with percentages relative to the kernel total.
func (e *Estimator) ServiceTable(r *RunResult) []ServiceRow {
	kb := r.ModeTotals[trace.ModeKernel]
	kb.Add(&r.ModeTotals[trace.ModeSync])
	kernC := float64(kb.Cycles)
	kernE := e.Model.BucketEnergy(&kb).Total
	var rows []ServiceRow
	for s := trace.Svc(1); s < trace.NumSvc; s++ {
		st := &r.Services[s]
		if st.Invocations == 0 {
			continue
		}
		eJ := e.Model.BucketEnergy(&st.Total).Total
		row := ServiceRow{
			Service:     s,
			Invocations: st.Invocations,
		}
		if kernC > 0 {
			row.CyclesPct = 100 * float64(st.Total.Cycles) / kernC
		}
		if kernE > 0 {
			row.EnergyPct = 100 * eJ / kernE
		}
		rows = append(rows, row)
	}
	for i := 0; i < len(rows); i++ {
		for j := i + 1; j < len(rows); j++ {
			if rows[j].CyclesPct > rows[i].CyclesPct {
				rows[i], rows[j] = rows[j], rows[i]
			}
		}
	}
	return rows
}

// ---------------------------------------------------------------------------
// Table 5: per-invocation energy variation per service.
// ---------------------------------------------------------------------------

// VariationRow is one row of Table 5.
type VariationRow struct {
	Service     trace.Svc
	MeanEnergyJ float64
	CoeffDevPct float64
	Invocations uint64
}

// ServiceVariation aggregates per-invocation energy statistics across runs
// (the machine computes them online via the model's InvocationEnergy).
func (e *Estimator) ServiceVariation(runs []*RunResult, services []trace.Svc) []VariationRow {
	var out []VariationRow
	for _, s := range services {
		var agg trace.ServiceStats
		for _, r := range runs {
			agg.Invocations += r.Services[s].Invocations
			agg.EnergyPerInv.Merge(r.Services[s].EnergyPerInv)
		}
		if agg.Invocations == 0 {
			continue
		}
		out = append(out, VariationRow{
			Service:     s,
			MeanEnergyJ: agg.EnergyPerInv.Mean(),
			CoeffDevPct: agg.EnergyPerInv.CoeffDeviationPct(),
			Invocations: agg.Invocations,
		})
	}
	return out
}

// ---------------------------------------------------------------------------
// Figures 5 and 7: overall power budget including the disk.
// ---------------------------------------------------------------------------

// Budget is the system power budget (average watts and percentage shares).
type Budget struct {
	DatapathW float64
	L1IW      float64
	L1DW      float64
	L2W       float64
	ClockW    float64
	MemoryW   float64
	DiskW     float64
	TotalW    float64
}

// Pct returns the named component's percentage of the total.
func (b Budget) Pct(component string) float64 {
	var v float64
	switch component {
	case "datapath":
		v = b.DatapathW
	case "il1":
		v = b.L1IW
	case "dl1":
		v = b.L1DW
	case "l2":
		v = b.L2W
	case "clock":
		v = b.ClockW
	case "memory":
		v = b.MemoryW
	case "disk":
		v = b.DiskW
	}
	if b.TotalW == 0 {
		return 0
	}
	return 100 * v / b.TotalW
}

// PowerBudget averages the component power over a set of runs, the way the
// paper's Figures 5 and 7 average over all benchmarks.
func (e *Estimator) PowerBudget(runs []*RunResult) Budget {
	var out Budget
	n := float64(len(runs))
	for _, r := range runs {
		var all trace.Bucket
		for m := trace.Mode(0); m < trace.NumModes; m++ {
			all.Add(&r.ModeTotals[m])
		}
		sec := e.secondsFor(r, all.Cycles)
		if sec == 0 {
			continue
		}
		bd := e.Model.BucketEnergy(&all)
		out.DatapathW += bd.Datapath / sec / n
		out.L1IW += bd.L1I / sec / n
		out.L1DW += bd.L1D / sec / n
		out.L2W += bd.L2 / sec / n
		out.ClockW += bd.Clock / sec / n
		out.MemoryW += bd.Memory / sec / n
		out.DiskW += r.DiskEnergyJ / sec / n
	}
	out.TotalW = out.DatapathW + out.L1IW + out.L1DW + out.L2W +
		out.ClockW + out.MemoryW + out.DiskW
	return out
}

// ---------------------------------------------------------------------------
// Figure 6: average power per execution mode (stacked by component).
// Figure 8: average power per kernel service.
// ---------------------------------------------------------------------------

// StackedPower is a per-component average power breakdown.
type StackedPower struct {
	Label    string
	Datapath float64
	L1I      float64
	L1D      float64
	L2       float64
	Clock    float64
	Memory   float64
	Total    float64
}

// stackAcross computes a component-power stack over one bucket per run:
// total energy divided by total wall-clock time, with each run's cycles
// converted to seconds at the clock that run was actually configured with.
// Summing cycles across runs before dividing (the old code path) silently
// assumed every run shared the model clock, which misreported Figures 6
// and 8 for any run with a non-default Options.ClockHz.
func (e *Estimator) stackAcross(label string, runs []*RunResult, pick func(*RunResult) *trace.Bucket) StackedPower {
	out := StackedPower{Label: label}
	var sec float64
	for _, r := range runs {
		b := pick(r)
		if b.Cycles == 0 {
			continue
		}
		bd := e.Model.BucketEnergy(b)
		out.Datapath += bd.Datapath
		out.L1I += bd.L1I
		out.L1D += bd.L1D
		out.L2 += bd.L2
		out.Clock += bd.Clock
		out.Memory += bd.Memory
		out.Total += bd.Total
		sec += e.secondsFor(r, b.Cycles)
	}
	if sec == 0 {
		return StackedPower{Label: label}
	}
	out.Datapath /= sec
	out.L1I /= sec
	out.L1D /= sec
	out.L2 /= sec
	out.Clock /= sec
	out.Memory /= sec
	out.Total /= sec
	return out
}

// ModeAveragePower computes Figure 6: the average power of each software
// mode, averaged over the runs.
func (e *Estimator) ModeAveragePower(runs []*RunResult) [trace.NumModes]StackedPower {
	var out [trace.NumModes]StackedPower
	for m := trace.Mode(0); m < trace.NumModes; m++ {
		m := m
		out[m] = e.stackAcross(m.String(), runs, func(r *RunResult) *trace.Bucket {
			return &r.ModeTotals[m]
		})
	}
	return out
}

// ServiceAveragePower computes Figure 8: the average power of the given
// kernel services over all their invocations across the runs.
func (e *Estimator) ServiceAveragePower(runs []*RunResult, services []trace.Svc) []StackedPower {
	var out []StackedPower
	for _, s := range services {
		s := s
		out = append(out, e.stackAcross(s.String(), runs, func(r *RunResult) *trace.Bucket {
			return &r.Services[s].Total
		}))
	}
	return out
}

// ---------------------------------------------------------------------------
// Figures 3 and 4: execution and power profiles over time.
// ---------------------------------------------------------------------------

// ProfilePoint is one time-series sample: mode shares of execution and the
// window's average power.
type ProfilePoint struct {
	TimeSec   float64 // window end
	ModePct   [trace.NumModes]float64
	PowerW    float64 // processor + memory power in the window
	MemPowerW float64 // memory-subsystem share (caches + DRAM)
}

// Profile converts a run's samples into the paper's time-series profiles.
func (e *Estimator) Profile(r *RunResult) []ProfilePoint {
	out := make([]ProfilePoint, 0, len(r.Samples))
	for i := range r.Samples {
		s := &r.Samples[i]
		var p ProfilePoint
		p.TimeSec = e.secondsFor(r, s.End)
		var tot trace.Bucket
		for m := trace.Mode(0); m < trace.NumModes; m++ {
			tot.Add(&s.Mode[m])
		}
		if tot.Cycles == 0 {
			continue
		}
		for m := trace.Mode(0); m < trace.NumModes; m++ {
			p.ModePct[m] = 100 * float64(s.Mode[m].Cycles) / float64(tot.Cycles)
		}
		bd := e.Model.BucketEnergy(&tot)
		sec := e.secondsFor(r, tot.Cycles)
		p.PowerW = bd.Total / sec
		p.MemPowerW = (bd.L1I + bd.L1D + bd.L2 + bd.Memory) / sec
		out = append(out, p)
	}
	return out
}

// PeakPowerW returns the highest window-average power of the run.
func (e *Estimator) PeakPowerW(r *RunResult) float64 {
	peak := 0.0
	for _, p := range e.Profile(r) {
		if p.PowerW > peak {
			peak = p.PowerW
		}
	}
	return peak
}

// ---------------------------------------------------------------------------
// Whole-run summary metrics.
// ---------------------------------------------------------------------------

// Summary holds the headline metrics of one run.
type Summary struct {
	Benchmark   string
	Core        string
	Cycles      uint64
	Insts       uint64
	IPC         float64
	TimeSec     float64
	CPUMemJ     float64 // processor + memory energy
	DiskJ       float64
	TotalJ      float64
	AvgPowerW   float64
	EDP         float64 // energy-delay product (J·s), CPU+mem
	KernelPct   float64 // kernel + sync share of cycles
	IdleCycles  uint64
	DiskSpinups uint64
}

// Summarize computes the run summary.
func (e *Estimator) Summarize(r *RunResult) Summary {
	var all trace.Bucket
	for m := trace.Mode(0); m < trace.NumModes; m++ {
		all.Add(&r.ModeTotals[m])
	}
	sec := e.secondsFor(r, all.Cycles)
	cpuMem := e.Model.BucketEnergy(&all).Total
	s := Summary{
		Benchmark:   r.Benchmark,
		Core:        r.Core,
		Cycles:      all.Cycles,
		Insts:       all.Insts,
		TimeSec:     sec,
		CPUMemJ:     cpuMem,
		DiskJ:       r.DiskEnergyJ,
		TotalJ:      cpuMem + r.DiskEnergyJ,
		EDP:         cpuMem * sec,
		IdleCycles:  r.ModeTotals[trace.ModeIdle].Cycles,
		DiskSpinups: r.DiskStats.Spinups,
	}
	if all.Cycles > 0 {
		s.IPC = float64(all.Insts) / float64(all.Cycles)
		s.KernelPct = 100 * float64(r.ModeTotals[trace.ModeKernel].Cycles+
			r.ModeTotals[trace.ModeSync].Cycles) / float64(all.Cycles)
	}
	if sec > 0 {
		s.AvgPowerW = s.TotalJ / sec
	}
	return s
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("%s/%s: %.2f ms, IPC %.2f, CPU+mem %.4f J, disk %.4f J, avg %.2f W, kernel %.1f%%",
		s.Benchmark, s.Core, s.TimeSec*1e3, s.IPC, s.CPUMemJ, s.DiskJ, s.AvgPowerW, s.KernelPct)
}
