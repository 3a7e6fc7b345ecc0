package core

// Power-timeline and energy-profile rendering (DESIGN.md §15). Both render
// entirely from a RunResult, so cached and replayed logs re-render with
// zero simulation. Watts are derived here, at render time, by running the
// recorded activity buckets through the power model — the recorded log
// stays power-model-agnostic.

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"softwatt/internal/disk"
	"softwatt/internal/power"
	"softwatt/internal/trace"
)

// TimelineRow is one derived timeline interval: per-component and per-mode
// average watts over [StartSec, EndSec).
type TimelineRow struct {
	StartSec float64
	EndSec   float64
	CPUW     float64 // datapath + L1I + L1D + L2
	MemW     float64 // DRAM access + background
	ClockW   float64
	DiskW    float64
	ModeW    [trace.NumModes]float64
	TotalW   float64 // CPU + mem + clock + disk
}

// TimelineWindows is how many sample windows a timeline point of interval
// cycles folds: the interval rounded up to whole windows, counted in
// windows so that no interval overflows.
func TimelineWindows(interval, window uint64) uint64 {
	return interval/window + min(interval%window, 1)
}

// FoldWindows folds a run's sample windows into timeline points of n
// windows each, the last holding the rest; none when n is 0. DiskJ is NaN:
// the windows carry no disk energy.
func FoldWindows(samples []trace.Sample, n uint64) (points []trace.TimelinePoint) {
	for n > 0 && len(samples) > 0 {
		k := int(min(n, uint64(len(samples))))
		p := trace.TimelinePoint{Start: samples[0].Start, End: samples[k-1].End, DiskJ: math.NaN()}
		for i := range samples[:k] {
			for m := range p.Mode {
				p.Mode[m].Add(&samples[i].Mode[m])
			}
		}
		points, samples = append(points, p), samples[k:]
	}
	return points
}

// Timeline derives a run's power timeline (DESIGN.md §15): its sample
// windows folded n to a point, each point's DiskJ read at its end from rp,
// a replay of the run's disk recording, the last point's from rp.Finish,
// whose results it returns.
func Timeline(samples []trace.Sample, n uint64, rp *disk.Replayer) (tl []trace.TimelinePoint, energyJ float64, st disk.Stats, ok bool) {
	tl = FoldWindows(samples, n)
	for i := 0; i+1 < len(tl); i++ {
		tl[i].DiskJ = rp.EnergyJ(tl[i].End)
	}
	energyJ, st, ok = rp.Finish()
	if len(tl) > 0 {
		tl[len(tl)-1].DiskJ = energyJ
	}
	return tl, energyJ, st, ok
}

// TimelineRows derives per-interval watts from the run's timeline. When
// the run was recorded without -timeline, the sample windows stand in:
// each window becomes one interval with CPU-side components only (the log
// has no per-window disk energy), and fromSamples reports the substitution.
func (e *Estimator) TimelineRows(r *RunResult) (rows []TimelineRow, fromSamples bool) {
	points := r.Timeline
	if len(points) == 0 {
		points = FoldWindows(r.Samples, 1)
		fromSamples = true
	}
	rows = make([]TimelineRow, 0, len(points))
	prevDiskJ := 0.0
	for i := range points {
		p := &points[i]
		row, ok := TimelinePointRow(e.Model, p, e.secondsFor(r, p.Start), e.secondsFor(r, p.End), prevDiskJ)
		if !ok {
			continue
		}
		if !math.IsNaN(p.DiskJ) {
			prevDiskJ = p.DiskJ
		}
		rows = append(rows, row)
	}
	return rows, fromSamples
}

// TimelinePointRow derives one interval's watts: the point's activity
// buckets through the power model over [startSec, endSec), and disk watts
// from the growth of the run's disk energy since prevDiskJ (none when
// DiskJ is NaN). ok is false for an empty interval. TimelineRows and the
// live timeline exporter both call it, so the gauges and Perfetto counters
// read exactly what swreport -timeline renders.
func TimelinePointRow(model *power.Model, p *trace.TimelinePoint, startSec, endSec, prevDiskJ float64) (row TimelineRow, ok bool) {
	row = TimelineRow{StartSec: startSec, EndSec: endSec}
	sec := endSec - startSec
	if sec <= 0 {
		return row, false
	}
	var all trace.Bucket
	for m := range p.Mode {
		all.Add(&p.Mode[m])
		row.ModeW[m] = model.BucketEnergy(&p.Mode[m]).Total / sec
	}
	bd := model.BucketEnergy(&all)
	row.CPUW = (bd.Datapath + bd.L1I + bd.L1D + bd.L2) / sec
	row.MemW = bd.Memory / sec
	row.ClockW = bd.Clock / sec
	if !math.IsNaN(p.DiskJ) {
		row.DiskW = (p.DiskJ - prevDiskJ) / sec
	}
	row.TotalW = row.CPUW + row.MemW + row.ClockW + row.DiskW
	return row, true
}

// RenderTimelineCSV renders the timeline as CSV, one interval per row.
func (e *Estimator) RenderTimelineCSV(r *RunResult) string {
	rows, _ := e.TimelineRows(r)
	var b strings.Builder
	b.WriteString("start_s,end_s,cpu_w,mem_w,clock_w,disk_w")
	for m := trace.Mode(0); m < trace.NumModes; m++ {
		fmt.Fprintf(&b, ",%s_w", m)
	}
	b.WriteString(",total_w\n")
	for i := range rows {
		row := &rows[i]
		fmt.Fprintf(&b, "%.6f,%.6f,%.4f,%.4f,%.4f,%.4f",
			row.StartSec, row.EndSec, row.CPUW, row.MemW, row.ClockW, row.DiskW)
		for _, w := range row.ModeW {
			fmt.Fprintf(&b, ",%.4f", w)
		}
		fmt.Fprintf(&b, ",%.4f\n", row.TotalW)
	}
	return b.String()
}

// sparkGlyphs are the eight terminal sparkline levels.
var sparkGlyphs = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals scaled into the glyph range; width caps the
// output by averaging adjacent values (0 = no cap).
func sparkline(vals []float64, width int) string {
	if len(vals) == 0 {
		return ""
	}
	if width > 0 && len(vals) > width {
		folded := make([]float64, width)
		for i := range folded {
			lo, hi := i*len(vals)/width, (i+1)*len(vals)/width
			if hi == lo {
				hi = lo + 1
			}
			var sum float64
			for _, v := range vals[lo:hi] {
				sum += v
			}
			folded[i] = sum / float64(hi-lo)
		}
		vals = folded
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if max > min {
			idx = int((v - min) / (max - min) * float64(len(sparkGlyphs)-1))
		}
		b.WriteRune(sparkGlyphs[idx])
	}
	return b.String()
}

// RenderTimeline renders the power timeline as labelled terminal
// sparklines (one per component) with min/mean/max, for swreport
// -timeline.
func (e *Estimator) RenderTimeline(r *RunResult, width int) string {
	rows, fromSamples := e.TimelineRows(r)
	var b strings.Builder
	fmt.Fprintf(&b, "Power timeline: %s/%s, %d intervals", r.Benchmark, r.Core, len(rows))
	if fromSamples {
		b.WriteString(" (derived from sample windows; disk n/a)")
	}
	b.WriteString("\n")
	if len(rows) == 0 {
		return b.String()
	}
	pick := []struct {
		name string
		get  func(*TimelineRow) float64
	}{
		{"total", func(t *TimelineRow) float64 { return t.TotalW }},
		{"cpu", func(t *TimelineRow) float64 { return t.CPUW }},
		{"mem", func(t *TimelineRow) float64 { return t.MemW }},
		{"clock", func(t *TimelineRow) float64 { return t.ClockW }},
		{"disk", func(t *TimelineRow) float64 { return t.DiskW }},
	}
	for _, p := range pick {
		vals := make([]float64, len(rows))
		min, max, sum := math.Inf(1), math.Inf(-1), 0.0
		for i := range rows {
			vals[i] = p.get(&rows[i])
			min = math.Min(min, vals[i])
			max = math.Max(max, vals[i])
			sum += vals[i]
		}
		fmt.Fprintf(&b, "%-6s %s  min %6.2f  mean %6.2f  max %6.2f W\n",
			p.name, sparkline(vals, width), min, sum/float64(len(vals)), max)
	}
	return b.String()
}

// EProfRegion is one aggregated energy-profile row for the text report:
// entries sharing a PC bucket are merged across modes and ASIDs, with the
// dominant mode retained for the label.
type EProfRegion struct {
	Addr     uint32 // bucket base address
	Mode     trace.Mode
	Cycles   uint64
	Insts    uint64
	EnergyPJ float64
	AvgW     float64 // energy over the region's own active time
}

// EProfTop merges the profile per PC bucket and returns the n hottest
// regions by energy (equivalently watts of the whole run, which shares one
// wall clock).
func (e *Estimator) EProfTop(r *RunResult, n int) []EProfRegion {
	byBucket := map[uint32]*EProfRegion{}
	modePJ := map[uint32]*[trace.NumModes]float64{}
	for i := range r.EProf {
		en := &r.EProf[i]
		addr := en.PCBucket << r.EProfShift
		reg, ok := byBucket[addr]
		if !ok {
			reg = &EProfRegion{Addr: addr}
			byBucket[addr] = reg
			modePJ[addr] = &[trace.NumModes]float64{}
		}
		reg.Cycles += en.Cycles
		reg.Insts += en.Insts
		reg.EnergyPJ += en.EnergyPJ
		modePJ[addr][en.Mode] += en.EnergyPJ
	}
	out := make([]EProfRegion, 0, len(byBucket))
	for addr, reg := range byBucket {
		best := trace.Mode(0)
		for m := trace.Mode(1); m < trace.NumModes; m++ {
			if modePJ[addr][m] > modePJ[addr][best] {
				best = m
			}
		}
		reg.Mode = best
		if clk := r.ClockHz; clk > 0 && reg.Cycles > 0 {
			reg.AvgW = reg.EnergyPJ * 1e-12 / (float64(reg.Cycles) / clk)
		}
		out = append(out, *reg)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EnergyPJ != out[j].EnergyPJ {
			return out[i].EnergyPJ > out[j].EnergyPJ
		}
		return out[i].Addr < out[j].Addr
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// RenderEProfTop renders the hottest guest code regions. sym, when
// non-nil, names the routine containing each region's base address.
func (e *Estimator) RenderEProfTop(r *RunResult, n int, sym func(addr uint32) string) string {
	regions := e.EProfTop(r, n)
	var b strings.Builder
	fmt.Fprintf(&b, "Energy profile: %s/%s, top %d of %d regions (bucket %d B)\n",
		r.Benchmark, r.Core, len(regions), len(r.EProf), 1<<r.EProfShift)
	var totPJ float64
	for i := range r.EProf {
		totPJ += r.EProf[i].EnergyPJ
	}
	fmt.Fprintf(&b, "%-10s %-8s %12s %12s %10s %7s %7s  %s\n",
		"addr", "mode", "cycles", "insts", "energy", "avg W", "%", "routine")
	for i := range regions {
		reg := &regions[i]
		name := ""
		if sym != nil {
			name = sym(reg.Addr)
		}
		pct := 0.0
		if totPJ > 0 {
			pct = 100 * reg.EnergyPJ / totPJ
		}
		fmt.Fprintf(&b, "0x%08x %-8s %12d %12d %9.3fuJ %7.2f %6.2f%%  %s\n",
			reg.Addr, reg.Mode, reg.Cycles, reg.Insts, reg.EnergyPJ*1e-6, reg.AvgW, pct, name)
	}
	return b.String()
}
