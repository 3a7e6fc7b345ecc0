package softwatt

// The energy-profiler and power-timeline facade: guest-code symbolization,
// pprof profile export, and the live timeline exporter that feeds the
// /metrics gauges and Perfetto counter tracks (DESIGN.md §15).

import (
	"fmt"
	"io"
	"os"
	"sort"

	"softwatt/internal/core"
	"softwatt/internal/disk"
	"softwatt/internal/eprof"
	"softwatt/internal/kern"
	"softwatt/internal/machine"
	"softwatt/internal/obs"
	"softwatt/internal/power"
	"softwatt/internal/trace"
	"softwatt/internal/workload"
)

// symTable is a sorted (address, name) table for bulk symbolization.
// kern.Image.FindRoutine is a linear scan per call — fine for one-off
// lookups, wrong shape for symbolizing every profile bucket — so the
// profiler builds this once per benchmark and binary-searches.
type symTable struct {
	addrs []uint32
	names []string
}

func (t *symTable) find(addr uint32) string {
	i := sort.Search(len(t.addrs), func(i int) bool { return t.addrs[i] > addr }) - 1
	if i < 0 {
		return ""
	}
	return t.names[i]
}

// newSymTable merges symbol maps (later maps win on address collisions,
// which do not occur between the disjoint user and kernel address ranges)
// into one sorted table.
func newSymTable(maps ...map[string]uint32) *symTable {
	type sym struct {
		addr uint32
		name string
	}
	var all []sym
	for _, m := range maps {
		for n, a := range m {
			all = append(all, sym{a, n})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].addr != all[j].addr {
			return all[i].addr < all[j].addr
		}
		return all[i].name < all[j].name
	})
	t := &symTable{addrs: make([]uint32, len(all)), names: make([]string, len(all))}
	for i, s := range all {
		t.addrs[i], t.names[i] = s.addr, s.name
	}
	return t
}

// Symbolizer returns a guest-address-to-routine-name function covering the
// named benchmark's program and the kernel. Unknown benchmarks (a profile
// recorded by a custom workload) fall back to kernel-only symbols rather
// than failing: the profile is still renderable, just with bare user
// addresses.
func Symbolizer(benchmark string) func(addr uint32) string {
	maps := make([]map[string]uint32, 0, 2)
	if img, err := kern.Build(); err == nil {
		maps = append(maps, img.Symbols)
	}
	if w, err := workload.Build(benchmark); err == nil && w.Program != nil {
		maps = append(maps, w.Program.Symbols)
	}
	return newSymTable(maps...).find
}

// WriteEnergyProfile writes the run's energy profile as a gzipped pprof
// profile.proto (go tool pprof understands it directly; sample values are
// cycles, instructions, and energy in picojoules, with energy the
// default). The run must have been simulated with Options.EnergyProfile.
func WriteEnergyProfile(w io.Writer, r *RunResult) error {
	if len(r.EProf) == 0 {
		return fmt.Errorf("softwatt: run %s/%s carries no energy profile (simulate with EnergyProfile)", r.Benchmark, r.Core)
	}
	return eprof.WriteProfile(w, r.EProf, r.EProfShift, Symbolizer(r.Benchmark))
}

// WriteEnergyProfileFile is WriteEnergyProfile to a named file.
func WriteEnergyProfileFile(path string, r *RunResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEnergyProfile(f, r); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// timelineComponents orders the per-component power gauge labels.
var timelineComponents = [5]string{"cpu", "mem", "clock", "disk", "total"}

// exportTimeline publishes m's power timeline live, to the /metrics
// gauges and the tracer's Perfetto counter tracks: as each point's last
// window flushes, a collector hook folds it and reads its DiskJ from a
// replay of the live recording rec, as core.Timeline does after the run,
// and core.TimelinePointRow turns it into watts, as swreport does. The
// returned function publishes the derived points the hook could not: the
// trailing partial one. With no interval or sink it publishes nothing.
func exportTimeline(m *machine.Machine, rec *disk.Recording, interval uint64, model *power.Model, tid int64) (rest func([]trace.TimelinePoint)) {
	tr := obs.ActiveTracer()
	metricsOn := obs.MetricsEnabled()
	if interval == 0 || tr == nil && !metricsOn {
		return func([]trace.TimelinePoint) {}
	}
	var comp [5]*obs.Gauge
	var mode [trace.NumModes]*obs.Gauge
	if metricsOn {
		reg := obs.Default()
		for i, c := range timelineComponents {
			comp[i] = reg.Gauge("softwatt_power_watts",
				"Average power over the last timeline interval, per component.",
				obs.Label("component", c))
		}
		for m := trace.Mode(0); m < trace.NumModes; m++ {
			mode[m] = reg.Gauge("softwatt_mode_power_watts",
				"Average power over the last timeline interval, per software mode.",
				obs.Label("mode", m.String()))
		}
	}
	clockHz, prevDiskJ, published := m.Config().ClockHz, 0.0, 0
	export := func(p *trace.TimelinePoint) {
		published++
		row, ok := core.TimelinePointRow(model, p, float64(p.Start)/clockHz, float64(p.End)/clockHz, prevDiskJ)
		if !ok {
			return
		}
		prevDiskJ = p.DiskJ
		watts := [5]float64{row.CPUW, row.MemW, row.ClockW, row.DiskW, row.TotalW}
		if metricsOn {
			for i, g := range comp {
				g.Set(watts[i])
			}
			for m, g := range mode {
				g.Set(row.ModeW[m])
			}
		}
		if tr != nil {
			for i, c := range timelineComponents {
				tr.Counter(tid, "power "+c+" (W)", watts[i])
			}
			for m := trace.Mode(0); m < trace.NumModes; m++ {
				tr.Counter(tid, "power "+m.String()+" (W)", row.ModeW[m])
			}
		}
	}
	col := m.Collector()
	n := core.TimelineWindows(interval, col.WindowCycles)
	rp := disk.NewReplayer(m.Config().Disk, rec)
	col.OnWindow = func(s []trace.Sample) {
		if k := uint64(len(s)); k%n == 0 {
			p := core.FoldWindows(s[k-n:], n)[0]
			p.DiskJ = rp.EnergyJ(p.End)
			export(&p)
		}
	}
	return func(tl []trace.TimelinePoint) {
		for _, p := range tl[published:] {
			export(&p)
		}
	}
}
