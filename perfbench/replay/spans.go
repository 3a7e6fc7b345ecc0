package main

import (
	"strconv"
	"time"

	"softwatt/internal/obs"
)

// layers are the per-layer times the spans fold into. They never overlap,
// so their sum plus other_s is the traced wall time.
var layers = []string{
	"workload.build", "machine.new",
	"mipsy.run", "mxs.run", "mxs1.run", "swift.run",
	"machine.checkpoint", "machine.restore", "machine.recycle",
	"ffstore.save", "ffstore.load",
	"core.collect", "core.report",
	"trace.load", "runlog.write",
	"runner.overhead",
}

// facadeLayer names the layer of each span category the program records
// (softwatt.go's run pipeline); the replay's own spans are named by layer.
var facadeLayer = map[string]string{
	"build":    "workload.build",
	"boot":     "machine.new",
	"estimate": "core.collect",
	"save":     "runlog.write",
}

// fold turns the trace into per-layer seconds, the cores' simulated
// Mcycles per second, and other_s.
//
// A "batch" span is one facade batch call (or the replay's window pool);
// the time in it that no leaf span covers is the job engine's, charged to
// runner.overhead. In a cached batch ("cached") the time before its first
// cell is the run-log lookup, charged to trace.load. "cell" spans only
// group a cell's pipeline spans and are not counted themselves.
func fold(events []obs.TraceEvent, wall time.Duration) map[string]float64 {
	us := map[string]int64{}
	cycles := map[string]uint64{}
	var batches []obs.TraceEvent
	var leaves []obs.TraceEvent
	for _, ev := range events {
		if ev.Ph != "X" {
			continue
		}
		switch ev.Cat {
		case "batch":
			batches = append(batches, ev)
			continue
		case "cell":
			continue
		case "simulate":
			core, _ := ev.Args["core"].(string)
			c, _ := ev.Args["cycles"].(string)
			n, _ := strconv.ParseUint(c, 10, 64)
			cycles[core] += n
			ev.Cat = core + ".run"
		default:
			if l, ok := facadeLayer[ev.Cat]; ok {
				ev.Cat = l
			}
		}
		us[ev.Cat] += ev.Dur
		leaves = append(leaves, ev)
	}
	for _, b := range batches {
		end := b.TS + b.Dur
		lookup := b.Dur
		covered := int64(0)
		for _, ev := range events {
			if ev.Ph != "X" || ev.TS < b.TS || ev.TS >= end {
				continue
			}
			if ev.Cat == "cell" && ev.TS-b.TS < lookup {
				lookup = ev.TS - b.TS
			}
		}
		for _, ev := range leaves {
			if ev.TS >= b.TS && ev.TS < end {
				covered += ev.Dur
			}
		}
		if b.Name != "cached" {
			lookup = 0
		}
		us["trace.load"] += lookup
		us["runner.overhead"] += b.Dur - lookup - covered
	}

	m := map[string]float64{"traced_wall_s": wall.Seconds()}
	var sum int64
	for _, l := range layers {
		m[l+"_s"] = float64(us[l]) / 1e6
		sum += us[l]
	}
	m["other_s"] = wall.Seconds() - float64(sum)/1e6
	for _, core := range []string{"mipsy", "mxs", "swift"} {
		if d := us[core+".run"]; d > 0 {
			m[core+".mcycles_per_s"] = float64(cycles[core]) / float64(d)
		}
	}
	return m
}
