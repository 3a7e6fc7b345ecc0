package softwatt

// Derived cells (DESIGN.md §17). The guest cannot see the disk's power
// mode, only when each request completes. So a run under the idle or a
// standby policy executes exactly like the conventional run of the same
// benchmark and options for as long as its disk completes every request
// on the same cycle. RunBatch groups its cells into classes that differ
// only in DiskPolicy, records the disk commands of a class's conventional
// run, and replays them for each other member under that member's policy.
// When every answer matches, the member's result is the conventional one
// with its configuration and disk figures replaced; otherwise the member
// simulates in full.

import (
	"softwatt/internal/core"
	"softwatt/internal/disk"
	"softwatt/internal/machine"
	"softwatt/internal/obs"
)

// reference is what a class's conventional run leaves its other members:
// the resolved machine configuration, the disk's command stream and the
// result.
type reference struct {
	cfg machine.Config
	rec *disk.Recording
	res *RunResult
}

// diskClasses returns, for each spec, the index of the conventional spec
// its class derives from: its own index for that reference, -1 for a cell
// outside any class. A class is the set of specs that differ only in
// DiskPolicy; one without a conventional member, or with no other member,
// has no reference.
func diskClasses(specs []RunSpec) []int {
	type class struct {
		benchmark string
		opt       Options
	}
	classOf := func(sp RunSpec) class {
		o := sp.Options
		o.DiskPolicy = ""
		return class{sp.Benchmark, o}
	}
	refs := map[class]int{}
	members := map[class]int{}
	for i, sp := range specs {
		c := classOf(sp)
		members[c]++
		if _, seen := refs[c]; !seen && (sp.Options.DiskPolicy == "" || sp.Options.DiskPolicy == "conventional") {
			refs[c] = i
		}
	}
	refOf := make([]int, len(specs))
	for i, sp := range specs {
		refOf[i] = -1
		if ref, ok := refs[classOf(sp)]; ok && members[classOf(sp)] > 1 {
			refOf[i] = ref
		}
	}
	return refOf
}

// derive returns the result a run of opt would produce, built from its
// class's reference, or nil when the disk replay shows the run would have
// executed differently. Its timeline is the reference's points with each
// point's disk energy from that replay. Each attempt is a "derive" span on
// track tid whose outcome argument says which it was.
func derive(ref *reference, opt Options, tid int64, label string) *RunResult {
	mc, err := opt.MachineConfig()
	if err != nil {
		return nil
	}
	sp := obs.StartSpan(tid, "derive "+label, "derive")
	defer sp.End()
	cfg := ref.cfg
	cfg.Disk.Policy, cfg.Disk.SpindownThresholdSec = mc.Disk.Policy, mc.Disk.SpindownThresholdSec
	n := core.TimelineWindows(opt.TimelineCycles, ref.cfg.WindowCycles)
	tl, energyJ, st, ok := core.Timeline(ref.res.Samples, n, disk.NewReplayer(cfg.Disk, ref.rec))
	if !ok {
		sp.Arg("outcome", "diverged")
		return nil
	}
	sp.Arg("outcome", "derived")
	obs.Batch().CellsDerived.Inc()
	r := *ref.res
	r.Config = core.ConfigEntries(cfg)
	r.DiskEnergyJ, r.DiskStats, r.Timeline = energyJ, st, tl
	return &r
}
