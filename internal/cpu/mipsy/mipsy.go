// Package mipsy implements the simple in-order CPU timing model, the
// counterpart of SimOS's Mipsy: a single-issue pipeline with blocking
// caches. It drives the functional core one instruction at a time and
// charges stall cycles for cache misses, multi-cycle operations, taken
// branches and exceptions. The paper uses Mipsy to obtain memory-system
// behaviour (Figure 3) and as the fast first pass before MXS runs.
package mipsy

import (
	"softwatt/internal/arch"
	"softwatt/internal/isa"
	"softwatt/internal/mem"
	"softwatt/internal/obs"
	"softwatt/internal/trace"
)

// Pipeline refill costs for traps. An R4000-class exception drains the
// pipeline, switches mode and refetches from the vector; ERET drains again
// on the way out. These costs, together with the handler body, put one utlb
// refill at ~20-25 cycles, matching the per-invocation weight that lets the
// utlb service dominate kernel time as in the paper's Table 4.
const (
	excFlushCycles  = 8
	eretDrainCycles = 5
)

// Core is the in-order timing model.
type Core struct {
	cpu  *arch.CPU
	h    *mem.Hierarchy
	col  *trace.Collector
	sync arch.CycleSync // exact-time hook for batched runs (nil in direct harnesses)

	busy int // stall cycles remaining before the next instruction

	// scratch holds the current instruction's StepInfo. Kept on the Core so
	// passing its address to the commit callback does not force a heap
	// allocation per instruction (a stack-local would escape).
	scratch arch.StepInfo

	// Committed counts all architecturally executed instructions.
	Committed uint64
}

// New creates a Mipsy core over the given functional CPU, cache hierarchy
// and collector. sync receives the exact cycle before every step of a
// batch; direct harnesses without MMIO may pass nil.
func New(cpu *arch.CPU, h *mem.Hierarchy, col *trace.Collector, sync arch.CycleSync) *Core {
	return &Core{cpu: cpu, h: h, col: col, sync: sync}
}

// CPU returns the underlying functional core.
func (c *Core) CPU() *arch.CPU { return c.cpu }

// Counters implements the machine's telemetry hook. Mipsy has no branch
// predictor or speculative pipeline, so only Committed moves.
func (c *Core) Counters() obs.CoreCounters {
	return obs.CoreCounters{Committed: c.Committed}
}

// Tick advances the pipeline by one cycle, invoking commit when an
// instruction completes architecturally this cycle. It is the per-cycle
// reference RunBatch is checked against (the machine's DisableSkip loop).
//
// All structure-access counts of one instruction accumulate into a local
// UnitCounts and flush with a single Collector.AddUnits call just before
// commit. The attribution context cannot change mid-instruction (commit is
// what moves it), so the batch lands in exactly the buckets the individual
// AddUnit calls used to.
func (c *Core) Tick(cycle uint64, commit func(*arch.StepInfo)) {
	if c.busy > 0 {
		c.busy--
		return
	}
	c.busy = c.step(cycle, commit) - 1
}

// RunBatch runs up to budget cycles from cycle start inside the core,
// charging each instruction's full cost with one AddCycles call instead of
// one machine round-trip per cycle, and returns the cycles consumed, the
// instructions retired and the WAIT cycles elided. Three invariants keep
// the result bit-identical to per-cycle ticking: the budget is clamped by
// the machine to the next device/timer/telemetry event, so nothing
// external can fire mid-batch; the batch ends after any uncached access,
// whose MMIO side effects may re-arm those events; and a WAIT poll is pure
// and idempotent (no architectural decay, COUNT rewritten by the next real
// step), so once the core reports Waiting the remaining budget is charged
// without re-polling.
func (c *Core) RunBatch(start, budget uint64, commit func(*arch.StepInfo)) (ran, retired, skipped uint64) {
	end := start + budget
	cyc := start
	committed := c.Committed
	if c.busy > 0 {
		// Finish the stall carried over from the previous batch.
		n := uint64(c.busy)
		if n > budget {
			n = budget
		}
		c.busy -= int(n)
		c.col.AddCycles(n)
		cyc += n
	}
	for cyc < end {
		if c.sync != nil {
			c.sync.SyncCycle(cyc)
		}
		cost := uint64(c.step(cyc, commit))
		info := &c.scratch
		if info.Waiting {
			skipped = end - cyc - 1
			c.col.AddCycles(end - cyc)
			cyc = end
			break
		}
		if info.Mem != arch.MemNone && info.MemUncached {
			// The MMIO side effects may have re-armed device events due
			// within this instruction's stall, and a halting store must not
			// charge its residual stall at all (the per-cycle loop exits at
			// the halt with busy unconsumed) — so charge only the executed
			// cycle, park the stall in busy, and end the batch.
			c.busy = int(cost) - 1
			c.col.AddCycle()
			cyc++
			break
		}
		if rem := end - cyc; cost > rem {
			c.busy = int(cost - rem)
			cost = rem
		}
		c.col.AddCycles(cost)
		cyc += cost
		if info.Halted {
			break
		}
	}
	return cyc - start, c.Committed - committed, skipped
}

// step executes one instruction starting at cycle and returns its total
// cost in cycles (>= 1). Shared by Tick (which spreads the cost over busy
// cycles) and RunBatch (which charges it in one AddCycles call).
func (c *Core) step(cycle uint64, commit func(*arch.StepInfo)) int {
	c.cpu.StepInto(cycle, &c.scratch)
	info := &c.scratch
	if info.Halted {
		commit(info)
		return 1
	}
	if info.Waiting {
		// WAIT state: the core is clock-gated; no fetch, no activity.
		commit(info)
		return 1
	}
	c.Committed++
	c.col.AddInst(1)
	cost := 1
	var u trace.UnitCounts

	// Instruction fetch (interrupt delivery and fetch faults read nothing).
	u[trace.UnitTLB] += uint64(info.TLBLookups)
	if info.Fetched {
		lat, acc := c.h.IFetch(info.PhysPC)
		countMemInto(&u, acc)
		cost += lat - 1
	}

	if info.TookException {
		// The faulting instruction did not execute; charge the pipeline
		// drain and the refetch from the vector (R4000-like trap cost).
		c.col.AddUnits(&u)
		commit(info)
		return cost + excFlushCycles
	}

	in := info.Inst

	// Dispatch metadata comes with the block op the step executed: the
	// dependency counts, class and latency in one load (equivalent to the
	// Uses/Defs/Info calls it replaces).
	mt := c.cpu.StepMeta(in)

	// Register file traffic.
	u[trace.UnitRegRead] += uint64(mt.NUses)
	if n := uint64(mt.NDefs); n > 0 {
		u[trace.UnitRegWrite] += n
		u[trace.UnitResultBus] += n
	}

	// Execution unit.
	switch mt.Class {
	case isa.ClassALU, isa.ClassShift, isa.ClassBranch, isa.ClassJump:
		u[trace.UnitALU]++
	case isa.ClassMul, isa.ClassDiv:
		u[trace.UnitMul]++
		cost += int(mt.Lat) - 1
	case isa.ClassFP, isa.ClassFPDiv:
		u[trace.UnitFPU]++
		cost += int(mt.Lat) - 1
	case isa.ClassLoad, isa.ClassStore:
		u[trace.UnitALU]++ // address generation
	}

	// Data memory.
	if info.Mem != arch.MemNone {
		if info.MemUncached {
			ulat, _ := c.h.Uncached()
			cost += ulat
		} else {
			dlat, dacc := c.h.Data(info.MemPaddr, info.Mem == arch.MemStore)
			countMemInto(&u, dacc)
			cost += dlat - 1
		}
	}

	// Cache maintenance.
	if info.CacheOp && info.CacheMapped {
		flat, facc := c.h.FlushLine(info.CachePaddr)
		countMemInto(&u, facc)
		cost += flat - 1
	}

	// Control flow: a taken branch or jump redirects the single-issue
	// fetch stream, costing one bubble; ERET additionally drains the
	// pipeline before the mode switch takes effect.
	if info.BranchTaken || mt.Class == isa.ClassJump {
		cost++
	}
	if in.Op == isa.OpERET {
		cost += eretDrainCycles
	}

	c.col.AddUnits(&u)
	commit(info)
	return cost
}

// countMemInto folds one memory operation's structure accesses into the
// tick-local count vector (adding zero is free; no branches needed).
func countMemInto(u *trace.UnitCounts, acc mem.Accesses) {
	u[trace.UnitL1I] += uint64(acc.L1I)
	u[trace.UnitL1D] += uint64(acc.L1D)
	u[trace.UnitL2] += uint64(acc.L2)
	u[trace.UnitMem] += uint64(acc.Mem)
}
