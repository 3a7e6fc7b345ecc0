package swift

import (
	"softwatt/internal/arch"
	"softwatt/internal/obs"
	"softwatt/internal/trace"
)

// Reference is the oracle for the lockstep equivalence harness: a
// functional core that follows the exact same batch protocol as Core —
// same batch boundaries, same cycle accounting, same stop-on-uncached
// rule — but executes every single instruction through arch.StepInto on
// a CPU whose code cache is off (the machine never enables it for this
// core), so blocks, their invalidation and the host translation caches
// are all checked against plain decoding. Driving a swift machine and a
// Reference machine with identical budgets therefore produces identical
// device timelines, so any architectural divergence is the fast path's
// fault and is caught at the exact instruction that introduced it.
type Reference struct {
	cpu       *arch.CPU
	col       *trace.Collector
	sync      arch.CycleSync
	scratch   arch.StepInfo
	committed uint64
}

// NewReference builds the exact-stepping batch core.
func NewReference(cpu *arch.CPU, col *trace.Collector, sync arch.CycleSync) *Reference {
	return &Reference{cpu: cpu, col: col, sync: sync}
}

// RunBatch single-steps the interpreter with Core's exact accounting and
// collector charge: WAIT idling consumes cycles without retiring,
// uncached accesses and halt end the batch.
func (r *Reference) RunBatch(start, budget uint64, _ func(*arch.StepInfo)) (ran, retired, skipped uint64) {
	cpu := r.cpu
	info := &r.scratch
	for ran < budget {
		if cpu.Halted {
			break
		}
		cycle := start + ran
		r.sync.SyncCycle(cycle)
		cpu.StepInto(cycle, info)
		ran++
		if !info.Waiting && !info.Halted {
			retired++
		}
		if info.MemUncached || info.Halted {
			break
		}
	}
	r.committed += retired
	r.col.AddCycles(ran)
	r.col.AddInst(retired)
	return ran, retired, 0
}

// Counters implements the machine Core interface.
func (r *Reference) Counters() obs.CoreCounters {
	return obs.CoreCounters{Committed: r.committed}
}
