package mxs

// RunBatch lockstep coverage for the pipeline's rare control states:
// entering and leaving sleep (WAIT, then an interrupt wake) and halting
// must behave identically whether the core is ticked one cycle at a time
// or driven through RunBatch with arbitrary budgets. The scan-based
// refCore from refsched_test.go is the per-cycle oracle. Both drivers
// mirror the machine's contract that external events (IRQ assert, HALT)
// change only at batch boundaries: the batch driver clamps its randomized
// budgets to the injection cycles exactly as the machine run loop clamps
// budgets to its next device event.

import (
	"fmt"
	"math/rand"
	"testing"

	"softwatt/internal/arch"
	"softwatt/internal/isa"
	"softwatt/internal/trace"
)

// batchEvents is the external-event schedule a driver injects: assert the
// timer IRQ at irqAt, halt the CPU at haltAt (0 = never).
type batchEvents struct {
	irqAt  uint64
	haltAt uint64
}

func (ev *batchEvents) inject(cpu *arch.CPU, cyc uint64) {
	if ev.irqAt != 0 && cyc == ev.irqAt {
		cpu.SetIRQ(isa.IntTimer, true)
	}
	if ev.haltAt != 0 && cyc == ev.haltAt {
		cpu.Halt()
	}
}

// clamp bounds a batch budget so no injection cycle falls inside a batch.
func (ev *batchEvents) clamp(cyc, budget uint64) uint64 {
	for _, at := range [2]uint64{ev.irqAt, ev.haltAt} {
		if at > cyc && at-cyc < budget {
			budget = at - cyc
		}
	}
	return budget
}

// batchRecorder collects the commit stream, eliding the idle WAIT polls:
// a per-cycle loop polls the sleeping functional core every cycle while a
// batch elides the redundant polls, and the machine treats those Waiting
// commits as unobservable (no instruction is committed).
type batchRecorder struct {
	recs  []commitRec
	polls int
	irqs  int
	done  bool
}

// commit returns the recording callback. The commit cycle is read from the
// collector's running cycle count: both drivers charge a cycle only after
// its stages ran, so during any commit TotalCycles equals the cycle index —
// including commits that happen deep inside a batch.
func (r *batchRecorder) commit(col *trace.Collector) func(*arch.StepInfo) {
	return func(info *arch.StepInfo) {
		if r.done {
			return // past the terminating BREAK (a batch may overrun it)
		}
		if info.Waiting {
			r.polls++
			return
		}
		if info.Interrupt {
			r.irqs++
		}
		r.recs = append(r.recs, commitRec{col.TotalCycles(), info.PC, info.NextPC, info.TookException, uint8(info.ExcCode)})
		if info.TookException && info.ExcCode == isa.ExcBreak {
			r.done = true
		}
	}
}

// runBatched drives the event core through RunBatch with randomized
// budgets. The collector cycle charging happens inside RunBatch itself.
func runBatched(tb testing.TB, c *Core, cpu *arch.CPU, rng *rand.Rand, ev batchEvents, maxCycles uint64) (*batchRecorder, uint64) {
	tb.Helper()
	rec := &batchRecorder{}
	commit := rec.commit(c.col)
	var cyc uint64
	for !rec.done && !c.halted && cyc < maxCycles {
		ev.inject(cpu, cyc)
		budget := ev.clamp(cyc, uint64(1+rng.Intn(40)))
		ran, _, _ := c.RunBatch(cyc, budget, commit)
		if ran == 0 {
			break
		}
		cyc += ran
	}
	return rec, cyc
}

// runPerCycle drives the refCore one cycle at a time with the same event
// schedule, charging the collector per cycle as the machine loop would.
func runPerCycle(tb testing.TB, c *refCore, cpu *arch.CPU, ev batchEvents, maxCycles uint64) (*batchRecorder, uint64) {
	tb.Helper()
	rec := &batchRecorder{}
	commit := rec.commit(c.col)
	var cyc uint64
	for ; !rec.done && !c.halted && cyc < maxCycles; cyc++ {
		ev.inject(cpu, cyc)
		c.Tick(cyc, commit)
		c.col.AddCycle()
	}
	return rec, cyc
}

// sleepWakeProgram enables the timer interrupt, does a little work, and
// executes WAIT; the interrupt wake vectors to the handler, which ends the
// run with BREAK. The nops after WAIT are never reached.
const sleepWakeProgram = `
        .org 0x80000080
vec:    addiu v1, v1, 1
        sll  v1, v1, 1
        break

        .org 0x80020000
        li   t1, 0x8001        # Status: IM7 | IE
        mtc0 t1, $status
        li   t0, 5
w1:     addiu t0, t0, -1
        bnez t0, w1
        wait
        nop
        nop
        break
`

func compareStreams(t *testing.T, evRec, refRec *batchRecorder) {
	t.Helper()
	if len(evRec.recs) != len(refRec.recs) {
		t.Fatalf("commit count: batch=%d per-cycle=%d", len(evRec.recs), len(refRec.recs))
	}
	for i := range evRec.recs {
		if evRec.recs[i] != refRec.recs[i] {
			t.Fatalf("commit %d diverges: batch=%+v per-cycle=%+v", i, evRec.recs[i], refRec.recs[i])
		}
	}
}

// TestTickBatchSleepWake puts the core to sleep with WAIT inside a running
// batch and wakes it with a timer interrupt asserted at a batch boundary.
// The commit stream (modulo elided idle polls) must be identical to
// per-cycle ticking, cycle-exact, and the wake must actually happen
// through the sleep path on both sides (the vacuity checks).
func TestTickBatchSleepWake(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 4099))
			ev := batchEvents{irqAt: 500 + uint64(rng.Intn(300))}

			bus1, cpu1, col1, h1 := buildSys(t, sleepWakeProgram)
			core := New(cpu1, h1, col1, nil, bus1, DefaultConfig())
			evRec, evCyc := runBatched(t, core, cpu1, rng, ev, 100_000)

			bus2, cpu2, col2, h2 := buildSys(t, sleepWakeProgram)
			ref := newRefCore(cpu2, h2, col2, bus2, DefaultConfig())
			refRec, _ := runPerCycle(t, ref, cpu2, ev, 100_000)

			if !evRec.done || !refRec.done {
				t.Fatalf("run did not reach BREAK: batch done=%v per-cycle done=%v (cyc=%d)",
					evRec.done, refRec.done, evCyc)
			}
			if evRec.irqs != 1 || refRec.irqs != 1 {
				t.Fatalf("interrupt deliveries: batch=%d per-cycle=%d, want 1 each", evRec.irqs, refRec.irqs)
			}
			if evRec.polls == 0 || refRec.polls == 0 {
				t.Fatalf("no WAIT polls observed (batch=%d per-cycle=%d): sleep never entered",
					evRec.polls, refRec.polls)
			}
			// The batch loop elides redundant sleep polls; it must still have
			// slept for the same simulated interval, which the identical
			// commit cycles below enforce.
			compareStreams(t, evRec, refRec)
		})
	}
}

// TestTickBatchHalt halts the CPU at an externally chosen cycle while a
// randomized program is in full flight: the batch driver must stop on the
// same cycle, with the same commit stream and attribution totals, as the
// per-cycle oracle.
func TestTickBatchHalt(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed * 7919))
			src := randomProgram(rng, 400)
			ev := batchEvents{haltAt: 200 + uint64(rng.Intn(800))}

			bus1, cpu1, col1, h1 := buildSys(t, src)
			core := New(cpu1, h1, col1, nil, bus1, DefaultConfig())
			evRec, evCyc := runBatched(t, core, cpu1, rng, ev, 1_000_000)

			bus2, cpu2, col2, h2 := buildSys(t, src)
			ref := newRefCore(cpu2, h2, col2, bus2, DefaultConfig())
			refRec, refCyc := runPerCycle(t, ref, cpu2, ev, 1_000_000)

			if !core.halted || !ref.halted {
				t.Fatalf("cores did not halt: batch=%v per-cycle=%v", core.halted, ref.halted)
			}
			if evCyc != refCyc {
				t.Errorf("halt cycle: batch=%d per-cycle=%d", evCyc, refCyc)
			}
			compareStreams(t, evRec, refRec)
			if got, want := col1.ModeTotals(), col2.ModeTotals(); got != want {
				t.Errorf("unit totals diverge:\nbatch    =%+v\nper-cycle=%+v", got, want)
			}
			if core.Committed != ref.Committed {
				t.Errorf("committed: batch=%d per-cycle=%d", core.Committed, ref.Committed)
			}
		})
	}
}
