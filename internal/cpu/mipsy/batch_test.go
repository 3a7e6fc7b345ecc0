package mipsy

// Batch lockstep: the core's batch call must be indistinguishable from
// per-cycle Tick plus one collector cycle per tick, the machine's
// DisableSkip oracle. Two identical systems run the same program under the
// same external-event schedule; the batch side gets randomized budgets
// clamped to the next event, exactly as the machine clamps them to its next
// device event. The commit streams (cycle-exact, WAIT polls elided), the
// device-register traffic, the collector totals, the carried stall and the
// architectural state must all match.
//
// The device window mirrors the machine's MMIO contract: a load reads the
// current device time (so a stale SyncCycle shows up in a register), a
// store is logged with that time, one register acknowledges the timer
// interrupt and one halts the CPU.

import (
	"fmt"
	"math/rand"
	"testing"

	"softwatt/internal/arch"
	"softwatt/internal/isa"
	"softwatt/internal/isa/isatest"
	"softwatt/internal/mem"
	"softwatt/internal/trace"
)

const (
	lsRAMBytes = 4 << 20
	lsCodeLen  = 0x10000  // physical code image; the vectors sit at its base
	lsStart    = 0x1000   // physical address where execution starts
	lsDataBase = 0x10000  // physical data window for cached loads and stores
	lsDevBase  = 0x3F0000 // physical device window (reached through kseg1)
	lsDevHalt  = lsDevBase + 0
	lsDevAck   = lsDevBase + 4
)

// lsVectors acknowledges the timer, then resumes at the next instruction
// when the faulting PC lies in the code image (else at the image start),
// in kernel mode, so random code keeps running and faulting.
const lsVectors = `
        .org 0x80000000
        j    handler
        .org 0x80000080
handler:
        lui  k1, 0xA03F
        sw   zero, 4(k1)
        mfc0 k0, $epc
        addiu k0, k0, 4
        ori  k0, k0, 3
        xori k0, k0, 3
        srl  k1, k0, 16
        xori k1, k1, 0x8000
        beq  k1, zero, resume
        li   k0, 0x80001000
resume:
        mtc0 k0, $epc
        mfc0 k1, $status
        ori  k1, k1, 0x10
        xori k1, k1, 0x10
        mtc0 k1, $status
        eret
`

// lsScenarios are the hand-written programs for the states a batch can
// get wrong; an empty src runs an isatest random image instead.
var lsScenarios = []struct {
	name      string
	src       string
	maxBudget int
	timers    bool // assert the timer line every few hundred cycles
	haltAt    bool // halt the CPU from outside at a random cycle
}{
	{"random image", "", 64, true, false},
	{"wait then timer wake", `
loop:   li   t0, 20
spin:   addiu t0, t0, -1
        bnez t0, spin
        wait
        addiu s0, s0, 1
        b    loop
`, 400, true, false},
	{"halt inside a stall", `
        li   t1, 0x80100000
loop:   lw   t2, 0(t1)
        addiu t1, t1, 4096
        div  t3, t2, t1
        b    loop
`, 64, false, true},
	{"uncached store mid-batch", `
        lui  t5, 0xA03F
        li   t0, 200
loop:   lw   t1, 8(t5)
        addu t2, t2, t1
        sw   t2, 12(t5)
        li   t3, 0x80100000
        lw   t4, 0(t3)
        addiu t0, t0, -1
        bnez t0, loop
        div  t6, t2, t0
        sw   t6, 0(t5)
`, 300, false, false},
	{"stall carried across batches", `
        li   t1, 0x80100000
loop:   lw   t2, 0(t1)
        addiu t1, t1, 8192
        mul  t3, t2, t2
        div  t4, t3, t1
        b    loop
`, 3, true, false},
}

// lsBus is one side's physical memory plus the device window.
type lsBus struct {
	ram    *mem.RAM
	cpu    *arch.CPU
	now    uint64 // device time: SyncCycle inside a batch, the tick driver per cycle
	halted bool
	writes []lsWrite
}

type lsWrite struct {
	cycle uint64
	pa    uint32
	v     uint64
}

func (b *lsBus) SyncCycle(cycle uint64) { b.now = cycle }

func (b *lsBus) ReadPhys(pa uint32, size int) uint64 {
	if pa >= lsDevBase {
		return b.now
	}
	return b.ram.Read(pa, size)
}

func (b *lsBus) WritePhys(pa uint32, size int, v uint64) {
	if pa < lsDevBase {
		b.ram.Write(pa, size, v)
		return
	}
	b.writes = append(b.writes, lsWrite{b.now, pa, v})
	switch pa {
	case lsDevHalt:
		b.halted = true
		b.cpu.Halt()
	case lsDevAck:
		b.cpu.SetIRQ(isa.IntTimer, false)
	}
}

// lsCommit is one committed instruction as the machine would attribute
// it, stamped with the collector's cycle count at commit time.
type lsCommit struct {
	cycle  uint64
	pc     uint32
	nextPC uint32
	exc    bool
	code   uint8
	halted bool
}

// lsSide is one of the two systems of a lockstep pair.
type lsSide struct {
	c       *Core
	cpu     *arch.CPU
	col     *trace.Collector
	bus     *lsBus
	commits []lsCommit
	polls   uint64 // WAIT polls (elided from commits: a batch skips them)
	sawHalt bool
	carried int // batches that began inside a stall carried over
}

func lsSetup(t testing.TB, code []byte, seed int64) *lsSide {
	r := mem.NewRAM(lsRAMBytes)
	t.Cleanup(r.Release)
	r.LoadSegment(0, code)
	bus := &lsBus{ram: r}
	cpu := arch.New(bus)
	cpu.EnableBlocks(r, lsDevBase)
	bus.cpu = cpu
	rng := rand.New(rand.NewSource(seed * 977))
	for reg := 1; reg < 32; reg++ {
		switch rng.Intn(6) {
		case 0, 1, 2: // cached data window
			cpu.GPR[reg] = isa.KSEG0Base + lsDataBase + uint32(rng.Intn(0x8000))
		case 3: // uncached RAM
			cpu.GPR[reg] = isa.KSEG1Base + lsDataBase + uint32(rng.Intn(0x8000))
		case 4: // device window
			cpu.GPR[reg] = isa.KSEG1Base + lsDevBase + 0x2000
		default:
			cpu.GPR[reg] = rng.Uint32()
		}
	}
	cpu.COP0[isa.C0Status] = isa.StatusIE | isa.StatusIM0<<isa.IntTimer
	cpu.PC = isa.KSEG0Base + lsStart
	col := trace.NewCollector(5000)
	c := New(cpu, mem.NewHierarchy(mem.DefaultHierConfig()), col, bus)
	return &lsSide{c: c, cpu: cpu, col: col, bus: bus}
}

func (s *lsSide) commit(info *arch.StepInfo) {
	if info.Waiting {
		s.polls++
		return
	}
	s.sawHalt = s.sawHalt || info.Halted
	s.commits = append(s.commits, lsCommit{s.col.TotalCycles(), info.PC, info.NextPC,
		info.TookException, uint8(info.ExcCode), info.Halted})
}

func (s *lsSide) done() bool { return s.bus.halted || s.sawHalt }

// lsEvent is an external event: assert the timer line, or halt the CPU.
type lsEvent struct {
	at   uint64
	halt bool
}

func (s *lsSide) apply(ev lsEvent) {
	if ev.halt {
		s.cpu.Halt()
	} else {
		s.cpu.SetIRQ(isa.IntTimer, true)
	}
}

// runTick is the oracle: Tick plus one collector cycle per cycle, device
// time published before every tick. It returns the busy count at the
// halt event (0 when there was none).
func (s *lsSide) runTick(evs []lsEvent, limit uint64) (cyc uint64, busyAtHalt int) {
	next := 0
	for ; cyc < limit && !s.done(); cyc++ {
		for ; next < len(evs) && evs[next].at == cyc; next++ {
			if evs[next].halt {
				busyAtHalt = s.c.busy
			}
			s.apply(evs[next])
		}
		s.bus.now = cyc
		s.c.Tick(cyc, s.commit)
		s.col.AddCycle()
	}
	return cyc, busyAtHalt
}

// runBatch drives the batch call with budgets drawn from 1..maxBudget and
// clamped to the next event and the limit. It returns the final cycle and
// the instructions retired and cycles elided the batches reported.
func (s *lsSide) runBatch(evs []lsEvent, limit uint64, rng *rand.Rand, maxBudget int) (cyc, retired, skipped uint64) {
	next := 0
	for cyc < limit && !s.done() {
		for ; next < len(evs) && evs[next].at == cyc; next++ {
			s.apply(evs[next])
		}
		budget := uint64(1 + rng.Intn(maxBudget))
		if budget > limit-cyc {
			budget = limit - cyc
		}
		if next < len(evs) && evs[next].at-cyc < budget {
			budget = evs[next].at - cyc
		}
		if s.c.busy > 0 {
			s.carried++
		}
		ran, r, sk := s.c.RunBatch(cyc, budget, s.commit)
		retired += r
		skipped += sk
		if ran == 0 {
			break
		}
		cyc += ran
	}
	return cyc, retired, skipped
}

// lsEvents draws the external-event schedule of one run.
func lsEvents(rng *rand.Rand, limit uint64, timers, halt bool) []lsEvent {
	var evs []lsEvent
	haltAt := limit
	if halt {
		haltAt = 200 + uint64(rng.Intn(int(limit/2)))
	}
	for at := uint64(0); timers; {
		at += 150 + uint64(rng.Intn(900))
		if at >= haltAt {
			break
		}
		evs = append(evs, lsEvent{at: at})
	}
	if halt {
		evs = append(evs, lsEvent{at: haltAt, halt: true})
	}
	return evs
}

// lsImage builds the code image: a random program (always, so a scenario
// that runs off its end keeps going), the vectors, and the scenario.
func lsImage(tb testing.TB, seed int64, src string) []byte {
	tb.Helper()
	code := isatest.Program(rand.New(rand.NewSource(seed)), isa.KSEG0Base, lsCodeLen)
	vectors, err := isa.Assemble(lsVectors)
	if err != nil {
		tb.Fatal(err)
	}
	for _, seg := range vectors.Segments {
		copy(code[seg.Addr-isa.KSEG0Base:], seg.Data)
	}
	if src != "" {
		p, err := isa.Assemble(fmt.Sprintf(".org %#x\n%s", uint32(isa.KSEG0Base+lsStart), src))
		if err != nil {
			tb.Fatal(err)
		}
		copy(code[lsStart:], p.Segments[0].Data)
	}
	return code
}

// lsResult is what one lockstep run exposes to the caller's vacuity
// checks.
type lsResult struct {
	batch      *lsSide
	busyAtHalt int
	skipped    uint64
}

// lockstep runs one program on both sides and fails on any divergence.
func lockstep(t *testing.T, seed int64, src string, maxBudget int, timers, halt bool) lsResult {
	t.Helper()
	const limit = 20_000
	code := lsImage(t, seed, src)
	rng := rand.New(rand.NewSource(seed * 4099))
	evs := lsEvents(rng, limit, timers, halt)

	tick, batch := lsSetup(t, code, seed), lsSetup(t, code, seed)
	tickCyc, busyAtHalt := tick.runTick(evs, limit)
	batchCyc, retired, skipped := batch.runBatch(evs, limit, rng, maxBudget)

	if batchCyc != tickCyc {
		t.Fatalf("final cycle: batch=%d tick=%d", batchCyc, tickCyc)
	}
	if len(batch.commits) != len(tick.commits) {
		t.Fatalf("commit count: batch=%d tick=%d", len(batch.commits), len(tick.commits))
	}
	for i := range batch.commits {
		if batch.commits[i] != tick.commits[i] {
			t.Fatalf("commit %d diverges: batch=%+v tick=%+v", i, batch.commits[i], tick.commits[i])
		}
	}
	if batch.polls+skipped != tick.polls {
		t.Fatalf("WAIT polls: batch=%d + %d elided, tick=%d", batch.polls, skipped, tick.polls)
	}
	if len(batch.bus.writes) != len(tick.bus.writes) {
		t.Fatalf("device writes: batch=%d tick=%d", len(batch.bus.writes), len(tick.bus.writes))
	}
	for i := range batch.bus.writes {
		if batch.bus.writes[i] != tick.bus.writes[i] {
			t.Fatalf("device write %d diverges: batch=%+v tick=%+v", i, batch.bus.writes[i], tick.bus.writes[i])
		}
	}
	if batch.c.busy != tick.c.busy {
		t.Fatalf("carried stall: batch=%d tick=%d", batch.c.busy, tick.c.busy)
	}
	if bc, tc := batch.col.TotalCycles(), tick.col.TotalCycles(); bc != tc || bc != batchCyc {
		t.Fatalf("collector cycles: batch=%d tick=%d, run %d", bc, tc, batchCyc)
	}
	if bi, ti := batch.col.TotalInsts(), tick.col.TotalInsts(); bi != ti {
		t.Fatalf("collector instructions: batch=%d tick=%d", bi, ti)
	}
	if bm, tm := batch.col.ModeTotals(), tick.col.ModeTotals(); bm != tm {
		t.Fatalf("unit totals diverge:\nbatch=%+v\ntick =%+v", bm, tm)
	}
	if batch.c.Committed != tick.c.Committed {
		t.Fatalf("committed: batch=%d tick=%d", batch.c.Committed, tick.c.Committed)
	}
	// The machine counts committed instructions from the batches'
	// retired results and, per cycle, from the commit stream.
	var streamed uint64
	for _, c := range tick.commits {
		if !c.halted {
			streamed++
		}
	}
	if retired != streamed {
		t.Fatalf("batches retired %d instructions, the per-cycle commit stream %d", retired, streamed)
	}
	// COUNT is excluded: an elided WAIT poll does not rewrite it, and the
	// next real step does before anything can read it.
	bs, ts := batch.cpu.Snapshot(), tick.cpu.Snapshot()
	bs.COP0[isa.C0Count], ts.COP0[isa.C0Count] = 0, 0
	if bs != ts {
		t.Fatalf("architectural state diverged\nbatch: %s\ntick:  %s", batch.cpu, tick.cpu)
	}
	if len(tick.commits) == 0 {
		t.Fatal("vacuous run: nothing committed")
	}
	t.Logf("seed %d: %d cycles, %d commits, %d device writes, %d WAIT cycles elided, %d batches carried a stall",
		seed, batchCyc, len(batch.commits), len(batch.bus.writes), skipped, batch.carried)
	return lsResult{batch, busyAtHalt, skipped}
}

func TestBatchMatchesTick(t *testing.T) {
	for _, sc := range lsScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var slept, halted, stalledHalt, uncached, carried bool
			for seed := int64(1); seed <= 4; seed++ {
				r := lockstep(t, seed, sc.src, sc.maxBudget, sc.timers, sc.haltAt)
				slept = slept || r.skipped > 0
				halted = halted || r.batch.done()
				stalledHalt = stalledHalt || r.busyAtHalt > 0
				uncached = uncached || len(r.batch.bus.writes) > 0
				carried = carried || r.batch.carried > 0
			}
			// Each scenario must reach the state it is named for.
			var vacuous bool
			switch sc.name {
			case "wait then timer wake":
				vacuous = !slept
			case "halt inside a stall":
				vacuous = !halted || !stalledHalt
			case "uncached store mid-batch":
				vacuous = !uncached || !halted
			case "stall carried across batches":
				vacuous = !carried
			}
			if vacuous {
				t.Fatalf("scenario never reached its state: slept=%v halted=%v stalledHalt=%v uncached=%v carried=%v",
					slept, halted, stalledHalt, uncached, carried)
			}
		})
	}
}

// FuzzBatchVsTick runs random images under random budgets and timer
// schedules: seed picks the program, registers and events, maxBudget the
// batch budget range.
func FuzzBatchVsTick(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed, uint8(1))
		f.Add(seed, uint8(40))
		f.Add(seed, uint8(255))
	}
	f.Fuzz(func(t *testing.T, seed int64, maxBudget uint8) {
		lockstep(t, seed, "", 1+int(maxBudget), seed&1 == 0, seed&2 == 0)
	})
}
