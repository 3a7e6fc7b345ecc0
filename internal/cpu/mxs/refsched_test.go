package mxs

// Reference-scheduler equivalence harness. refCore below is the pre-event-
// driven MXS scheduler, kept verbatim as a test-only oracle: every cycle it
// scans the whole window in writeback/issue/commit instead of consuming
// wakeup events. The event-driven Core (mxs.go) claims bit-identical timing
// and attribution; the lockstep test here drives both schedulers over
// randomized programs and configurations and requires identical commit
// streams, cycle-exact, plus identical counters and unit-activity totals.
// BenchmarkFlushHeavy measures both on the same mispredict-heavy workload
// in one process, which makes the speedup number immune to host-frequency
// drift between runs.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"softwatt/internal/arch"
	"softwatt/internal/isa"
	"softwatt/internal/mem"
	"softwatt/internal/trace"
)

// ---------------------------------------------------------------------------
// refCore: the original O(window)-per-cycle scheduler (test-only oracle).
// ---------------------------------------------------------------------------

type refEnt struct {
	real bool // architecturally stepped (true path)
	info arch.StepInfo
	inst isa.Inst
	pc   uint32

	state      entState
	seq        uint64 // global dispatch sequence number
	issueAt    uint64 // earliest issue cycle (frontend depth + I-miss delay)
	doneAt     uint64
	predNext   uint32
	isMem      bool
	isStore    bool
	redirected bool // fetch was already redirected for this entry

	uses   [4]uint8
	srcSeq [4]uint64 // producing entry's seq per source (0 = architecturally ready)
	nUses  int
	nDefs  int
	defs   [2]uint8
}

// refCore is the scan-based MXS timing model, structurally identical to the
// event-driven Core but with per-cycle full-window scans.
type refCore struct {
	cfg Config
	cpu *arch.CPU
	h   *mem.Hierarchy
	col *trace.Collector
	bus arch.Bus

	rob   []refEnt
	head  int
	count int

	fetchPC       uint32
	wrongPath     bool
	fetchStalled  bool
	fetchResumeAt uint64
	sleep         bool
	halted        bool

	lsqCount       int
	serialInFlight int

	regProducer [isa.NumDepRegs]uint64
	nextSeq     uint64
	headSeq     uint64

	bht    []uint8
	btb    []btbEnt
	ras    []uint32
	rasTop int

	divBusyUntil   uint64
	fpDivBusyUntil uint64

	Committed   uint64
	Bogus       uint64
	Mispredicts uint64
	Flushes     uint64

	pend      trace.UnitCounts
	pendDirty bool

	scratch arch.StepInfo
}

func newRefCore(cpu *arch.CPU, h *mem.Hierarchy, col *trace.Collector, bus arch.Bus, cfg Config) *refCore {
	c := &refCore{
		cfg: cfg,
		cpu: cpu,
		h:   h,
		col: col,
		bus: bus,
		rob: make([]refEnt, cfg.WindowSize),
		bht: make([]uint8, cfg.BHTSize),
		btb: make([]btbEnt, cfg.BTBSize),
		ras: make([]uint32, cfg.RASSize),
	}
	for i := range c.bht {
		c.bht[i] = 1 // weakly not-taken
	}
	c.fetchPC = cpu.PC
	c.nextSeq = 1
	c.headSeq = 1
	return c
}

func (c *refCore) at(i int) *refEnt { return &c.rob[(c.head+i)%c.cfg.WindowSize] }

func (c *refCore) Tick(cycle uint64, commit func(*arch.StepInfo)) {
	if c.halted {
		return
	}
	c.writeback(cycle)
	c.commitStage(cycle, commit)
	c.issue(cycle)
	c.fetch(cycle, commit)
	c.flushUnits()
}

func (c *refCore) addUnit(u trace.Unit, n uint64) {
	c.pend[u] += n
	c.pendDirty = true
}

func (c *refCore) flushUnits() {
	if c.pendDirty {
		c.col.AddUnits(&c.pend)
		c.pend = trace.UnitCounts{}
		c.pendDirty = false
	}
}

func (c *refCore) writeback(cycle uint64) {
	for i := 0; i < c.count; i++ {
		e := c.at(i)
		if e.state != stIssued || e.doneAt > cycle {
			continue
		}
		e.state = stDone
		if e.real && e.nDefs > 0 {
			c.addUnit(trace.UnitRegWrite, uint64(e.nDefs))
			c.addUnit(trace.UnitResultBus, uint64(e.nDefs))
		}
		if e.real && !e.info.TookException {
			cl := e.inst.Info().Class
			if (cl == isa.ClassBranch || cl == isa.ClassJump) && e.predNext != e.info.NextPC {
				c.Mispredicts++
				e.redirected = true
				c.squashAfter(i, cycle)
				c.redirect(e.info.NextPC)
				return // indices past i are gone
			}
		}
	}
}

func (c *refCore) commitStage(cycle uint64, commit func(*arch.StepInfo)) {
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		e := c.at(0)
		if e.state != stDone {
			return
		}
		if !e.real {
			panic("mxs refcore: wrong-path instruction at commit")
		}
		if e.isStore && e.info.Mem == arch.MemStore && !e.info.MemUncached {
			_, acc := c.h.Data(e.info.MemPaddr, true)
			c.countMem(acc)
			c.addUnit(trace.UnitLSQ, 1)
		}
		if e.inst.IsBranch() {
			c.addUnit(trace.UnitBpred, 1)
			c.trainBranch(e.pc, e.info.BranchTaken)
		} else if e.inst.Op == isa.OpJR || e.inst.Op == isa.OpJALR {
			c.trainBTB(e.pc, e.info.NextPC)
		}
		if !e.info.Waiting && !e.info.Halted {
			c.Committed++
			c.col.AddInst(1)
		}
		c.flushUnits() // commit may move the attribution context
		commit(&e.info)
		if refSerial(e) {
			c.serialInFlight--
		}
		needRedirect := e.predNext != e.info.NextPC && !e.redirected
		isMem := e.isMem
		c.head = (c.head + 1) % c.cfg.WindowSize
		c.count--
		c.headSeq++
		if isMem {
			c.lsqCount--
		}
		if needRedirect {
			c.Flushes++
			c.squashAfter(-1, cycle)
			c.redirect(e.info.NextPC)
			if e.info.TookException {
				c.fetchResumeAt = cycle + trapEnterPenalty
			} else if e.inst.Op == isa.OpERET {
				c.fetchResumeAt = cycle + trapReturnPenalty
			}
			return
		}
	}
}

func (c *refCore) issue(cycle uint64) {
	intFree, fpFree := c.cfg.IntUnits, c.cfg.FPUnits
	issued := 0
	for i := 0; i < c.count && issued < c.cfg.IssueWidth; i++ {
		e := c.at(i)
		if e.state != stWaiting || e.issueAt > cycle {
			continue
		}
		inf := e.inst.Info()
		serial := refSerial(e)
		if serial {
			if i != 0 || issued != 0 {
				break
			}
		}
		ready := true
		for u := 0; u < e.nUses; u++ {
			s := e.srcSeq[u]
			if s < c.headSeq {
				continue // producer committed (or none): value architectural
			}
			p := c.at(int(s - c.headSeq))
			if p.state != stDone || p.doneAt > cycle {
				ready = false
				break
			}
		}
		if !ready {
			continue
		}
		lat := inf.Latency
		switch inf.Class {
		case isa.ClassFP:
			if fpFree == 0 {
				continue
			}
			fpFree--
			c.countFU(e, trace.UnitFPU)
		case isa.ClassFPDiv:
			if fpFree == 0 || c.fpDivBusyUntil > cycle {
				continue
			}
			fpFree--
			c.fpDivBusyUntil = cycle + uint64(lat)
			c.countFU(e, trace.UnitFPU)
		case isa.ClassDiv:
			if intFree == 0 || c.divBusyUntil > cycle {
				continue
			}
			intFree--
			c.divBusyUntil = cycle + uint64(lat)
			c.countFU(e, trace.UnitMul)
		case isa.ClassMul:
			if intFree == 0 {
				continue
			}
			intFree--
			c.countFU(e, trace.UnitMul)
		default:
			if intFree == 0 {
				continue
			}
			intFree--
			c.countFU(e, trace.UnitALU)
		}
		issued++
		e.state = stIssued
		if e.real {
			c.addUnit(trace.UnitWindow, 1)
			if e.nUses > 0 {
				c.addUnit(trace.UnitRegRead, uint64(e.nUses))
			}
		}

		switch {
		case e.isMem && e.isStore:
			if e.real {
				c.addUnit(trace.UnitLSQ, 1)
			}
			e.doneAt = cycle + 1
		case e.isMem:
			if e.real {
				c.addUnit(trace.UnitLSQ, 1)
			}
			if !e.real {
				e.doneAt = cycle + 1
				break
			}
			if e.info.MemUncached {
				ulat, _ := c.h.Uncached()
				e.doneAt = cycle + uint64(ulat)
				break
			}
			if c.forwardedFromStore(i, e.info.MemPaddr) {
				e.doneAt = cycle + 1
				break
			}
			dlat, acc := c.h.Data(e.info.MemPaddr, false)
			c.countMem(acc)
			e.doneAt = cycle + uint64(dlat)
		case e.real && e.inst.Op == isa.OpCACHE && e.info.CacheMapped:
			flat, facc := c.h.FlushLine(e.info.CachePaddr)
			c.countMem(facc)
			e.doneAt = cycle + uint64(flat)
		default:
			e.doneAt = cycle + uint64(lat)
		}
	}
}

func (c *refCore) forwardedFromStore(idx int, paddr uint32) bool {
	for i := idx - 1; i >= 0; i-- {
		e := c.at(i)
		if e.isStore && e.real && e.info.Mem == arch.MemStore &&
			e.info.MemPaddr>>2 == paddr>>2 {
			c.addUnit(trace.UnitLSQ, 1) // forwarding search hit
			return true
		}
	}
	return false
}

func (c *refCore) fetch(cycle uint64, commit func(*arch.StepInfo)) {
	if c.sleep {
		if c.count > 0 {
			return // drain before sleeping
		}
		c.flushUnits()
		c.scratch = c.cpu.Step(cycle)
		info := &c.scratch
		commit(info)
		if info.Halted {
			c.halted = true
			return
		}
		if !info.Waiting {
			c.sleep = false
			c.fetchPC = c.cpu.PC
			c.wrongPath = false
		}
		return
	}
	if c.fetchStalled || c.serialInFlight > 0 || cycle < c.fetchResumeAt {
		return
	}
	for n := 0; n < c.cfg.FetchWidth; n++ {
		if c.count == c.cfg.WindowSize {
			return
		}
		real := !c.wrongPath && c.fetchPC == c.cpu.PC
		var e refEnt
		e.pc = c.fetchPC
		e.issueAt = cycle + uint64(c.cfg.FrontDepth)

		if real {
			c.flushUnits() // Step may move the attribution context (MMIO store)
			c.scratch = c.cpu.Step(cycle)
			info := &c.scratch
			if info.Halted {
				commit(info)
				c.halted = true
				return
			}
			if info.Waiting {
				c.sleep = true
			}
			e.real = true
			e.info = *info
			e.inst = info.Inst
			if info.TLBLookups > 0 {
				c.addUnit(trace.UnitTLB, uint64(info.TLBLookups))
			}
			if info.Fetched {
				ilat, acc := c.h.IFetch(info.PhysPC)
				c.countMem(acc)
				if ilat > 1 {
					e.issueAt += uint64(ilat - 1)
				}
			}
		} else {
			c.Bogus++
			paddr, ok := c.translateFetch(c.fetchPC)
			if !ok {
				c.fetchStalled = true
				break
			}
			ilat, acc := c.h.IFetch(paddr)
			c.countMem(acc)
			if ilat > 1 {
				e.issueAt += uint64(ilat - 1)
			}
			e.inst = c.decodeWrongPath(paddr)
		}

		if e.real {
			c.addUnit(trace.UnitRename, 1)
		}
		e.nUses = len(e.inst.Uses(e.uses[:0]))
		e.nDefs = len(e.inst.Defs(e.defs[:0]))
		for u := 0; u < e.nUses; u++ {
			e.srcSeq[u] = c.regProducer[e.uses[u]]
		}
		e.isMem = e.inst.IsLoad() || e.inst.IsStore()
		e.isStore = e.inst.IsStore()
		if e.isMem {
			if c.lsqCount == c.cfg.LSQSize {
				if e.real {
					// Already stepped the oracle; must insert (window may
					// overflow the LSQ bound by one in this rare case).
				} else {
					break
				}
			}
			c.lsqCount++
		}

		e.predNext = c.predictNext(e.pc, e.inst, e.real, &e.info)
		c.fetchPC = e.predNext
		if e.real && e.predNext != e.info.NextPC {
			c.wrongPath = true
		}

		e.seq = c.nextSeq
		c.nextSeq++
		for d := 0; d < e.nDefs; d++ {
			c.regProducer[e.defs[d]] = e.seq
		}

		if refSerial(&e) {
			c.serialInFlight++
		}
		*c.at(c.count) = e
		c.count++

		if e.real && c.sleep {
			return
		}
		if e.predNext != e.pc+4 {
			return
		}
	}
}

func (c *refCore) predictNext(pc uint32, in isa.Inst, real bool, info *arch.StepInfo) uint32 {
	if real && info.TookException {
		return pc + 4 // traps are never predicted
	}
	switch in.Info().Class {
	case isa.ClassBranch:
		if real {
			c.addUnit(trace.UnitBpred, 1)
		}
		if c.bht[(pc>>2)%uint32(c.cfg.BHTSize)] >= 2 {
			return isa.BranchTarget(pc, in.Imm)
		}
		return pc + 4
	case isa.ClassJump:
		if real {
			c.addUnit(trace.UnitBpred, 1)
		}
		switch in.Op {
		case isa.OpJ:
			return pc&0xF000_0000 | in.Target
		case isa.OpJAL:
			c.rasPush(pc + 4)
			return pc&0xF000_0000 | in.Target
		case isa.OpJALR:
			c.rasPush(pc + 4)
			return c.btbLookup(pc)
		case isa.OpJR:
			if in.Rs == isa.RegRA {
				return c.rasPop()
			}
			return c.btbLookup(pc)
		}
	}
	return pc + 4
}

func (c *refCore) btbLookup(pc uint32) uint32 {
	e := &c.btb[(pc>>2)%uint32(c.cfg.BTBSize)]
	if e.tag == pc && e.target != 0 {
		return e.target
	}
	return pc + 4
}

func (c *refCore) rasPush(v uint32) {
	c.ras[c.rasTop%c.cfg.RASSize] = v
	c.rasTop++
}

func (c *refCore) rasPop() uint32 {
	if c.rasTop == 0 {
		return 0 // forces a mispredict-style redirect
	}
	c.rasTop--
	return c.ras[c.rasTop%c.cfg.RASSize]
}

func (c *refCore) trainBranch(pc uint32, taken bool) {
	ctr := &c.bht[(pc>>2)%uint32(c.cfg.BHTSize)]
	if taken {
		if *ctr < 3 {
			*ctr++
		}
	} else if *ctr > 0 {
		*ctr--
	}
}

func (c *refCore) trainBTB(pc, target uint32) {
	c.btb[(pc>>2)%uint32(c.cfg.BTBSize)] = btbEnt{tag: pc, target: target}
}

func (c *refCore) translateFetch(pc uint32) (uint32, bool) {
	switch {
	case pc >= isa.KSEG0Base && pc < isa.KSEG1Base:
		return pc - isa.KSEG0Base, true
	case pc >= isa.KSEG1Base && pc < isa.KSEG2Base:
		return 0, false
	default:
		c.addUnit(trace.UnitTLB, 1)
		return c.cpu.ProbeTLB(pc &^ 3)
	}
}

func (c *refCore) decodeWrongPath(paddr uint32) isa.Inst {
	if c.bus == nil {
		return isa.Decode(0)
	}
	return c.cpu.DecodeAt(paddr)
}

func refSerial(e *refEnt) bool {
	return e.real && (e.inst.Info().Serializing || e.info.TookException ||
		e.info.MemUncached || e.info.Waiting || e.info.Halted)
}

func (c *refCore) countFU(e *refEnt, u trace.Unit) {
	if e.real {
		c.addUnit(u, 1)
	}
}

func (c *refCore) countMem(acc mem.Accesses) {
	if acc.L1I > 0 {
		c.addUnit(trace.UnitL1I, uint64(acc.L1I))
	}
	if acc.L1D > 0 {
		c.addUnit(trace.UnitL1D, uint64(acc.L1D))
	}
	if acc.L2 > 0 {
		c.addUnit(trace.UnitL2, uint64(acc.L2))
	}
	if acc.Mem > 0 {
		c.addUnit(trace.UnitMem, uint64(acc.Mem))
	}
}

func (c *refCore) squashAfter(keep int, cycle uint64) {
	for i := keep + 1; i < c.count; i++ {
		e := c.at(i)
		if e.isMem {
			c.lsqCount--
		}
	}
	c.count = keep + 1
	c.nextSeq = c.headSeq + uint64(c.count)
	c.serialInFlight = 0
	for i := 0; i < c.count; i++ {
		if refSerial(c.at(i)) {
			c.serialInFlight++
		}
	}
	for r := range c.regProducer {
		c.regProducer[r] = 0
	}
	for i := 0; i < c.count; i++ {
		e := c.at(i)
		for d := 0; d < e.nDefs; d++ {
			c.regProducer[e.defs[d]] = e.seq
		}
	}
}

func (c *refCore) redirect(pc uint32) {
	c.fetchPC = pc
	c.wrongPath = false
	c.fetchStalled = false
}

// ---------------------------------------------------------------------------
// Lockstep equivalence.
// ---------------------------------------------------------------------------

// buildSys assembles src into a fresh single-core system.
func buildSys(tb testing.TB, src string) (ramBus, *arch.CPU, *trace.Collector, *mem.Hierarchy) {
	tb.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		tb.Fatal(err)
	}
	ram := mem.NewRAM(4 << 20)
	for _, s := range p.Segments {
		pa := s.Addr
		if pa >= isa.KSEG0Base && pa < isa.KSEG1Base {
			pa -= isa.KSEG0Base
		}
		ram.LoadSegment(pa, s.Data)
	}
	bus := ramBus{ram}
	return bus, arch.New(bus), trace.NewCollector(1_000_000), mem.NewHierarchy(mem.DefaultHierConfig())
}

// commitRec is one committed instruction as observed through the commit
// callback: the cycle it retired plus its architectural effect.
type commitRec struct {
	cycle    uint64
	pc, next uint32
	exc      bool
	code     uint8
}

// runCommits ticks a core until a BREAK commits, recording the commit
// stream. Both Core and refCore share the Tick signature.
func runCommits(tb testing.TB, tick func(uint64, func(*arch.StepInfo)), maxCycles uint64) ([]commitRec, uint64) {
	tb.Helper()
	var recs []commitRec
	done := false
	var cyc uint64
	var commit func(info *arch.StepInfo)
	commit = func(info *arch.StepInfo) {
		recs = append(recs, commitRec{cyc, info.PC, info.NextPC, info.TookException, uint8(info.ExcCode)})
		if info.TookException && info.ExcCode == isa.ExcBreak {
			done = true
		}
	}
	for cyc = 0; cyc < maxCycles && !done; cyc++ {
		tick(cyc, commit)
	}
	if !done {
		tb.Fatalf("no break within %d cycles", maxCycles)
	}
	return recs, cyc
}

// randomProgram emits a terminating program with data-dependent branches,
// loads/stores to a small buffer, multiplies, shifts and calls — enough
// irregularity to exercise squashes, store forwarding, FU contention and
// LSQ pressure under any scheduler.
func randomProgram(rng *rand.Rand, iters int) string {
	var b strings.Builder
	reg := func() int { return rng.Intn(7) } // t0..t6; t7 is branch scratch
	b.WriteString("        .org 0x80020000\n")
	b.WriteString("        la   s1, buf\n")
	fmt.Fprintf(&b, "        li   s0, %d\n", iters)
	for i := 0; i <= 6; i++ {
		fmt.Fprintf(&b, "        li   t%d, %d\n", i, rng.Intn(1<<16)|1)
	}
	b.WriteString("loop:\n")
	body := 8 + rng.Intn(24)
	lbl := 0
	for i := 0; i < body; i++ {
		switch rng.Intn(12) {
		case 0, 1:
			fmt.Fprintf(&b, "        addu t%d, t%d, t%d\n", reg(), reg(), reg())
		case 2:
			fmt.Fprintf(&b, "        xor  t%d, t%d, t%d\n", reg(), reg(), reg())
		case 3:
			fmt.Fprintf(&b, "        addiu t%d, t%d, %d\n", reg(), reg(), rng.Intn(4096)-2048)
		case 4:
			fmt.Fprintf(&b, "        mul  t%d, t%d, t%d\n", reg(), reg(), reg())
		case 5:
			fmt.Fprintf(&b, "        sw   t%d, %d(s1)\n", reg(), 4*rng.Intn(16))
		case 6:
			fmt.Fprintf(&b, "        lw   t%d, %d(s1)\n", reg(), 4*rng.Intn(16))
		case 7:
			fmt.Fprintf(&b, "        sll  t%d, t%d, %d\n", reg(), reg(), 1+rng.Intn(15))
		case 8:
			fmt.Fprintf(&b, "        srl  t%d, t%d, %d\n", reg(), reg(), 1+rng.Intn(15))
		case 9, 10: // data-dependent forward branch: hard to predict
			r := reg()
			fmt.Fprintf(&b, "        andi t7, t%d, %d\n", r, 1<<rng.Intn(4))
			fmt.Fprintf(&b, "        beqz t7, sk%d\n", lbl)
			fmt.Fprintf(&b, "        addiu t%d, t%d, %d\n", r, r, 1+rng.Intn(7))
			fmt.Fprintf(&b, "sk%d:\n", lbl)
			lbl++
		case 11:
			b.WriteString("        jal  fn\n")
		}
	}
	b.WriteString("        addiu s0, s0, -1\n")
	b.WriteString("        bnez s0, loop\n")
	b.WriteString("        break\n")
	b.WriteString("fn:     addiu v0, v0, 1\n")
	b.WriteString("        jr   ra\n")
	b.WriteString("        .align 4\nbuf:\n")
	for i := 0; i < 16; i++ {
		fmt.Fprintf(&b, "        .word %d\n", rng.Intn(1<<20))
	}
	return b.String()
}

// lockstepConfigs are the shapes the equivalence test sweeps: the paper's
// default plus narrow, tiny-window, and non-power-of-two variants that
// force the modulo fallbacks and off-word bitset masking.
func lockstepConfigs() []Config {
	def := DefaultConfig()
	narrow := def
	narrow.FetchWidth, narrow.IssueWidth, narrow.CommitWidth = 2, 2, 2
	narrow.IntUnits, narrow.FPUnits = 1, 1
	tiny := def
	tiny.WindowSize, tiny.LSQSize, tiny.FrontDepth = 16, 4, 1
	odd := def
	odd.WindowSize, odd.LSQSize = 24, 7 // non-power-of-two ring
	odd.BHTSize, odd.BTBSize, odd.RASSize = 96, 48, 5
	return []Config{def, narrow, tiny, odd}
}

// TestSchedulerLockstepEquivalence runs randomized programs through the
// event-driven Core and the scan-based refCore and requires cycle-exact
// identical commit streams, statistics and unit-activity totals.
func TestSchedulerLockstepEquivalence(t *testing.T) {
	for ci, cfg := range lockstepConfigs() {
		for seed := int64(1); seed <= 6; seed++ {
			name := fmt.Sprintf("cfg%d/seed%d", ci, seed)
			t.Run(name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*977 + int64(ci)))
				src := randomProgram(rng, 100+rng.Intn(100))

				bus1, cpu1, col1, h1 := buildSys(t, src)
				ev := New(cpu1, h1, col1, nil, bus1, cfg)
				evRecs, evCyc := runCommits(t, ev.Tick, 2_000_000)

				bus2, cpu2, col2, h2 := buildSys(t, src)
				ref := newRefCore(cpu2, h2, col2, bus2, cfg)
				refRecs, refCyc := runCommits(t, ref.Tick, 2_000_000)

				if evCyc != refCyc {
					t.Errorf("total cycles: event=%d ref=%d", evCyc, refCyc)
				}
				if len(evRecs) != len(refRecs) {
					t.Fatalf("commit count: event=%d ref=%d", len(evRecs), len(refRecs))
				}
				for i := range evRecs {
					if evRecs[i] != refRecs[i] {
						t.Fatalf("commit %d diverges: event=%+v ref=%+v", i, evRecs[i], refRecs[i])
					}
				}
				if ev.Committed != ref.Committed || ev.Mispredicts != ref.Mispredicts ||
					ev.Flushes != ref.Flushes || ev.Bogus != ref.Bogus {
					t.Errorf("counters diverge: event={c:%d m:%d f:%d b:%d} ref={c:%d m:%d f:%d b:%d}",
						ev.Committed, ev.Mispredicts, ev.Flushes, ev.Bogus,
						ref.Committed, ref.Mispredicts, ref.Flushes, ref.Bogus)
				}
				// Attribution: identical per-mode unit/instruction totals.
				// ModeTotals drains the event core's batched counts first.
				if got, want := col1.ModeTotals(), col2.ModeTotals(); got != want {
					t.Errorf("unit totals diverge:\nevent=%+v\nref  =%+v", got, want)
				}
				for r := range cpu1.GPR {
					if cpu1.GPR[r] != cpu2.GPR[r] {
						t.Errorf("GPR[%d]: event=%d ref=%d", r, cpu1.GPR[r], cpu2.GPR[r])
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Flush-heavy benchmark: event vs scan scheduler, same process.
// ---------------------------------------------------------------------------

// flushHeavyProgram is dominated by hard-to-predict branches, so the
// pipeline squashes constantly — the worst case for the old scheduler's
// O(window) squash/rename rebuild and the best demonstration that the
// event-driven core's O(squashed) unwind pays off. Running both cores in
// one benchmark binary makes the ratio immune to host-frequency drift.
const flushHeavyIters = 30000

func flushHeavyProgram() string {
	return fmt.Sprintf(`
        .org 0x80020000
        li   t0, 0          # acc
        li   t1, 12345      # lcg state
        li   t2, %d
        li   t3, 1103515245
loop:
        mul  t1, t1, t3
        addiu t1, t1, 12345
        andi t4, t1, 4
        beqz t4, even
        addiu t0, t0, 3
        b    next
even:
        addiu t0, t0, 5
next:
        andi t5, t1, 64
        beqz t5, skip
        xor  t0, t0, t1
skip:
        addiu t2, t2, -1
        bnez t2, loop
        break
`, flushHeavyIters)
}

func benchCycles(b *testing.B, tick func(uint64, func(*arch.StepInfo))) uint64 {
	done := false
	var cyc uint64
	commit := func(info *arch.StepInfo) {
		if info.TookException && info.ExcCode == isa.ExcBreak {
			done = true
		}
	}
	for cyc = 0; !done; cyc++ {
		tick(cyc, commit)
	}
	return cyc
}

func benchBoth(b *testing.B, src string) {
	b.Run("event", func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			bus, cpu, col, h := buildSys(b, src)
			c := New(cpu, h, col, nil, bus, DefaultConfig())
			cycles += benchCycles(b, c.Tick)
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
	})
	b.Run("scan", func(b *testing.B) {
		var cycles uint64
		for i := 0; i < b.N; i++ {
			bus, cpu, col, h := buildSys(b, src)
			c := newRefCore(cpu, h, col, bus, DefaultConfig())
			cycles += benchCycles(b, c.Tick)
		}
		b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Mcycles/s")
	})
}

// BenchmarkFlushHeavy reports Mcycles/s for the event-driven and the
// reference scan scheduler on the same squash-heavy workload; the ratio of
// the two numbers is the scheduler speedup, independent of host state.
func BenchmarkFlushHeavy(b *testing.B) { benchBoth(b, flushHeavyProgram()) }

// BenchmarkWindowPressure keeps the instruction window full with a long
// multiply dependency chain (commit drains 1 per 4 cycles while fetch
// inserts 4 per cycle) — the scan scheduler's worst case: issue and
// writeback walk all 64 entries every cycle while the event core touches
// only the one instruction whose wakeup fires.
func BenchmarkWindowPressure(b *testing.B) {
	var s strings.Builder
	s.WriteString("        .org 0x80020000\n")
	s.WriteString("        li   t0, 3\n        li   t3, 16807\n")
	fmt.Fprintf(&s, "        li   t2, %d\n", flushHeavyIters)
	s.WriteString("loop:\n")
	for i := 0; i < 16; i++ {
		s.WriteString("        mul  t0, t0, t3\n")
	}
	s.WriteString("        addiu t2, t2, -1\n        bnez t2, loop\n        break\n")
	benchBoth(b, s.String())
}
