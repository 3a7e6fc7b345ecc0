// Package mxs implements the out-of-order superscalar CPU timing model, the
// counterpart of SimOS's MXS (a MIPS R10000-like core): 4-wide fetch with
// branch prediction (BHT/BTB/return-address stack), register renaming, a
// 64-entry instruction window/reorder buffer, a 32-entry load/store queue,
// 2 integer + 2 floating-point units, and 4-wide in-order commit, matching
// the paper's Table 1.
//
// The model follows the timing-first methodology: the functional core
// (internal/arch) is stepped at fetch time for true-path instructions and
// is the single source of architectural truth; wrong-path instructions are
// fetched from memory (perturbing the I-cache and predictors, as on real
// hardware) but never change architectural state. Serializing instructions
// (COP0 ops, ERET, syscalls, LL/SC, CACHE) issue only from the head of the
// window and flush on commit — this is why kernel code achieves a lower IPC
// than user code here, the effect the paper measures in §3.2.
//
// Scheduling is event-driven (DESIGN.md §11): instead of scanning all 64
// window entries every cycle, completion and issue eligibility are tracked
// with (cycle, uid) min-heaps, operand readiness with producer→consumer
// wakeup lists, and issue candidates with an age-ordered ready bitset. The
// timing produced is bit-identical to the original per-cycle scans; the
// golden logv2 harness (golden_test.go) and the scan-vs-event lockstep
// test (refsched_test.go) enforce that.
package mxs

import (
	"math"
	"math/bits"

	"softwatt/internal/arch"
	"softwatt/internal/isa"
	"softwatt/internal/mem"
	"softwatt/internal/obs"
	"softwatt/internal/trace"
)

// Config sets the microarchitectural parameters.
type Config struct {
	FetchWidth  int
	IssueWidth  int
	CommitWidth int
	WindowSize  int // instruction window / ROB entries
	LSQSize     int
	IntUnits    int
	FPUnits     int
	BHTSize     int // branch history table (2-bit counters)
	BTBSize     int
	RASSize     int
	FrontDepth  int // fetch→issue pipeline depth in cycles
}

// DefaultConfig returns the paper's Table 1 processor.
func DefaultConfig() Config {
	return Config{
		FetchWidth:  4,
		IssueWidth:  4,
		CommitWidth: 4,
		WindowSize:  64,
		LSQSize:     32,
		IntUnits:    2,
		FPUnits:     2,
		BHTSize:     1024,
		BTBSize:     1024,
		RASSize:     32,
		FrontDepth:  3,
	}
}

type entState uint8

const (
	stWaiting entState = iota // dispatched, waiting for operands
	stIssued                  // executing
	stDone                    // awaiting commit
)

const never = math.MaxUint64

// Front-end restart delays after a trap-class redirect commits: taking an
// exception pays the pipeline privilege switch plus the vector fetch;
// returning with ERET is cheaper (the target is architectural state).
const (
	trapEnterPenalty  = 5
	trapReturnPenalty = 2
)

// robEnt is one window entry. The whole 64-entry window (~14 KB) stays
// L1-resident on any modern host, so field order within the entry is not
// performance-critical; the flag/count bytes are narrow (int8) simply to
// keep the entry compact.
type robEnt struct {
	real bool // architecturally stepped (true path)
	info arch.StepInfo
	inst isa.Inst
	pc   uint32

	state      entState
	seq        uint64 // global dispatch sequence number
	uid        uint64 // monotone dispatch id; 0 = squashed (seqs are reused, uids never)
	issueAt    uint64 // earliest issue cycle (frontend depth + I-miss delay)
	doneAt     uint64
	predNext   uint32
	isMem      bool
	isStore    bool
	serial     bool      // serializing, computed once at dispatch
	redirected bool      // fetch was already redirected for this entry
	pendSrc    int8      // outstanding (uncompleted, in-window) producers
	class      isa.Class // decode info cached at dispatch: Info() is a struct
	lat        uint8     // copy per call, too hot for writeback/issue/commit
	nUses      int8
	nDefs      int8

	uses   [4]uint8
	srcSeq [4]uint64 // producing entry's seq per source (0 = architecturally ready)
	defs   [2]uint8

	// prevProd saves, per def, the regProducer value this entry replaced
	// at dispatch, so squash can unwind the rename map in O(squashed)
	// instead of rebuilding it from all survivors.
	prevProd [2]uint64
}

type btbEnt struct {
	tag    uint32
	target uint32
}

// wakeRef subscribes a consumer entry (by slot, validated by uid) to a
// producer's completion.
type wakeRef struct {
	uid  uint64
	slot int32
}

// wakeInline is how many subscribers a producer slot holds in its inline
// array before spilling. Most producers feed one or two consumers inside
// the window; six covers essentially every list without heap traffic.
const wakeInline = 6

// wakeList is a producer slot's subscriber list. The common-case entries
// live in a fixed inline array so dispatch's append and writeback's scan
// stay within the slot's own cache lines; rare long lists spill to a slice.
type wakeList struct {
	n    int32
	a    [wakeInline]wakeRef
	over []wakeRef
}

func (l *wakeList) add(r wakeRef) {
	if l.n < wakeInline {
		l.a[l.n] = r
		l.n++
		return
	}
	l.over = append(l.over, r)
}

func (l *wakeList) reset() {
	l.n = 0
	l.over = l.over[:0]
}

// Core is the MXS timing model.
type Core struct {
	cfg Config
	cpu *arch.CPU
	h   *mem.Hierarchy
	col *trace.Collector
	bus arch.Bus // wrong-path instruction reads
	// sync publishes exact device time before each batched cycle, so MMIO
	// reached from fetch (uncached loads/stores execute functionally at
	// dispatch) sees what a per-cycle loop would have shown it. Nil in
	// direct harnesses.
	sync arch.CycleSync

	rob   []robEnt
	head  int
	count int

	fetchPC       uint32
	wrongPath     bool
	fetchStalled  bool
	fetchResumeAt uint64 // trap vectoring delay: fetch idles until this cycle
	sleep         bool
	halted        bool

	lsqCount int
	// realStores counts in-window real stores so the store-forwarding scan
	// can be skipped entirely when no store could possibly match.
	realStores int

	// serialInFlight counts real serializing entries in the window; fetch
	// stalls while one is pending, as R10000 COP0 serialization stalls the
	// front end.
	serialInFlight int

	// Rename map: the dispatch sequence number of the latest in-flight
	// writer of each dependency register. A value < headSeq (committed or
	// unwound producer) means the value is architectural.
	regProducer [isa.NumDepRegs]uint64
	nextSeq     uint64 // next dispatch sequence number (starts at 1)
	headSeq     uint64 // seq of the entry at window position 0
	nextUID     uint64 // monotone dispatch uid source (never rewound)

	// Event structures (see DESIGN.md §11). All reference entries by
	// physical slot + uid; squash invalidates by zeroing the entry's uid
	// and stale references are discarded lazily.
	ready       slotBits   // waiting entries with no pending sources, issueAt reached
	stores      slotBits   // real store entries (store-forwarding candidates)
	compQ       eventHeap  // (doneAt, uid): issued entries awaiting completion
	issueQ      eventHeap  // (issueAt, uid): operand-ready entries in the front-end shadow
	wake        []wakeList // per producer slot: consumers to notify at completion
	serialSlots []int32    // slots of waiting serializing entries (issue-block scan)

	bht    []uint8
	btb    []btbEnt
	ras    []uint32
	rasTop int
	// Index masks for the predictor tables when their sizes are powers of
	// two (the common case); zero means "use modulo" (tiny test configs).
	bhtMask uint32
	btbMask uint32
	rasMask int

	divBusyUntil   uint64
	fpDivBusyUntil uint64

	// sawUncached marks that fetch dispatched an uncached access this
	// cycle: its MMIO side effects may have re-armed device events, so
	// RunBatch must end the batch and let the machine re-clamp.
	sawUncached bool
	// retired counts every retiring instruction handed to commit:
	// Committed plus the interrupt dispatches that wake a sleeping core.
	retired uint64

	// Statistics.
	Committed   uint64
	Bogus       uint64 // wrong-path instructions fetched
	Mispredicts uint64
	Flushes     uint64 // serializing/exception flushes

	// pend batches structure-access counts across ticks. The collector
	// pulls it (SetDrain) right before any attribution-context move,
	// window flush, or totals read, so every count still lands in the
	// same bucket an immediate AddUnit would have used.
	pend      trace.UnitCounts
	pendDirty bool

	// scratch holds the most recent Step's StepInfo. Kept on the Core so
	// passing its address to the commit callback does not force a heap
	// allocation per fetched instruction (a stack-local would escape).
	scratch arch.StepInfo

	// wpOp holds a wrong-path instruction no block holds, decoded with
	// its metadata (wrong-path instructions never execute).
	wpOp arch.Op
}

// New creates an MXS core. bus is the physical address space used for
// wrong-path instruction reads (normally the same bus the CPU sees); sync
// receives the exact cycle before every cycle of a batch (nil in direct
// harnesses without MMIO).
func New(cpu *arch.CPU, h *mem.Hierarchy, col *trace.Collector, sync arch.CycleSync, bus arch.Bus, cfg Config) *Core {
	c := &Core{
		cfg:    cfg,
		cpu:    cpu,
		h:      h,
		col:    col,
		sync:   sync,
		bus:    bus,
		rob:    make([]robEnt, cfg.WindowSize),
		ready:  newSlotBits(cfg.WindowSize),
		stores: newSlotBits(cfg.WindowSize),
		wake:   make([]wakeList, cfg.WindowSize),
		bht:    make([]uint8, cfg.BHTSize),
		btb:    make([]btbEnt, cfg.BTBSize),
		ras:    make([]uint32, cfg.RASSize),
	}
	for i := range c.bht {
		c.bht[i] = 1 // weakly not-taken
	}
	if p2(cfg.BHTSize) {
		c.bhtMask = uint32(cfg.BHTSize - 1)
	}
	if p2(cfg.BTBSize) {
		c.btbMask = uint32(cfg.BTBSize - 1)
	}
	if p2(cfg.RASSize) {
		c.rasMask = cfg.RASSize - 1
	}
	c.fetchPC = cpu.PC
	c.nextSeq = 1
	c.headSeq = 1
	// The collector pulls the batched unit counts whenever attribution
	// placement matters (context move, window flush, totals read), so the
	// hot path never flushes eagerly.
	col.SetDrain(c.flushUnits)
	return c
}

// CPU returns the functional core.
func (c *Core) CPU() *arch.CPU { return c.cpu }

// Counters implements the machine's telemetry hook with the speculative
// pipeline's statistics plus instantaneous occupancy samples.
func (c *Core) Counters() obs.CoreCounters {
	return obs.CoreCounters{
		Committed:   c.Committed,
		Mispredicts: c.Mispredicts,
		Flushes:     c.Flushes,
		WrongPath:   c.Bogus,
		WindowOcc:   uint64(c.count),
		ReadyDepth:  uint64(c.ready.count()),
	}
}

func (c *Core) at(i int) *robEnt {
	s := c.head + i
	if s >= c.cfg.WindowSize {
		s -= c.cfg.WindowSize
	}
	return &c.rob[s]
}

// Tick advances one cycle: the per-cycle reference RunBatch is checked
// against (the machine's DisableSkip loop).
func (c *Core) Tick(cycle uint64, commit func(*arch.StepInfo)) {
	if c.halted {
		return
	}
	c.writeback(cycle)
	c.commitStage(cycle, commit)
	c.issue(cycle)
	c.fetch(cycle, commit)
}

// RunBatch runs up to budget cycles from cycle start inside the core,
// charging each executed cycle to the collector itself and letting the
// next-event clock skip (NextEvent) fire without a machine round-trip. It
// returns the cycles consumed, the instructions retired and the cycles the
// skip elided. The machine clamps the budget to its next
// device/timer/telemetry event, so the only way device state can change
// mid-batch is an uncached access dispatched by fetch — sawUncached ends
// the batch there so the machine re-clamps. Results are bit-identical to
// per-cycle ticking: the stage order and collector call sequence are
// exactly those of Tick plus AddCycle, and SyncCycle keeps the machine's
// notion of time exact for every cycle that executes.
func (c *Core) RunBatch(start, budget uint64, commit func(*arch.StepInfo)) (ran, retired, skipped uint64) {
	end := start + budget
	cyc := start
	retired0 := c.retired
	for cyc < end && !c.halted {
		if c.sync != nil {
			c.sync.SyncCycle(cyc)
		}
		c.writeback(cyc)
		c.commitStage(cyc, commit)
		c.issue(cyc)
		c.fetch(cyc, commit)
		c.col.AddCycle()
		cyc++
		if c.sawUncached {
			c.sawUncached = false
			break
		}
		if c.halted || cyc >= end {
			break
		}
		next := c.NextEvent(cyc)
		if next > cyc {
			target := next
			if target > end {
				target = end
			}
			c.col.AddCycles(target - cyc)
			skipped += target - cyc
			cyc = target
		}
	}
	return cyc - start, c.retired - retired0, skipped
}

// NextEvent reports the earliest cycle >= cycle at which the core can make
// progress: `cycle` itself when commit, issue, or fetch has work now,
// otherwise the nearest completion/issue-eligibility/fetch-restart event,
// or never when the core is fully idle (sleeping with an empty window).
// RunBatch uses this to skip the clock over guaranteed no-op cycles
// (DESIGN.md §11).
func (c *Core) NextEvent(cycle uint64) uint64 {
	if c.halted {
		return never
	}
	if c.count > 0 && c.rob[c.head].state == stDone {
		return cycle // commit has work
	}
	if !c.ready.empty() {
		return cycle // issue has candidates (possibly FU-bound: retry each cycle)
	}
	fetchOpen := !c.sleep && !c.fetchStalled && c.serialInFlight == 0 &&
		c.count != c.cfg.WindowSize
	if fetchOpen && cycle >= c.fetchResumeAt {
		return cycle // fetch will run
	}
	next := uint64(never)
	if t, ok := c.peekComp(); ok && t < next {
		next = t
	}
	if t, ok := c.peekIssue(); ok && t < next {
		next = t
	}
	if fetchOpen && c.fetchResumeAt < next {
		next = c.fetchResumeAt // blocked only on the trap-vectoring delay
	}
	return next
}

// peekComp returns the earliest live completion event, lazily discarding
// references whose entries were squashed since they issued.
func (c *Core) peekComp() (uint64, bool) {
	for c.compQ.len() > 0 {
		ev := &c.compQ.h[0]
		e := &c.rob[ev.slot]
		if e.uid == ev.uid && e.state == stIssued {
			return ev.at, true
		}
		c.compQ.pop()
	}
	return 0, false
}

// peekIssue returns the earliest live issue-eligibility event.
func (c *Core) peekIssue() (uint64, bool) {
	for c.issueQ.len() > 0 {
		ev := &c.issueQ.h[0]
		e := &c.rob[ev.slot]
		if e.uid == ev.uid && e.state == stWaiting && e.pendSrc == 0 {
			return ev.at, true
		}
		c.issueQ.pop()
	}
	return 0, false
}

// addUnit batches one structure access into the tick-local vector.
func (c *Core) addUnit(u trace.Unit, n uint64) {
	c.pend[u] += n
	c.pendDirty = true
}

// flushUnits hands the batched counts to the collector in the current
// attribution context. Registered as the collector's drain; never called
// directly on the hot path.
func (c *Core) flushUnits() {
	if c.pendDirty {
		c.col.AddUnits(&c.pend)
		c.pend = trace.UnitCounts{}
		c.pendDirty = false
	}
}

// ---------------------------------------------------------------------------
// Writeback: complete executing instructions; resolve branches.
// ---------------------------------------------------------------------------

// writeback pops completion events due this cycle. Every latency is >= 1,
// so due events carry doneAt == cycle exactly and the (doneAt, uid) heap
// order equals age order — the order the old full-window scan used, which
// matters because a resolved mispredict squashes everything younger and
// stops the stage.
func (c *Core) writeback(cycle uint64) {
	for c.compQ.len() > 0 && c.compQ.h[0].at <= cycle {
		ev := c.compQ.pop()
		e := &c.rob[ev.slot]
		if e.uid != ev.uid || e.state != stIssued {
			continue // squashed since it issued
		}
		e.state = stDone
		c.wakeConsumers(int(ev.slot), cycle)
		if e.real && e.nDefs > 0 {
			c.addUnit(trace.UnitRegWrite, uint64(e.nDefs))
			c.addUnit(trace.UnitResultBus, uint64(e.nDefs))
		}
		// Branch/jump resolution: redirect as soon as the target is known.
		if e.real && !e.info.TookException {
			if (e.class == isa.ClassBranch || e.class == isa.ClassJump) && e.predNext != e.info.NextPC {
				c.Mispredicts++
				e.redirected = true
				c.squashAfter(int(e.seq - c.headSeq))
				c.redirect(e.info.NextPC)
				return // everything younger is gone (including due events)
			}
		}
	}
}

// wakeConsumers notifies every subscriber of the completed producer in
// `slot`: the last outstanding source arriving moves the consumer to the
// ready set (or to the issue-eligibility heap while its front-end delay
// still runs).
func (c *Core) wakeConsumers(slot int, cycle uint64) {
	l := &c.wake[slot]
	for i := int32(0); i < l.n; i++ {
		c.wakeOne(l.a[i], cycle)
	}
	for _, r := range l.over {
		c.wakeOne(r, cycle)
	}
	l.reset()
}

func (c *Core) wakeOne(r wakeRef, cycle uint64) {
	t := &c.rob[r.slot]
	if t.uid != r.uid || t.state != stWaiting {
		return // consumer squashed since it subscribed
	}
	t.pendSrc--
	if t.pendSrc == 0 {
		if t.issueAt <= cycle {
			c.ready.set(int(r.slot))
		} else {
			c.issueQ.push(schedEvent{at: t.issueAt, uid: t.uid, slot: r.slot})
		}
	}
}

// ---------------------------------------------------------------------------
// Commit: in-order retirement.
// ---------------------------------------------------------------------------

func (c *Core) commitStage(cycle uint64, commit func(*arch.StepInfo)) {
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		e := &c.rob[c.head] // c.at(0), with the wrap arithmetic folded away
		if e.state != stDone {
			return
		}
		if !e.real {
			// A bogus entry can only reach the head if its squash was
			// missed — treat as a model bug.
			panic("mxs: wrong-path instruction at commit")
		}
		// Stores write the cache at retirement.
		if e.isStore && e.info.Mem == arch.MemStore && !e.info.MemUncached {
			_, acc := c.h.Data(e.info.MemPaddr, true)
			c.countMem(acc)
			c.addUnit(trace.UnitLSQ, 1)
		}
		// Predictor training.
		if e.class == isa.ClassBranch {
			c.addUnit(trace.UnitBpred, 1)
			c.trainBranch(e.pc, e.info.BranchTaken)
		} else if e.inst.Op == isa.OpJR || e.inst.Op == isa.OpJALR {
			c.trainBTB(e.pc, e.info.NextPC)
		}
		if !e.info.Waiting && !e.info.Halted {
			c.Committed++
			c.retired++
			c.col.AddInst(1)
		}
		commit(&e.info) // a context move here pulls the batch first
		if e.serial {
			c.serialInFlight--
		}
		needRedirect := e.predNext != e.info.NextPC && !e.redirected
		isMem, isStore := e.isMem, e.isStore
		headSlot := c.head
		c.head++
		if c.head == c.cfg.WindowSize {
			c.head = 0
		}
		c.count--
		c.headSeq++
		if isMem {
			c.lsqCount--
			if isStore {
				c.realStores-- // head entries are always real
				c.stores.clear(headSlot)
			}
		}
		if needRedirect {
			// Exceptions, ERET, serializing flushes: squash everything
			// younger and refetch from the architectural next PC. Trap
			// vectoring additionally costs a privilege-switch delay before
			// the front end restarts (R4000/R10000-like trap overhead).
			c.Flushes++
			c.squashAfter(-1)
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

// ---------------------------------------------------------------------------
// Issue: select ready instructions onto functional units.
// ---------------------------------------------------------------------------

func (c *Core) issue(cycle uint64) {
	// Admit entries whose front-end delay has elapsed into the ready set.
	for c.issueQ.len() > 0 && c.issueQ.h[0].at <= cycle {
		ev := c.issueQ.pop()
		e := &c.rob[ev.slot]
		if e.uid != ev.uid || e.state != stWaiting || e.pendSrc != 0 {
			continue
		}
		c.ready.set(int(ev.slot))
	}
	if c.ready.empty() {
		return
	}
	// A waiting serializing entry with its front-end delay elapsed blocks
	// every younger candidate (it must issue from the head, alone). The
	// head itself is exempt: a serializing entry at position 0 that is not
	// yet operand-ready never held younger entries back in the scan-based
	// scheduler either.
	blockSeq := uint64(never)
	for _, s := range c.serialSlots {
		e := &c.rob[s]
		if e.state != stWaiting || e.issueAt > cycle || e.seq == c.headSeq {
			continue
		}
		if e.seq < blockSeq {
			blockSeq = e.seq
		}
	}
	st := issueState{intFree: c.cfg.IntUnits, fpFree: c.cfg.FPUnits}
	// Visit ready slots in age order: the live entries occupy the circular
	// slot range [head, head+count), so ascending slots from head (wrapping
	// once) is ascending seq. The scan works off a snapshot mask (issuing
	// only clears bits already consumed from it).
	if c.cfg.WindowSize == 64 {
		// Single-word window (the default config): rotating the mask by head
		// makes bit order equal age order, so one trailing-zeros loop
		// replaces the two-pass per-word scan.
		r := bits.RotateLeft64(c.ready.w[0], -c.head)
		for ; r != 0; r &= r - 1 {
			slot := (c.head + bits.TrailingZeros64(r)) & 63
			if c.issueSlot(slot, cycle, blockSeq, &st) {
				return
			}
		}
		return
	}
	for pass := 0; pass < 2; pass++ {
		lo, hi := c.head, c.cfg.WindowSize
		if pass == 1 {
			lo, hi = 0, c.head
		}
		for wi := lo >> 6; wi<<6 < hi; wi++ {
			base := wi << 6
			m := c.ready.w[wi]
			if base < lo {
				m &= ^uint64(0) << uint(lo-base)
			}
			if hi-base < 64 {
				m &= 1<<uint(hi-base) - 1
			}
			for ; m != 0; m &= m - 1 {
				if c.issueSlot(base+bits.TrailingZeros64(m), cycle, blockSeq, &st) {
					return
				}
			}
		}
	}
}

// issueState carries the per-cycle functional-unit budget through the
// issue scan.
type issueState struct {
	intFree int
	fpFree  int
	issued  int
}

// issueSlot attempts to issue the ready entry in slot, updating the cycle's
// unit budget. It reports whether the issue stage must stop scanning (width
// exhausted or an ordering constraint); a candidate skipped for a busy
// functional unit returns false so younger candidates are still considered.
func (c *Core) issueSlot(slot int, cycle uint64, blockSeq uint64, st *issueState) bool {
	if st.issued == c.cfg.IssueWidth {
		return true
	}
	e := &c.rob[slot]
	if e.seq >= blockSeq {
		return true // held back by an older serializing entry
	}
	if e.serial && (e.seq != c.headSeq || st.issued != 0) {
		return true // serializing work issues only from the head, alone
	}
	// Functional unit binding.
	lat := int(e.lat)
	switch e.class {
	case isa.ClassFP:
		if st.fpFree == 0 {
			return false
		}
		st.fpFree--
		c.countFU(e, trace.UnitFPU)
	case isa.ClassFPDiv:
		if st.fpFree == 0 || c.fpDivBusyUntil > cycle {
			return false
		}
		st.fpFree--
		c.fpDivBusyUntil = cycle + uint64(lat)
		c.countFU(e, trace.UnitFPU)
	case isa.ClassDiv:
		if st.intFree == 0 || c.divBusyUntil > cycle {
			return false
		}
		st.intFree--
		c.divBusyUntil = cycle + uint64(lat)
		c.countFU(e, trace.UnitMul)
	case isa.ClassMul:
		if st.intFree == 0 {
			return false
		}
		st.intFree--
		c.countFU(e, trace.UnitMul)
	default:
		if st.intFree == 0 {
			return false
		}
		st.intFree--
		c.countFU(e, trace.UnitALU)
	}
	st.issued++
	e.state = stIssued
	c.ready.clear(slot)
	if e.serial {
		c.serialSlotsRemove(int32(slot))
	}
	if e.real {
		c.addUnit(trace.UnitWindow, 1) // wakeup + select
		if e.nUses > 0 {
			c.addUnit(trace.UnitRegRead, uint64(e.nUses))
		}
	}

	switch {
	case e.isMem && e.isStore:
		// Address generation; the cache write happens at commit.
		if e.real {
			c.addUnit(trace.UnitLSQ, 1)
		}
		e.doneAt = cycle + 1
	case e.isMem:
		if e.real {
			c.addUnit(trace.UnitLSQ, 1)
		}
		if !e.real {
			e.doneAt = cycle + 1 // wrong-path load: no data access
			break
		}
		if e.info.MemUncached {
			ulat, _ := c.h.Uncached()
			e.doneAt = cycle + uint64(ulat)
			break
		}
		if c.forwardedFromStore(int(e.seq-c.headSeq), e.info.MemPaddr) {
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
	if e.doneAt <= cycle {
		e.doneAt = cycle + 1 // defensive: writeback assumes future completions
	}
	c.compQ.push(schedEvent{at: e.doneAt, uid: e.uid, slot: int32(slot)})
	return false
}

// serialSlotsRemove drops one slot from the waiting-serial list.
func (c *Core) serialSlotsRemove(slot int32) {
	for i, s := range c.serialSlots {
		if s == slot {
			c.serialSlots = append(c.serialSlots[:i], c.serialSlots[i+1:]...)
			return
		}
	}
}

// forwardedFromStore reports whether an older in-flight store to the same
// word can forward to the load at window position idx.
func (c *Core) forwardedFromStore(idx int, paddr uint32) bool {
	if c.realStores == 0 {
		return false // no store in the window: nothing to search
	}
	if c.cfg.WindowSize == 64 {
		// Only store entries can match, so scan just their slots: rotating
		// the store bitset by head makes bit order equal window position,
		// and masking to positions [0, idx) keeps only older entries. The
		// match is an existence test, so visit order does not matter.
		m := bits.RotateLeft64(c.stores.w[0], -c.head)
		if idx < 64 {
			m &= 1<<uint(idx) - 1
		}
		for ; m != 0; m &= m - 1 {
			slot := (c.head + bits.TrailingZeros64(m)) & 63
			e := &c.rob[slot]
			if e.info.Mem == arch.MemStore && e.info.MemPaddr>>2 == paddr>>2 {
				c.addUnit(trace.UnitLSQ, 1) // forwarding search hit
				return true
			}
		}
		return false
	}
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

// ---------------------------------------------------------------------------
// Fetch + dispatch.
// ---------------------------------------------------------------------------

func (c *Core) fetch(cycle uint64, commit func(*arch.StepInfo)) {
	if c.sleep {
		if c.count > 0 {
			return // drain before sleeping
		}
		c.cpu.StepInto(cycle, &c.scratch)
		info := &c.scratch
		commit(info)
		if info.Halted {
			c.halted = true
			return
		}
		if !info.Waiting {
			// Woken by an interrupt: info is the interrupt dispatch.
			c.retired++
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
		// Dispatch in place: the tail slot is dead (not in [head, head+count))
		// so building the entry there avoids a 200-byte zero+copy per
		// instruction. Every field a stale occupant could leak through is
		// reassigned below; fields read only for real entries (info, and
		// anything derived from it) are guarded by e.real at every use.
		slot := c.head + c.count
		if slot >= c.cfg.WindowSize {
			slot -= c.cfg.WindowSize
		}
		e := &c.rob[slot]
		real := !c.wrongPath && c.fetchPC == c.cpu.PC
		var wp *arch.Op
		e.pc = c.fetchPC
		e.issueAt = cycle + uint64(c.cfg.FrontDepth)
		e.real = real
		e.state = stWaiting
		e.redirected = false
		e.pendSrc = 0

		if real {
			c.cpu.StepInto(cycle, &e.info)
			info := &e.info
			if info.Halted {
				commit(info)
				c.halted = true
				return
			}
			if info.Waiting {
				c.sleep = true
			}
			e.inst = info.Inst
			if info.Mem != arch.MemNone && info.MemUncached {
				c.sawUncached = true
			}
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
			// Wrong-path fetch: read memory, decode, never execute.
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
			wp = c.decodeWrongPath(c.fetchPC, paddr)
			e.inst = wp.In
		}

		// Dispatch metadata: the block op's copy (the executed op's, or the
		// wrong-path op's) replaces the Deps switch plus the class/latency/
		// serializing table lookups.
		var mt *isa.Meta
		if real {
			mt = c.cpu.StepMeta(e.inst)
		} else {
			mt = &wp.Meta
		}
		e.class = mt.Class
		e.lat = mt.Lat
		e.uses = mt.Uses
		e.defs = mt.Defs
		e.nUses = int8(mt.NUses)
		e.nDefs = int8(mt.NDefs)
		serialOp := mt.Serial
		if e.real {
			c.addUnit(trace.UnitRename, 1)
		}
		for u := 0; u < int(e.nUses); u++ {
			e.srcSeq[u] = c.regProducer[e.uses[u]] // rename: capture producers
		}
		e.isMem = e.class == isa.ClassLoad || e.class == isa.ClassStore
		e.isStore = e.class == isa.ClassStore
		if e.isMem {
			if c.lsqCount == c.cfg.LSQSize {
				// LSQ full: undo nothing, just stop fetching this cycle.
				// (The entry was not yet inserted.)
				if e.real {
					// We already stepped the oracle; we must insert.
					// Allow window overflow of the LSQ bound by one in this
					// rare case rather than corrupting the oracle.
				} else {
					break
				}
			}
			c.lsqCount++
			if e.isStore && e.real {
				c.realStores++
				c.stores.set(slot)
			}
		}

		// Next fetch PC via prediction. Non-control instructions always
		// predict fall-through (predictNext's default), so the call — and
		// its trap check — is gated to the control classes only.
		if e.class == isa.ClassBranch || e.class == isa.ClassJump {
			e.predNext = c.predictNext(e.pc, e.inst, e.class, e.real, &e.info)
		} else {
			e.predNext = e.pc + 4
		}
		c.fetchPC = e.predNext
		if e.real && e.predNext != e.info.NextPC {
			c.wrongPath = true
		}

		// Rename: this entry becomes the latest writer of its defs; the
		// displaced producers are saved for squash's O(squashed) unwind.
		e.seq = c.nextSeq
		c.nextSeq++
		c.nextUID++
		e.uid = c.nextUID
		for d := 0; d < int(e.nDefs); d++ {
			e.prevProd[d] = c.regProducer[e.defs[d]]
			c.regProducer[e.defs[d]] = e.seq
		}

		e.serial = e.real && (serialOp || e.info.TookException ||
			e.info.MemUncached || e.info.Waiting || e.info.Halted)
		if e.serial {
			c.serialInFlight++
		}
		// Wakeup subscription: count outstanding in-window producers and
		// register with each; an entry with none outstanding waits only
		// for its front-end delay (issueAt is in the future at dispatch).
		c.wake[slot].reset()
		for u := 0; u < int(e.nUses); u++ {
			s := e.srcSeq[u]
			if s < c.headSeq {
				continue // producer committed (or none): value architectural
			}
			ps := c.head + int(s-c.headSeq)
			if ps >= c.cfg.WindowSize {
				ps -= c.cfg.WindowSize
			}
			if c.rob[ps].state == stDone {
				continue // already completed: no wakeup coming
			}
			e.pendSrc++
			c.wake[ps].add(wakeRef{uid: e.uid, slot: int32(slot)})
		}
		if e.serial {
			c.serialSlots = append(c.serialSlots, int32(slot))
		}
		if e.pendSrc == 0 {
			c.issueQ.push(schedEvent{at: e.issueAt, uid: e.uid, slot: int32(slot)})
		}
		c.count++

		if e.real && c.sleep {
			return
		}
		// Stop the fetch group at a predicted-taken control transfer.
		if e.predNext != e.pc+4 {
			return
		}
	}
}

// predictNext consults the branch predictors for the fetched instruction.
// cl is the instruction's cached class; info is read only when real.
func (c *Core) predictNext(pc uint32, in isa.Inst, cl isa.Class, real bool, info *arch.StepInfo) uint32 {
	if real && info.TookException {
		return pc + 4 // traps are never predicted
	}
	switch cl {
	case isa.ClassBranch:
		if real {
			c.addUnit(trace.UnitBpred, 1)
		}
		if c.bht[c.bhtIdx(pc)] >= 2 {
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

// p2 reports whether n is a positive power of two.
func p2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Table index helpers: mask when the size is a power of two (identical to
// modulo there), modulo otherwise.
func (c *Core) bhtIdx(pc uint32) uint32 {
	if c.bhtMask != 0 {
		return (pc >> 2) & c.bhtMask
	}
	return (pc >> 2) % uint32(c.cfg.BHTSize)
}

func (c *Core) btbIdx(pc uint32) uint32 {
	if c.btbMask != 0 {
		return (pc >> 2) & c.btbMask
	}
	return (pc >> 2) % uint32(c.cfg.BTBSize)
}

func (c *Core) rasIdx(top int) int {
	if c.rasMask != 0 {
		return top & c.rasMask
	}
	return top % c.cfg.RASSize
}

func (c *Core) btbLookup(pc uint32) uint32 {
	e := &c.btb[c.btbIdx(pc)]
	if e.tag == pc && e.target != 0 {
		return e.target
	}
	return pc + 4
}

func (c *Core) rasPush(v uint32) {
	c.ras[c.rasIdx(c.rasTop)] = v
	c.rasTop++
}

func (c *Core) rasPop() uint32 {
	if c.rasTop == 0 {
		return 0 // forces a mispredict-style redirect
	}
	c.rasTop--
	return c.ras[c.rasIdx(c.rasTop)]
}

func (c *Core) trainBranch(pc uint32, taken bool) {
	ctr := &c.bht[c.bhtIdx(pc)]
	if taken {
		if *ctr < 3 {
			*ctr++
		}
	} else if *ctr > 0 {
		*ctr--
	}
}

func (c *Core) trainBTB(pc, target uint32) {
	c.btb[c.btbIdx(pc)] = btbEnt{tag: pc, target: target}
}

// translateFetch maps a wrong-path fetch PC, counting the TLB probe.
func (c *Core) translateFetch(pc uint32) (uint32, bool) {
	switch {
	case pc >= isa.KSEG0Base && pc < isa.KSEG1Base:
		return pc - isa.KSEG0Base, true
	case pc >= isa.KSEG1Base && pc < isa.KSEG2Base:
		return 0, false // never fetch from uncached space speculatively
	default:
		c.addUnit(trace.UnitTLB, 1)
		return c.cpu.ProbeTLB(pc &^ 3)
	}
}

// decodeWrongPath returns the op at pc (physical paddr) for a wrong-path
// fetch. When the core fetches from the same bus the functional CPU sees
// (the normal machine wiring), that is the code cache's op when a block
// holds it, else the word decoded straight from memory. The MMIO region
// is never executable, so this has no device side effects.
func (c *Core) decodeWrongPath(pc, paddr uint32) *arch.Op {
	var in isa.Inst
	if c.bus != nil {
		if op := c.cpu.PeekOp(pc, paddr); op != nil {
			return op
		}
		in = c.cpu.DecodeAt(paddr)
	} else {
		in = isa.Decode(0)
	}
	c.wpOp.In = in
	in.Fill(&c.wpOp.Meta)
	return &c.wpOp
}

// countFU charges a functional-unit access for real-path work only;
// wrong-path operations occupy the unit for timing but their operand
// values never switch it meaningfully in this tag-only model.
func (c *Core) countFU(e *robEnt, u trace.Unit) {
	if e.real {
		c.addUnit(u, 1)
	}
}

func (c *Core) countMem(acc mem.Accesses) {
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

// ---------------------------------------------------------------------------
// Squash machinery.
// ---------------------------------------------------------------------------

// squashAfter removes every window entry younger than logical position
// keep (-1 squashes everything). The walk is youngest-first so the rename
// unwind restores each register's previous producer in reverse dispatch
// order; by the time an entry is visited, every younger writer of its defs
// has already been unwound, so regProducer[def] == e.seq whenever this
// entry is still the visible producer. A restored value may name an
// already-committed (or never-existing) producer — both mean
// "architectural", exactly like the seq of any committed entry.
func (c *Core) squashAfter(keep int) {
	for i := c.count - 1; i > keep; i-- {
		slot := c.head + i
		if slot >= c.cfg.WindowSize {
			slot -= c.cfg.WindowSize
		}
		e := &c.rob[slot]
		if e.isMem {
			c.lsqCount--
			if e.isStore && e.real {
				c.realStores--
				c.stores.clear(slot)
			}
		}
		if e.serial {
			c.serialInFlight--
		}
		for d := int(e.nDefs) - 1; d >= 0; d-- {
			if c.regProducer[e.defs[d]] == e.seq {
				c.regProducer[e.defs[d]] = e.prevProd[d]
			}
		}
		c.ready.clear(slot)
		c.wake[slot].reset()
		e.uid = 0 // invalidates this entry's heap/wakeup references lazily
	}
	c.count = keep + 1
	c.nextSeq = c.headSeq + uint64(c.count)
	if len(c.serialSlots) > 0 {
		q := c.serialSlots[:0]
		for _, s := range c.serialSlots {
			if c.rob[s].uid != 0 {
				q = append(q, s)
			}
		}
		c.serialSlots = q
	}
}

func (c *Core) redirect(pc uint32) {
	c.fetchPC = pc
	c.wrongPath = false
	c.fetchStalled = false
}
