// Package machine assembles the complete simulated computer: the M32
// functional core, a timing model (Mipsy or MXS), the cache hierarchy, the
// disk with its power-mode state machine, the MMIO devices (console,
// simulator annotation port, disk controller, timer), and the pkos kernel.
// It owns the run loop and the software attribution machinery: every cycle
// and every structure access is tagged with the current execution mode and
// kernel service, mirroring how SoftWatt instruments SimOS.
package machine

import (
	"bytes"
	"fmt"
	"math"

	"softwatt/internal/arch"
	"softwatt/internal/cpu/mipsy"
	"softwatt/internal/cpu/mxs"
	"softwatt/internal/cpu/swift"
	"softwatt/internal/disk"
	"softwatt/internal/isa"
	"softwatt/internal/kern"
	"softwatt/internal/mem"
	"softwatt/internal/obs"
	"softwatt/internal/trace"
)

// CoreKind selects the CPU timing model.
type CoreKind uint8

// Timing models.
const (
	CoreMipsy CoreKind = iota // in-order single issue, blocking caches
	CoreMXS                   // 4-wide out-of-order (R10000-like)
	CoreMXS1                  // MXS configured single-issue (paper Figure 3)
	CoreSwift                 // functional fast-forward (no timing/power model)
	// CoreSwiftRef is swift's lockstep oracle: the same batch protocol
	// executed entirely by the exact interpreter. Test harnesses only.
	CoreSwiftRef
)

func (k CoreKind) String() string {
	switch k {
	case CoreMipsy:
		return "mipsy"
	case CoreMXS:
		return "mxs"
	case CoreMXS1:
		return "mxs1"
	case CoreSwift:
		return "swift"
	case CoreSwiftRef:
		return "swiftref"
	}
	return "unknown"
}

// Core is a CPU timing model driving the functional core.
type Core interface {
	// Tick advances the pipeline by one cycle, invoking commit (in program
	// order) for every instruction that architecturally completes.
	Tick(cycle uint64, commit func(*arch.StepInfo))
	// Counters returns the model's telemetry counters (committed
	// instructions, mispredictions, flushes). Read between Ticks only.
	Counters() obs.CoreCounters
}

// batchCore is implemented by functional fast-forward engines that run
// whole spans of instructions per call instead of one pipeline cycle per
// Tick. The machine clamps each batch to the next device/telemetry event;
// the core must consume at least one cycle per call (unless halted), end
// the batch after any uncached access so device timing is re-evaluated,
// and report the exact current cycle through SyncCycle before every
// interpreter-delegated step so MMIO side effects see true time.
type batchCore interface {
	// RunBatch executes up to budget cycles from cycle start, returning
	// cycles consumed and instructions retired (WAIT idling excluded).
	RunBatch(start, budget uint64) (ran, retired uint64)
}

// tickBatchCore is implemented by detailed (per-cycle) timing models that
// can run their stage loop internally for a span of cycles, hoisting the
// per-cycle machine overhead (interface dispatch, device-event compares,
// telemetry gate) out of the hot loop and letting the core's own
// next-event clock skip fire without returning to the machine each cycle.
// The contract mirrors batchCore: the budget is clamped to the next
// device/timer/telemetry event, the core must consume at least one cycle
// per call (unless halted), end the batch after any uncached access so
// device timing is re-evaluated, and publish the exact current cycle
// through SyncCycle before any step that can reach MMIO. Unlike
// batchCore, the core performs full per-instruction attribution itself
// (AddInst/AddUnits/commit/AddCycles in exactly the per-cycle order), so
// results are bit-identical to per-cycle ticking.
type tickBatchCore interface {
	// TickBatch runs up to budget cycles from cycle start, invoking commit
	// in program order, and returns the cycles consumed.
	TickBatch(start, budget uint64, commit func(*arch.StepInfo)) (ran uint64)
	// TakeSkipped returns and clears the cycles the core's internal
	// next-event skip elided since the last call (telemetry).
	TakeSkipped() uint64
}

// eventCore is implemented by timing models that can report when their
// next internal event is due, letting the run loop skip the clock over
// cycles that are guaranteed no-ops (DESIGN.md §11). The skip must be
// timing-invisible: the loop batch-charges the skipped cycles to the
// collector and clamps the jump so no device, timer, or telemetry event
// is crossed.
type eventCore interface {
	// NextEvent returns the earliest cycle >= cycle at which the core can
	// make progress (cycle itself when it has work now; math.MaxUint64
	// when only an external interrupt can unblock it).
	NextEvent(cycle uint64) uint64
	// Idle reports that the core is asleep with an empty pipeline (WAIT
	// committed), where even the per-cycle functional poll is pure.
	Idle() bool
}

// Config describes one machine instance.
type Config struct {
	Core         CoreKind
	RAMBytes     int
	Hier         mem.HierConfig
	Disk         disk.Config
	WindowCycles uint64 // statistics sample window
	TimerCycles  uint32 // clock tick period (0 = off)
	MaxCycles    uint64 // run-away guard
	ClockHz      float64
	// IdleHalt makes the kernel's idle loop halt the CPU with WAIT instead
	// of busy-waiting — the paper's §5 proposed idle-energy optimization.
	IdleHalt bool
	// TimelineCycles, when nonzero, records a power-timeline point every
	// this many cycles (rounded up to a whole number of sample windows so
	// timeline points land exactly on window-flush boundaries). Purely
	// observational: simulation results are bit-identical either way, and
	// the knob is excluded from config digests and checkpoint
	// fingerprints.
	TimelineCycles uint64
}

// DefaultConfig returns the paper's Table 1 system.
func DefaultConfig() Config {
	return Config{
		Core:         CoreMipsy,
		RAMBytes:     128 << 20,
		Hier:         mem.DefaultHierConfig(),
		Disk:         disk.DefaultConfig(),
		WindowCycles: 20000,
		TimerCycles:  100000,
		MaxCycles:    2_000_000_000,
		ClockHz:      200e6,
	}
}

// Workload is a user program plus its file-system contents.
type Workload struct {
	Name    string
	Program *isa.Program // user image; segments must live in useg
	Entry   uint32
	Files   []kern.File
}

// Machine is one complete simulated computer.
type Machine struct {
	cfg  Config
	ram  *mem.RAM
	hier *mem.Hierarchy
	cpu  *arch.CPU
	core Core
	dsk  *disk.Disk
	col  *trace.Collector
	kimg *kern.Image

	cycle     uint64
	halted    bool
	exitCode  uint32
	console   bytes.Buffer
	intValues []uint32 // SimPutInt debug stream

	curPid uint32
	// Per-process kernel-service stacks. curStk caches the current pid's
	// stack so the per-commit attribution path never touches the map; it is
	// refreshed only when the kernel announces a context switch (SimCurPid).
	curStk    *svcStack
	svcStacks map[uint32]*svcStack

	// latched disk controller registers
	dcSector, dcCount, dcDMA uint32

	timerNext uint64
	commit    func(*arch.StepInfo) // bound once; avoids per-cycle allocation

	// Live telemetry (nil unless metrics were enabled at construction).
	// obsNext is MaxUint64 when disabled so the run loop pays one
	// always-false compare per cycle and nothing else.
	tele    *telemetry
	obsNext uint64

	// Power timeline (DESIGN.md §15). tlNext is MaxUint64 when disabled —
	// the same dormant-compare discipline as obsNext — and otherwise the
	// next cycle at which a point is recorded. tlIdx tracks how many
	// flushed collector samples previous points already folded.
	tlNext   uint64
	tlStart  uint64
	tlIdx    int
	timeline []trace.TimelinePoint
	// OnTimeline, when set, observes every recorded point as it is taken
	// (live export to metrics gauges and trace counter tracks).
	OnTimeline func(*trace.TimelinePoint)

	// epOn gates the per-commit energy-profiler PC update; false keeps
	// attribute's profiler hook to a single dormant compare.
	epOn bool

	// evc is the core's event interface when it has one (MXS); nil keeps
	// the run loop on the plain per-cycle path (mipsy).
	evc eventCore
	// bc is the core's batch interface when it has one (swift); non-nil
	// routes Run through the batched loop.
	bc batchCore
	// tbc is the core's batch-tick interface when it has one (mipsy, MXS);
	// non-nil routes Run through runTickBatches unless DebugStep or
	// DisableSkip demands the per-cycle loop.
	tbc tickBatchCore
	// skipped counts cycles elided by the next-event skip (telemetry).
	skipped uint64
	// DisableSkip forces per-cycle ticking even on an event-driven core.
	// Diagnostic/test knob: results are bit-identical either way.
	DisableSkip bool

	// Committed counts committed instructions (excluding bubbles).
	Committed uint64
	// Faults counts exceptions by code (diagnostics).
	Faults [32]uint64

	// DebugStep, when set, observes every committed instruction.
	DebugStep func(cycle uint64, info *arch.StepInfo)

	// customCore marks machines whose core was replaced post-construction
	// (NewWithMXSWindow): RestoreState cannot rebuild such a core, so
	// checkpointing is refused rather than silently changing the window.
	customCore bool

	// lastCkptLen sizes the next Checkpoint's buffer from the previous
	// payload, keeping the periodic-checkpoint path a single allocation.
	lastCkptLen int
}

// New builds a machine, loads the kernel, and stages the workload. The
// machine is ready to Run.
func New(cfg Config, w Workload) (*Machine, error) {
	if cfg.RAMBytes <= 0 {
		cfg.RAMBytes = 128 << 20
	}
	if cfg.ClockHz == 0 {
		cfg.ClockHz = 200e6
	}
	cfg.Disk.ClockHz = cfg.ClockHz
	stk0 := &svcStack{}
	m := &Machine{
		cfg:       cfg,
		ram:       mem.NewRAM(cfg.RAMBytes),
		hier:      mem.NewHierarchy(cfg.Hier),
		col:       trace.NewCollector(cfg.WindowCycles),
		curStk:    stk0,
		svcStacks: map[uint32]*svcStack{0: stk0},
	}
	m.dsk = disk.New(cfg.Disk, m.diskComplete)

	kimg, err := kern.Build()
	if err != nil {
		return nil, err
	}
	m.kimg = kimg
	for _, seg := range kimg.Program.Segments {
		m.ram.LoadSegment(kseg0Phys(seg.Addr), seg.Data)
	}

	// Stage the user image into physical memory.
	if w.Program == nil {
		return nil, fmt.Errorf("machine: workload has no program")
	}
	lo, hi := uint32(math.MaxUint32), uint32(0)
	for _, seg := range w.Program.Segments {
		if seg.Addr >= isa.KUSEGTop {
			return nil, fmt.Errorf("machine: workload segment at %#x outside useg", seg.Addr)
		}
		if seg.Addr < lo {
			lo = seg.Addr
		}
		if e := seg.Addr + uint32(len(seg.Data)); e > hi {
			hi = e
		}
	}
	lo &^= isa.PageSize - 1
	hi = (hi + isa.PageSize - 1) &^ (isa.PageSize - 1)
	for _, seg := range w.Program.Segments {
		m.ram.LoadSegment(kern.PhysUserImg+(seg.Addr-lo), seg.Data)
	}
	pages := (hi - lo) / isa.PageSize

	bi := kern.BootInfo{
		Magic:        kern.BootMagic,
		Entry:        w.Entry,
		ImgVABase:    lo,
		ImgPages:     pages,
		UserPhysBase: kern.PhysUserImg,
		BrkBase:      hi,
		TimerCycles:  cfg.TimerCycles,
	}
	if cfg.IdleHalt {
		bi.Flags |= kern.BootFlagIdleWait
	}
	m.ram.LoadSegment(kern.PhysBootInfo, kern.EncodeBootInfo(bi))

	// Disk contents (the file store).
	n, err := kern.BuildDiskImage(m.dsk.Image(), w.Files)
	if err != nil {
		return nil, err
	}
	m.dsk.MarkWritten(0, n)

	m.cpu = arch.New(m)
	// The code cache covers all of RAM below the MMIO window, where direct
	// RAM access is exactly what the bus does. The swift reference core is
	// the plain interpreter by design: it is the oracle the cache is
	// checked against.
	if cfg.Core != CoreSwiftRef {
		m.cpu.EnableBlocks(m.ram, m.fastLimit())
	}
	if err := m.newCore(); err != nil {
		return nil, err
	}
	m.timerNext = math.MaxUint64 // armed when the kernel writes the interval
	m.obsNext = math.MaxUint64
	if obs.MetricsEnabled() {
		m.tele = newTelemetry()
		m.tele.oooCore = cfg.Core != CoreMipsy
		m.obsNext = obsIntervalCycles
	}
	m.tlNext = math.MaxUint64
	if cfg.TimelineCycles > 0 {
		// Round the interval up to a whole number of sample windows so
		// every timeline tick lands exactly on a window-flush boundary:
		// folding flushed samples then partitions time with no window
		// straddling two points.
		w := m.col.WindowCycles
		m.cfg.TimelineCycles = (cfg.TimelineCycles + w - 1) / w * w
		m.tlNext = m.cfg.TimelineCycles
	}
	m.commit = m.commitFn
	return m, nil
}

// fastLimit returns the code cache's bound: RAM below the MMIO window.
func (m *Machine) fastLimit() uint32 {
	limit := uint32(kern.MMIOBase)
	if uint64(m.cfg.RAMBytes) < uint64(kern.MMIOBase) {
		limit = uint32(m.cfg.RAMBytes)
	}
	return limit
}

// newCore (re)builds the timing core for the configured kind over the
// machine's current functional state, rebinding the event/batch interfaces.
// Called at construction and again by RestoreState, where the rebuild
// re-points construction-time state (MXS fetch PC, collector drain) at the
// restored CPU.
func (m *Machine) newCore() error {
	switch m.cfg.Core {
	case CoreMipsy:
		c := mipsy.New(m.cpu, m.hier, m.col)
		c.BindCycleSync(m)
		m.core = c
	case CoreMXS:
		m.core = mxs.New(m.cpu, m.hier, m.col, m, mxs.DefaultConfig())
	case CoreMXS1:
		c := mxs.DefaultConfig()
		c.FetchWidth, c.IssueWidth, c.CommitWidth = 1, 1, 1
		c.IntUnits, c.FPUnits = 1, 1
		m.core = mxs.New(m.cpu, m.hier, m.col, m, c)
	case CoreSwift:
		m.core = swift.New(m.cpu, m.ram, m)
	case CoreSwiftRef:
		m.core = swift.NewReference(m.cpu, m)
	default:
		return fmt.Errorf("machine: unknown core kind %d", m.cfg.Core)
	}
	m.evc, _ = m.core.(eventCore)
	m.bc, _ = m.core.(batchCore)
	m.tbc, _ = m.core.(tickBatchCore)
	return nil
}

// NewWithMXSWindow builds a machine whose MXS core uses a custom
// instruction-window size (for ablation studies).
func NewWithMXSWindow(cfg Config, w Workload, window int) (*Machine, error) {
	cfg.Core = CoreMXS
	m, err := New(cfg, w)
	if err != nil {
		return nil, err
	}
	c := mxs.DefaultConfig()
	c.WindowSize = window
	if c.LSQSize > window {
		c.LSQSize = window
	}
	m.core = mxs.New(m.cpu, m.hier, m.col, m, c)
	m.evc, _ = m.core.(eventCore)
	m.tbc, _ = m.core.(tickBatchCore)
	m.customCore = true
	return m, nil
}

func kseg0Phys(va uint32) uint32 {
	if va >= isa.KSEG0Base && va < isa.KSEG1Base {
		return va - isa.KSEG0Base
	}
	return va
}

// Config returns the machine's resolved configuration (defaults applied).
func (m *Machine) Config() Config { return m.cfg }

// Collector exposes the statistics collector (for the estimator).
func (m *Machine) Collector() *trace.Collector { return m.col }

// Disk exposes the disk (for energy and policy statistics).
func (m *Machine) Disk() *disk.Disk { return m.dsk }

// Hierarchy exposes the cache hierarchy.
func (m *Machine) Hierarchy() *mem.Hierarchy { return m.hier }

// CPU exposes the functional core (tests and diagnostics).
func (m *Machine) CPU() *arch.CPU { return m.cpu }

// Kernel exposes the assembled kernel image.
func (m *Machine) Kernel() *kern.Image { return m.kimg }

// Console returns everything the kernel and workload wrote to the console.
func (m *Machine) Console() string { return m.console.String() }

// IntValues returns the debug integers written to the putint port.
func (m *Machine) IntValues() []uint32 { return m.intValues }

// ExitCode returns the halt value (valid after Run).
func (m *Machine) ExitCode() uint32 { return m.exitCode }

// Halted reports whether the workload has exited.
func (m *Machine) Halted() bool { return m.halted }

// Cycle returns the current cycle.
func (m *Machine) Cycle() uint64 { return m.cycle }

// SkippedCycles returns how many cycles the next-event skip elided
// (always 0 on cores without an event scheduler or with DisableSkip).
func (m *Machine) SkippedCycles() uint64 { return m.skipped }

// CoreCounters returns the timing core's counter snapshot (the same values
// the telemetry publisher reads).
func (m *Machine) CoreCounters() obs.CoreCounters { return m.core.Counters() }

// Release returns the machine's physical memory and disk image to their
// allocator pools. Call only once all results have been collected; the
// machine (and any slice of its RAM or disk image) must not be used
// afterwards.
func (m *Machine) Release() {
	m.ram.Release()
	m.dsk.Release()
}

// Recycle prepares an already-used machine to accept another RestoreState,
// without paying for construction again. RestoreState fully overwrites
// every piece of machine state except the RAM and disk-image backing
// stores, where it copies in only the checkpoint's dirty/written pages —
// so the one way a reused machine could differ from a fresh one is a page
// this machine touched that the incoming checkpoint does not carry.
// Scrubbing both stores back to all-zero closes that gap: after Recycle,
// RestoreState reconstructs the same state it would on a machine fresh
// from New. The per-worker machine pools of sampled simulation call this
// between windows, paying one construction for N windows.
func (m *Machine) Recycle() {
	m.ram.Scrub()
	m.dsk.ScrubImage()
}

// Run simulates until the workload halts the machine or maxCycles elapse
// (0 = use the config's MaxCycles).
func (m *Machine) Run(maxCycles uint64) error {
	if maxCycles == 0 {
		maxCycles = m.cfg.MaxCycles
	}
	limit := m.cycle + maxCycles
	if m.tele != nil {
		m.tele.sim.MachinesActive.Add(1)
		defer func() {
			m.publishObs()
			m.tele.sim.MachinesActive.Add(-1)
		}()
	}
	switch {
	case m.bc != nil:
		if m.DebugStep != nil {
			return fmt.Errorf("machine: %s core does not support DebugStep", m.cfg.Core)
		}
		m.runBatches(limit)
	case m.useTickBatches():
		m.runTickBatches(limit)
	default:
		m.runCycles(limit)
	}
	if !m.halted {
		return fmt.Errorf("machine: %s did not halt within %d cycles (pc=%08x)",
			m.cfg.Core, maxCycles, m.cpu.PC)
	}
	m.dsk.FinishEnergy(m.cycle)
	return nil
}

// StepCycles advances the machine by exactly n cycles (or to the halt),
// without Run's did-not-halt error: the lockstep equivalence harness's
// stepping primitive, valid on every core kind.
func (m *Machine) StepCycles(n uint64) {
	limit := m.cycle + n
	switch {
	case m.bc != nil:
		m.runBatches(limit)
	case m.useTickBatches():
		m.runTickBatches(limit)
	default:
		m.runCycles(limit)
	}
}

// useTickBatches reports whether the detailed-core batch loop applies:
// DebugStep needs per-cycle commits with an accurate m.cycle (and observes
// the WAIT polls a batch elides), and DisableSkip explicitly requests
// per-cycle ticking; both fall back to runCycles.
func (m *Machine) useTickBatches() bool {
	return m.tbc != nil && m.DebugStep == nil && !m.DisableSkip
}

// stepDevices fires every device/telemetry event due at the current
// cycle: shared by the per-cycle and batched run loops.
func (m *Machine) stepDevices() {
	if m.cycle >= m.dsk.NextEvent() {
		m.dsk.Advance(m.cycle)
		if m.dsk.IRQPending() {
			m.cpu.SetIRQ(isa.IntDisk, true)
		}
	}
	if m.cycle >= m.timerNext {
		m.cpu.SetIRQ(isa.IntTimer, true)
	}
	if m.cycle >= m.obsNext {
		m.publishObs()
	}
	if m.cycle >= m.tlNext {
		m.recordTimeline()
	}
}

// recordTimeline closes the current timeline interval at the present
// cycle: every collector sample flushed since the previous point is folded
// into one per-mode activity bucket, and the disk's cumulative energy is
// read (a pure function of the current cycle). Called from stepDevices on
// exact interval boundaries — the interval is a multiple of the sample
// window, and both run loops clamp their batches to tlNext — and once more
// by FinishTimeline for the trailing partial interval.
func (m *Machine) recordTimeline() {
	p := trace.TimelinePoint{Start: m.tlStart, End: m.cycle}
	samples := m.col.Samples()
	for ; m.tlIdx < len(samples); m.tlIdx++ {
		s := &samples[m.tlIdx]
		for mo := range p.Mode {
			p.Mode[mo].Add(&s.Mode[mo])
		}
	}
	p.DiskJ = m.dsk.EnergyJ(m.cycle)
	m.timeline = append(m.timeline, p)
	if m.OnTimeline != nil {
		m.OnTimeline(&m.timeline[len(m.timeline)-1])
	}
	m.tlStart = m.cycle
	m.tlNext = m.cycle + m.cfg.TimelineCycles
}

// FinishTimeline records the trailing partial interval and returns the
// run's timeline (nil when disabled). Call after the collector's Finish has
// flushed the trailing sample window — core.Collect does — so the last
// point folds the complete run.
func (m *Machine) FinishTimeline() []trace.TimelinePoint {
	if m.cfg.TimelineCycles == 0 {
		return nil
	}
	if m.cycle > m.tlStart {
		m.recordTimeline()
	}
	return m.timeline
}

// Timeline returns the points recorded so far.
func (m *Machine) Timeline() []trace.TimelinePoint { return m.timeline }

// SetEnergyProfiler installs (or, with nil, removes) the energy-profiler
// sink: the collector keys activity by PC bucket and the per-commit
// attribution path starts tracking the guest PC and ASID. Batch cores
// (swift) perform no per-instruction attribution, so the profiler requires
// a detailed core; the facade enforces that.
func (m *Machine) SetEnergyProfiler(sink trace.EnergySink, shift uint32) {
	m.col.SetEnergySink(sink, shift)
	m.epOn = sink != nil
}

// SyncCycle lets a batch core set true device time before delegating an
// instruction to the interpreter, so MMIO handlers that read or latch
// m.cycle (timer arming, disk submission) observe exactly the cycle a
// per-cycle loop would have shown them. Part of the swift.CycleSync
// contract; the authoritative post-batch update happens in runBatches.
func (m *Machine) SyncCycle(cycle uint64) { m.cycle = cycle }

// runBatches is the run loop for batch cores: instead of ticking every
// cycle, it hands the core a budget bounded by the next device, timer, or
// telemetry event and batch-charges the consumed cycles and retired
// instructions to the collector (AddCycles/AddInst split at sample-window
// boundaries, so window accounting stays exact). Batch cores perform no
// per-instruction attribution: fast-forward runs report functional
// results and totals, not per-mode power.
func (m *Machine) runBatches(limit uint64) {
	for !m.halted && m.cycle < limit {
		m.stepDevices()
		target := limit
		for _, ev := range [4]uint64{m.dsk.NextEvent(), m.timerNext, m.obsNext, m.tlNext} {
			if ev > m.cycle && ev < target {
				target = ev
			}
		}
		start := m.cycle
		ran, retired := m.bc.RunBatch(start, target-start)
		if ran == 0 {
			break // CPU halted outside the machine's control: stop cleanly
		}
		m.cycle = start + ran
		m.col.AddCycles(ran)
		m.col.AddInst(retired)
		m.Committed += retired
	}
}

// runTickBatches is the run loop for detailed cores implementing
// tickBatchCore: each iteration hands the core a cycle budget bounded by
// the next device, timer, or telemetry event and lets it run its stage
// loop (and its own next-event clock skip) without returning to the
// machine. The core performs the complete per-cycle attribution sequence
// internally, so the serialized results are bit-identical to runCycles.
func (m *Machine) runTickBatches(limit uint64) {
	for !m.halted && m.cycle < limit {
		m.stepDevices()
		target := limit
		for _, ev := range [4]uint64{m.dsk.NextEvent(), m.timerNext, m.obsNext, m.tlNext} {
			if ev > m.cycle && ev < target {
				target = ev
			}
		}
		// Latch start: SyncCycle moves m.cycle during the batch.
		start := m.cycle
		ran := m.tbc.TickBatch(start, target-start, m.commit)
		m.cycle = start + ran
		m.skipped += m.tbc.TakeSkipped()
		if ran == 0 {
			break // CPU halted outside the machine's control: stop cleanly
		}
	}
}

// runCycles is the per-cycle run loop driving Tick-based timing models.
func (m *Machine) runCycles(limit uint64) {
	for !m.halted && m.cycle < limit {
		// Device time.
		m.stepDevices()

		m.core.Tick(m.cycle, m.commit)
		m.col.AddCycle()
		m.cycle++

		// Next-event skip: when the core reports that nothing can happen
		// before a future cycle, jump there, batch-charging the skipped
		// cycles in the current attribution context (AddCycles splits at
		// sample-window boundaries, so the serialized samples are
		// bit-identical to per-cycle ticking). The jump is clamped so the
		// disk, timer, and telemetry checks above still fire on their
		// exact cycles. Ticks during deep sleep poll the functional core
		// for interrupts (a pure, idempotent step while every external
		// event is in the future), so they may be elided too — except
		// under DebugStep, which observes each polled Waiting commit.
		if m.evc == nil || m.DisableSkip || m.halted || m.cycle >= limit {
			continue
		}
		next := m.evc.NextEvent(m.cycle)
		if next <= m.cycle {
			continue
		}
		if m.evc.Idle() && m.DebugStep != nil {
			continue
		}
		target := next
		if target > limit {
			target = limit
		}
		due := false
		for _, ev := range [4]uint64{m.dsk.NextEvent(), m.timerNext, m.obsNext, m.tlNext} {
			if ev <= m.cycle {
				due = true // an external event is due right now: no skip
				break
			}
			if ev < target {
				target = ev
			}
		}
		if due || target <= m.cycle {
			continue
		}
		m.col.AddCycles(target - m.cycle)
		m.skipped += target - m.cycle
		m.cycle = target
	}
}

// svcFor classifies an exception into a kernel service.
func (m *Machine) svcFor(info *arch.StepInfo) trace.Svc {
	switch info.ExcCode {
	case isa.ExcInt:
		if m.cpu.IP&(1<<isa.IntTimer) != 0 {
			return trace.SvcClock
		}
		return trace.SvcDuPoll
	case isa.ExcSyscall:
		switch m.cpu.GPR[isa.RegV0] {
		case kern.SysRead:
			return trace.SvcRead
		case kern.SysWrite:
			return trace.SvcWrite
		case kern.SysOpen:
			return trace.SvcOpen
		case kern.SysXstat:
			return trace.SvcXStat
		case kern.SysCacheflush:
			return trace.SvcCacheFlush
		default:
			return trace.SvcBSD
		}
	case isa.ExcTLBL, isa.ExcTLBS, isa.ExcTLBMod:
		if info.NextPC == isa.VecUTLB {
			return trace.SvcUTLB
		}
		return trace.SvcVFault
	default:
		return trace.SvcBSD
	}
}

// commitFn is passed to the core's Tick; bound once to avoid per-cycle
// closure allocation.
func (m *Machine) commitFn(info *arch.StepInfo) { m.attribute(info) }

// attribute updates the software context from one committed instruction.
func (m *Machine) attribute(info *arch.StepInfo) {
	if m.DebugStep != nil {
		m.DebugStep(m.cycle, info)
	}
	if info.Halted {
		return
	}
	if !info.Waiting {
		m.Committed++
	}
	if info.TookException {
		m.Faults[info.ExcCode]++
		if info.NestedExc {
			// The interrupted handler is abandoned (EPC unchanged): the
			// original fault will re-enter it from scratch, so fold its
			// partial activity without emitting an invocation sample.
			m.abortSvc()
		}
		if !info.KernelMode {
			// A user-mode fault implies no kernel service can be active
			// for this process; fold any leftovers defensively.
			for len(m.curStk.s) > 0 {
				m.popSvc()
			}
		}
		svc := m.svcFor(info)
		m.pushSvc(svc)
	} else if info.Inst.Op == isa.OpERET {
		m.popSvc()
	}
	m.refreshContext(info.KernelMode, info.PC)
	if m.epOn {
		m.col.SetEPC(info.PC, m.cpu.ASID())
	}
}

// svcStack is one process's kernel-service invocation stack. Boxed so the
// hot path can hold a stable pointer across map growth.
type svcStack struct{ s []trace.Svc }

func (m *Machine) pushSvc(s trace.Svc) {
	m.curStk.s = append(m.curStk.s, s)
	m.col.BeginInvocation(s)
}

func (m *Machine) popSvc() {
	st := m.curStk.s
	if len(st) == 0 {
		return
	}
	s := st[len(st)-1]
	m.curStk.s = st[:len(st)-1]
	m.col.EndInvocation(s)
}

func (m *Machine) abortSvc() {
	st := m.curStk.s
	if len(st) == 0 {
		return
	}
	s := st[len(st)-1]
	m.curStk.s = st[:len(st)-1]
	m.col.AbortInvocation(s)
}

func (m *Machine) topSvc() trace.Svc {
	st := m.curStk.s
	if len(st) == 0 {
		return trace.SvcNone
	}
	return st[len(st)-1]
}

// refreshContext recomputes the attribution context.
func (m *Machine) refreshContext(kernelMode bool, pc uint32) {
	svc := m.topSvc()
	var mode trace.Mode
	switch {
	case !kernelMode:
		mode = trace.ModeUser
	case pc >= m.kimg.SyncBegin && pc < m.kimg.SyncEnd:
		mode = trace.ModeSync
	case m.curPid == 0 && svc == trace.SvcNone:
		mode = trace.ModeIdle
	default:
		mode = trace.ModeKernel
	}
	m.col.SetContext(mode, svc)
}

// ---------------------------------------------------------------------------
// arch.Bus: physical memory + MMIO dispatch
// ---------------------------------------------------------------------------

// ReadPhys implements arch.Bus.
func (m *Machine) ReadPhys(pa uint32, size int) uint64 {
	if pa >= kern.MMIOBase && pa < kern.MMIOBase+0x1000 {
		return m.mmioRead(pa)
	}
	return m.ram.Read(pa, size)
}

// WritePhys implements arch.Bus.
func (m *Machine) WritePhys(pa uint32, size int, v uint64) {
	if pa >= kern.MMIOBase && pa < kern.MMIOBase+0x1000 {
		m.mmioWrite(pa, uint32(v))
		return
	}
	m.ram.Write(pa, size, v)
}

func (m *Machine) mmioRead(pa uint32) uint64 {
	switch pa {
	case kern.DiskStatus:
		var v uint64
		m.dsk.Advance(m.cycle)
		if m.dsk.Busy() {
			v |= 1
		}
		if m.dsk.IRQPending() {
			v |= 2
		}
		return v
	}
	return 0
}

func (m *Machine) mmioWrite(pa, v uint32) {
	switch pa {
	case kern.SimPutChar:
		m.console.WriteByte(byte(v))
	case kern.SimPutInt:
		m.intValues = append(m.intValues, v)
	case kern.SimHalt:
		m.exitCode = v
		m.halted = true
		m.cpu.Halt()
	case kern.SimCurPid:
		m.curPid = v
		stk, ok := m.svcStacks[v]
		if !ok {
			stk = &svcStack{}
			m.svcStacks[v] = stk
		}
		m.curStk = stk
	case kern.SimSvcPush:
		if v < uint32(trace.NumSvc) {
			m.pushSvc(trace.Svc(v))
			m.refreshContext(true, m.cpu.PC)
		}
	case kern.SimSvcPop:
		m.popSvc()
		m.refreshContext(true, m.cpu.PC)
	case kern.SimSvcRecls:
		st := m.curStk.s
		if len(st) > 0 && v < uint32(trace.NumSvc) {
			st[len(st)-1] = trace.Svc(v)
			m.refreshContext(true, m.cpu.PC)
		}
	case kern.DiskSector:
		m.dcSector = v
	case kern.DiskCount:
		m.dcCount = v
	case kern.DiskDMA:
		m.dcDMA = v
	case kern.DiskCmd:
		m.diskCommand(v)
	case kern.DiskAck:
		m.dsk.AckIRQ()
		m.cpu.SetIRQ(isa.IntDisk, false)
	case kern.TimerInterval:
		if v == 0 {
			m.timerNext = math.MaxUint64
		} else {
			m.timerNext = m.cycle + uint64(v)
		}
	case kern.TimerAck:
		m.cpu.SetIRQ(isa.IntTimer, false)
		if m.cfg.TimerCycles > 0 {
			m.timerNext = m.cycle + uint64(m.cfg.TimerCycles)
		}
	}
}

func (m *Machine) diskCommand(cmd uint32) {
	switch cmd {
	case kern.DiskCmdRead, kern.DiskCmdWrite:
		req := disk.Request{
			Write:   cmd == kern.DiskCmdWrite,
			Sector:  m.dcSector,
			Count:   m.dcCount,
			DMAAddr: m.dcDMA,
		}
		err := m.dmaRangeErr(req)
		if err == nil {
			_, err = m.dsk.Submit(m.cycle, req)
		}
		if err != nil {
			m.diskError(err)
		}
	case kern.DiskCmdSleep:
		_ = m.dsk.Sleep(m.cycle)
	}
}

// dmaRangeErr rejects a request whose DMA buffer does not lie wholly in
// RAM. DMAAddr and Count are guest-written registers, so the range is
// computed in uint64: its end must not wrap 2³² into a bogus in-range
// slice.
func (m *Machine) dmaRangeErr(req disk.Request) error {
	end := uint64(req.DMAAddr) + uint64(req.Count)*disk.SectorSize
	if end > uint64(m.ram.Size()) {
		return fmt.Errorf("disk: DMA range %#x+%d sectors outside RAM", req.DMAAddr, req.Count)
	}
	return nil
}

// diskError is the hardware-style error path: raise the IRQ immediately
// so the kernel does not deadlock; diagnostics via console.
func (m *Machine) diskError(err error) {
	fmt.Fprintf(&m.console, "[disk error: %v]\n", err)
	m.cpu.SetIRQ(isa.IntDisk, true)
}

// diskComplete is the DMA + IRQ callback at request completion. The range
// is checked again: a restored checkpoint can carry an in-flight request
// that diskCommand never saw.
func (m *Machine) diskComplete(req disk.Request) {
	if err := m.dmaRangeErr(req); err != nil {
		m.diskError(err)
		return
	}
	n := int(req.Count) * disk.SectorSize
	buf := m.ram.Bytes()[req.DMAAddr : int(req.DMAAddr)+n]
	if req.Write {
		m.dsk.Write(req.Sector, buf)
	} else {
		m.dsk.Read(req.Sector, buf)
		// DMA writes RAM behind the CPU's back: drop any cached code in
		// the landing zone and record the dirtied pages.
		m.cpu.InvalidateCode(req.DMAAddr, n)
		m.ram.MarkDirty(req.DMAAddr, n)
	}
	m.cpu.SetIRQ(isa.IntDisk, true)
}
