// Package trace defines the attribution model and the sampled statistics
// SoftWatt post-processes into power numbers.
//
// Every committed cycle and every hardware-structure access is attributed to
// one execution mode (user, kernel, kernel-sync, idle — the paper's four
// software modes) and, within the kernel, to the innermost active kernel
// service (utlb, read, demand_zero, ...). Counts are flushed into fixed
// sample windows, mirroring SimOS's coarse-grained log dumps: per-cycle
// information is lost, but simulation is not slowed, exactly the trade the
// paper describes. Per-invocation service energy (Table 5) and disk energy
// are the two quantities measured online.
package trace

import "softwatt/internal/stats"

// Mode is one of the paper's four software execution modes.
type Mode uint8

// Execution modes.
const (
	ModeUser Mode = iota
	ModeKernel
	ModeSync
	ModeIdle
	NumModes
)

var modeNames = [NumModes]string{"user", "kernel", "sync", "idle"}

func (m Mode) String() string { return modeNames[m] }

// Unit identifies a hardware structure whose accesses are counted for the
// analytical power models.
type Unit uint8

// Hardware units.
const (
	UnitALU Unit = iota
	UnitMul
	UnitFPU
	UnitRegRead
	UnitRegWrite
	UnitWindow
	UnitLSQ
	UnitRename
	UnitBpred
	UnitResultBus
	UnitL1I
	UnitL1D
	UnitL2
	UnitMem
	UnitTLB
	NumUnits
)

var unitNames = [NumUnits]string{
	"alu", "mul", "fpu", "regread", "regwrite", "window", "lsq",
	"rename", "bpred", "resultbus", "il1", "dl1", "l2", "mem", "tlb",
}

func (u Unit) String() string { return unitNames[u] }

// UnitCounts is a vector of access counts indexed by Unit.
type UnitCounts [NumUnits]uint64

// Add accumulates o into c.
func (c *UnitCounts) Add(o *UnitCounts) {
	for i := range c {
		c[i] += o[i]
	}
}

// Bucket aggregates activity for one attribution context.
type Bucket struct {
	Units  UnitCounts
	Cycles uint64
	Insts  uint64
}

// Add accumulates o into b.
func (b *Bucket) Add(o *Bucket) {
	b.Units.Add(&o.Units)
	b.Cycles += o.Cycles
	b.Insts += o.Insts
}

// Sample is one flushed statistics window.
type Sample struct {
	Start, End uint64 // cycle range [Start, End)
	Mode       [NumModes]Bucket
}

// Svc identifies a kernel service (the paper's Table 4 rows).
type Svc uint8

// Kernel services.
const (
	SvcNone Svc = iota // sentinel: no service active
	SvcUTLB
	SvcTLBMiss
	SvcVFault
	SvcDemandZero
	SvcCacheFlush
	SvcRead
	SvcWrite
	SvcOpen
	SvcXStat
	SvcBSD
	SvcClock
	SvcDuPoll
	NumSvc
)

var svcNames = [NumSvc]string{
	"none", "utlb", "tlb_miss", "vfault", "demand_zero", "cacheflush",
	"read", "write", "open", "xstat", "BSD", "clock", "du_poll",
}

func (s Svc) String() string { return svcNames[s] }

// ServiceStats aggregates one kernel service across a run.
type ServiceStats struct {
	Invocations uint64
	Total       Bucket
	// EnergyPerInv aggregates per-invocation energy (joules), fed by the
	// EnergyFn measured online, for the paper's Table 5.
	EnergyPerInv stats.Welford
}

// EnergyFn converts one invocation's activity into joules. Supplied by the
// estimator so that the machine stays power-model-agnostic.
type EnergyFn func(*Bucket) float64

// EnergySink receives per-guest-code-region activity batches from the
// collector. Implemented by internal/eprof; kept as an interface here so
// trace does not import the profiler (or the power model behind it). The
// collector calls Charge only at attribution boundaries — PC-bucket moves,
// context switches, window flushes — never per cycle or per instruction.
type EnergySink interface {
	Charge(pcBucket uint32, mode Mode, asid uint8, b *Bucket)
}

// ConfigEntry is one key=value pair of a run's resolved configuration,
// recorded in the run log's CONF section (internal/core).
type ConfigEntry struct {
	Key, Value string
}

// EProfEntry is one aggregated energy-profile row: all activity charged to
// one (PC bucket, mode, ASID) key. PCBucket is the guest PC right-shifted
// by the profile's bucket shift; EnergyPJ is the modeled energy in
// picojoules. Serialized in the run log's EPRF section.
type EProfEntry struct {
	PCBucket uint32
	Mode     Mode
	ASID     uint8
	Cycles   uint64
	Insts    uint64
	EnergyPJ float64
}

// TimelinePoint is one fixed-interval power-timeline sample: the per-mode
// activity that accrued in [Start, End) plus the cumulative disk energy in
// joules at End. Watts are derived at render time by running the per-mode
// buckets through the power model, so the recorded log stays
// power-model-agnostic. Serialized in the run log's TLIN section.
type TimelinePoint struct {
	Start, End uint64
	Mode       [NumModes]Bucket
	DiskJ      float64 // cumulative disk energy at End
}

// Collector gathers attribution-tagged counts on the simulator hot path and
// flushes them into sample windows.
type Collector struct {
	WindowCycles uint64

	mode    Mode
	svc     Svc
	cur     Sample
	samples []Sample

	// acc is the bucket every hot-path count lands in: &cur.Mode[mode]
	// normally, the current pend-cache slot while an energy sink is
	// installed. Keeping it current at every retarget point (mode
	// change, sink install, pend-slot move, state decode) makes the
	// per-cycle/per-unit paths a single unconditional pointer write —
	// no profiler branch, no mode indexing. cur is an inline field, so
	// flush's value reset never moves the pointee.
	acc *Bucket

	// Per-service accounting. The invocation stack is maintained by the
	// machine (push on exception entry, pop on ERET), swapped on context
	// switch; the collector tracks only the innermost service and its
	// running invocation bucket.
	services [NumSvc]ServiceStats
	invAcc   [NumSvc]Bucket // open-invocation accumulators, one per service
	energyFn EnergyFn

	totalCycles uint64
	totalInsts  uint64
	// nextFlush caches cur.Start+WindowCycles so the per-cycle fast path
	// compares against a single precomputed bound.
	nextFlush uint64

	// drain, when set, is invoked right before any attribution-context
	// move, window flush, or totals read, so a timing model can batch
	// structure accesses across ticks and still have every count land in
	// the context and window it accrued under (DESIGN.md §11). The
	// callback must hand its batch over via AddUnits (which never
	// re-enters drain).
	drain func()

	// OnWindow, when set, sees the flushed windows after each flush (the
	// live power timeline's hook).
	OnWindow func(samples []Sample)

	// Energy-profiler plumbing (DESIGN.md §15). When ep is nil — the
	// default — every hot-path hook below is a single pointer compare.
	// When set, counts route into the pend-cache slot acc points at
	// INSTEAD of the open window bucket: epFlush both charges each
	// non-empty pend to ep under its (PC bucket, mode, ASID) key and
	// folds it into cur.Mode[mode], so the serialized windows stay
	// bit-identical to a profiler-less run while the hot path pays one
	// accumulation, not two. The pends form a small fully-associative
	// cache over recent PC-bucket keys: code ping-ponging across a
	// bucket boundary (a loop spanning two lines, a call site and its
	// callee) switches slots instead of charging the sink on every
	// crossing, which keeps the enabled-path overhead in budget. All
	// slots hold counts accrued under the CURRENT mode only — epFlush
	// empties every slot at each window flush, before any mode/service
	// change, and before any read of cur (ModeTotals, EncodeState); it
	// must always run after drainPending: the drain callback delivers
	// its units through AddUnits, which lands them in *acc under the
	// old key.
	ep       EnergySink
	epPends  [epWays]Bucket
	epKeys   [epWays]uint64 // packed 1<<63 | bucket<<8 | asid; 0 = empty
	epVictim uint32         // round-robin eviction cursor
	epPC     uint32         // current PC bucket (pc >> epShift)
	epASID   uint8
	epShift  uint32
}

// epWays is the pend-cache associativity: enough slots that a loop
// spanning a few PC buckets (or a tight call/return pair) stays resident.
const epWays = 4

// NewCollector creates a collector flushing every windowCycles cycles.
func NewCollector(windowCycles uint64) *Collector {
	if windowCycles == 0 {
		windowCycles = 10000
	}
	c := &Collector{WindowCycles: windowCycles, mode: ModeKernel, nextFlush: windowCycles}
	c.acc = &c.cur.Mode[c.mode]
	return c
}

// SetEnergyFn installs the per-invocation energy callback (may be nil).
func (c *Collector) SetEnergyFn(fn EnergyFn) { c.energyFn = fn }

// SetDrain registers the pending-units callback (may be nil). A model
// that registers one may defer its AddUnits flush indefinitely; the
// collector pulls the batch at every point where attribution placement
// matters.
func (c *Collector) SetDrain(f func()) { c.drain = f }

func (c *Collector) drainPending() {
	if c.drain != nil {
		c.drain()
	}
}

// SetEnergySink installs (or, with nil, removes) the energy-profiler sink
// and its PC bucket shift. Call before simulation starts: installing a
// sink mid-run would charge the first batch to bucket 0.
func (c *Collector) SetEnergySink(ep EnergySink, shift uint32) {
	c.ep = ep
	c.epShift = shift
	c.epPends = [epWays]Bucket{}
	c.epKeys = [epWays]uint64{}
	c.epKeys[0] = 1 << 63 // bucket 0, asid 0: matches the zero epPC/epASID
	c.acc = &c.epPends[0]
	c.epVictim = 1
	c.epPC, c.epASID = 0, 0
}

// epFlush hands every pending profiler batch to the sink under its key
// and folds it into the open window bucket (the hot paths route counts
// into the pend cache instead of cur while a sink is installed). Slot
// keys survive the flush, so resident buckets keep hitting. Callers must
// drainPending first so batched units are included.
func (c *Collector) epFlush() {
	for i := range c.epPends {
		if c.epPends[i] != (Bucket{}) {
			c.ep.Charge(uint32(c.epKeys[i]>>8), c.mode, uint8(c.epKeys[i]), &c.epPends[i])
			c.cur.Mode[c.mode].Add(&c.epPends[i])
			c.epPends[i] = Bucket{}
		}
	}
}

// SetEPC moves the profiler's PC/ASID key. The machine calls it once per
// committed instruction; the early return makes straight-line execution
// inside one bucket cost two compares. Counts accrued since the previous
// call are charged to the previous key, so a bucket's total can lag its
// boundary by at most one instruction's activity — an accepted
// approximation (DESIGN.md §15); batching models (MXS) resolve to the
// granularity of their drain batches.
func (c *Collector) SetEPC(pc uint32, asid uint8) {
	bucket := pc >> c.epShift
	if bucket == c.epPC && asid == c.epASID {
		return
	}
	c.epMove(bucket, asid)
}

// epMove is SetEPC's cold path, split out so the bucket-unchanged fast
// path stays inlinable at the per-instruction call site. A hit in the
// pend cache just retargets acc; a miss evicts one slot round-robin,
// charging its batch to the sink and folding it into the open window.
func (c *Collector) epMove(bucket uint32, asid uint8) {
	c.drainPending()
	key := 1<<63 | uint64(bucket)<<8 | uint64(asid)
	c.epPC, c.epASID = bucket, asid
	for i := range c.epKeys {
		if c.epKeys[i] == key {
			c.acc = &c.epPends[i]
			return
		}
	}
	v := c.epVictim
	c.epVictim = (v + 1) % epWays
	if c.epPends[v] != (Bucket{}) {
		c.ep.Charge(uint32(c.epKeys[v]>>8), c.mode, uint8(c.epKeys[v]), &c.epPends[v])
		c.cur.Mode[c.mode].Add(&c.epPends[v])
		c.epPends[v] = Bucket{}
	}
	c.epKeys[v] = key
	c.acc = &c.epPends[v]
}

// SetContext switches the attribution context. svc is SvcNone outside any
// kernel service.
func (c *Collector) SetContext(mode Mode, svc Svc) {
	if mode == c.mode && svc == c.svc {
		return
	}
	c.drainPending()
	if c.ep != nil {
		c.epFlush()
	}
	c.mode = mode
	c.svc = svc
	if c.ep == nil {
		c.acc = &c.cur.Mode[mode]
	}
}

// Mode returns the current attribution mode.
func (c *Collector) Mode() Mode { return c.mode }

// Service returns the current innermost service.
func (c *Collector) Service() Svc { return c.svc }

// AddUnit records n accesses to unit u in the current context.
func (c *Collector) AddUnit(u Unit, n uint64) {
	c.acc.Units[u] += n
	if c.svc != SvcNone {
		c.invAcc[c.svc].Units[u] += n
	}
}

// AddUnits accumulates a whole unit-count vector in the current context.
// The timing models batch their per-instruction structure accesses into a
// local UnitCounts and flush it once per attribution context, replacing
// 5–8 AddUnit calls (each re-deciding mode and service) with a single
// branch and two straight-line vector adds. Because all counts are sums,
// batching within one unchanged context is bit-identical to the unbatched
// sequence.
func (c *Collector) AddUnits(u *UnitCounts) {
	c.acc.Units.Add(u)
	if c.svc != SvcNone {
		c.invAcc[c.svc].Units.Add(u)
	}
}

// AddCycles advances time by n cycles in the current context. It is
// bit-identical to calling AddCycle n times: a batch that spans one or
// more sample-window boundaries is split so every flush happens at the
// exact boundary cycle the per-cycle path would have produced. This is
// what lets the run loop's next-event skip batch idle time without
// perturbing the serialized sample stream (DESIGN.md §11).
func (c *Collector) AddCycles(n uint64) {
	for c.totalCycles+n >= c.nextFlush {
		step := c.nextFlush - c.totalCycles
		// flush folds any pend slots into the window at the exact
		// boundary, so the split stays bit-identical to the per-cycle
		// path.
		c.acc.Cycles += step
		c.totalCycles += step
		if c.svc != SvcNone {
			c.invAcc[c.svc].Cycles += step
		}
		c.flush(c.totalCycles)
		n -= step
	}
	if n == 0 {
		return
	}
	c.acc.Cycles += n
	c.totalCycles += n
	if c.svc != SvcNone {
		c.invAcc[c.svc].Cycles += n
	}
}

// AddCycle advances time by one cycle — the machine run loop's per-cycle
// fast path: no window arithmetic beyond one comparison against the
// precomputed flush bound.
func (c *Collector) AddCycle() {
	c.acc.Cycles++
	c.totalCycles++
	if c.svc != SvcNone {
		c.invAcc[c.svc].Cycles++
	}
	if c.totalCycles >= c.nextFlush {
		c.flush(c.totalCycles)
	}
}

// AddInst records n committed instructions in the current context.
func (c *Collector) AddInst(n uint64) {
	c.acc.Insts += n
	c.totalInsts += n
	if c.svc != SvcNone {
		c.invAcc[c.svc].Insts += n
	}
}

// BeginInvocation opens a new invocation of svc. Any previously accumulated
// open bucket for svc (from a context-switched-away process) continues to
// accumulate; nesting of the same service is merged, which matches how the
// paper reports utlb-during-read as utlb.
func (c *Collector) BeginInvocation(svc Svc) {
	// Nothing to do: invAcc[svc] accumulates while svc is innermost.
}

// EndInvocation closes an invocation of svc, folding its bucket into the
// service totals and the per-invocation energy aggregate.
func (c *Collector) EndInvocation(svc Svc) {
	if svc == SvcNone {
		return
	}
	c.drainPending()
	st := &c.services[svc]
	st.Invocations++
	st.Total.Add(&c.invAcc[svc])
	if c.energyFn != nil {
		st.EnergyPerInv.Add(c.energyFn(&c.invAcc[svc]))
	}
	c.invAcc[svc] = Bucket{}
}

// AbortInvocation folds an abandoned invocation's activity into the service
// totals without producing an invocation count or a per-invocation energy
// sample. Used when a nested TLB refill aborts a handler: the handler will
// be re-entered from scratch, and only the completed re-entry is one
// invocation (otherwise Table 5's deviation would be polluted by the
// partial attempts).
func (c *Collector) AbortInvocation(svc Svc) {
	if svc == SvcNone {
		return
	}
	c.drainPending()
	c.services[svc].Total.Add(&c.invAcc[svc])
	c.invAcc[svc] = Bucket{}
}

// flush closes the current sample window at endCycle, first pulling any
// batched units — and, with a profiler installed, the pending profiler
// batch — so they land in the window they accrued in.
func (c *Collector) flush(endCycle uint64) {
	c.drainPending()
	if c.ep != nil {
		c.epFlush()
	}
	c.cur.End = endCycle
	c.samples = append(c.samples, c.cur)
	c.cur = Sample{Start: endCycle}
	c.nextFlush = endCycle + c.WindowCycles
	if c.OnWindow != nil {
		c.OnWindow(c.samples)
	}
}

// Finish flushes the trailing partial window and returns the samples. Any
// pending profiler batch is charged to its key so the sink's totals are
// complete.
func (c *Collector) Finish() []Sample {
	if c.totalCycles > c.cur.Start {
		c.flush(c.totalCycles)
	}
	if c.ep != nil {
		c.drainPending()
		c.epFlush()
	}
	return c.samples
}

// Samples returns the flushed windows so far.
func (c *Collector) Samples() []Sample { return c.samples }

// ServiceStats returns the aggregate for svc.
func (c *Collector) ServiceStats(svc Svc) *ServiceStats { return &c.services[svc] }

// TotalCycles returns the cycles recorded so far.
func (c *Collector) TotalCycles() uint64 { return c.totalCycles }

// TotalInsts returns the instructions recorded so far.
func (c *Collector) TotalInsts() uint64 { return c.totalInsts }

// ModeTotals sums all samples (plus the open window) per mode.
func (c *Collector) ModeTotals() [NumModes]Bucket {
	c.drainPending()
	if c.ep != nil {
		// Counts route through the pend cache while a profiler is installed;
		// fold so the open window is current before it is read.
		c.epFlush()
	}
	var out [NumModes]Bucket
	for i := range c.samples {
		for m := range out {
			out[m].Add(&c.samples[i].Mode[m])
		}
	}
	for m := range out {
		out[m].Add(&c.cur.Mode[m])
	}
	return out
}
