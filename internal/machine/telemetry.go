package machine

// Live telemetry publication. A machine constructed while metrics are
// enabled (obs.SetMetricsEnabled, normally via a CLI's -http flag) carries
// a telemetry block and publishes counter deltas into the process registry
// every obsIntervalCycles simulated cycles and once more as each Run or
// StepCycles call returns. Everything published is read from counters the
// simulator already maintains — the caches' hit/miss counts, the CPU's
// code-cache counters, the collector's totals and flushed sample windows,
// the disk's activity statistics — so publication never perturbs
// architected state and the golden byte-identity contract (DESIGN.md §9)
// holds with telemetry on. With metrics disabled the only residue is one
// always-false comparison per cycle in Run (obsNext stays at MaxUint64).

import (
	"softwatt/internal/arch"
	"softwatt/internal/disk"
	"softwatt/internal/mem"
	"softwatt/internal/obs"
	"softwatt/internal/trace"
)

// obsIntervalCycles is the publication period: ~0.5 s of wall time at the
// current ~18 Mcycles/s Mipsy throughput, frequent enough for a 1 Hz
// scrape, rare enough to be free.
const obsIntervalCycles = 8 << 20

// cacheLevels orders the published cache labels; indices match telemetry's
// per-cache arrays.
var cacheLevels = [3]string{"l1i", "l1d", "l2"}

// telemetry holds the registry handles and the last-published snapshot
// used to turn the simulator's monotonic counters into deltas.
type telemetry struct {
	sim *obs.SimMetrics

	cacheHits   [3]*obs.Counter
	cacheMisses [3]*obs.Counter
	cacheWB     [3]*obs.Counter

	modeCycles [trace.NumModes]*obs.Counter

	mispredicts *obs.Counter
	coreFlushes *obs.Counter
	wrongPath   *obs.Counter

	// Superblock code cache observability (the functional CPU's, shared
	// by all three cores).
	sbHits    *obs.Counter
	sbMisses  *obs.Counter
	sbInval   *obs.Counter
	slowSteps *obs.Counter

	// Event-driven scheduler observability (MXS; DESIGN.md §11). The
	// histograms record instantaneous occupancy samples taken at each
	// publication, cheap and frequent enough to sketch the distribution.
	skipCycles *obs.Counter
	windowOcc  *obs.Histogram
	readyDepth *obs.Histogram
	oooCore    bool // observe occupancy only for out-of-order cores

	diskReads   *obs.Counter
	diskWrites  *obs.Counter
	dmaBytes    *obs.Counter
	spinups     *obs.Counter
	spindowns   *obs.Counter
	diskStateCy []*obs.Counter

	// Last-published snapshots.
	lastCycles  uint64
	lastInsts   uint64
	lastCache   [3]mem.CacheSnapshot
	lastBlocks  arch.BlockStats
	lastCore    obs.CoreCounters
	lastSkipped uint64
	lastDisk    disk.Stats
	sampleIdx   int // collector samples already folded into modeCycles
}

// newTelemetry resolves every instrument from the default registry once.
func newTelemetry() *telemetry {
	r := obs.Default()
	t := &telemetry{sim: obs.Sim()}
	for i, lv := range cacheLevels {
		lbl := obs.Label("cache", lv)
		t.cacheHits[i] = r.Counter("softwatt_cache_hits_total", "Simulated cache hits.", lbl)
		t.cacheMisses[i] = r.Counter("softwatt_cache_misses_total", "Simulated cache misses.", lbl)
		t.cacheWB[i] = r.Counter("softwatt_cache_writebacks_total", "Simulated cache writebacks.", lbl)
	}
	for m := trace.Mode(0); m < trace.NumModes; m++ {
		t.modeCycles[m] = r.Counter("softwatt_mode_cycles_total",
			"Simulated cycles attributed per software mode (from flushed sample windows).",
			obs.Label("mode", m.String()))
	}
	t.mispredicts = r.Counter("softwatt_bpred_mispredicts_total", "Branch mispredictions (MXS).", "")
	t.coreFlushes = r.Counter("softwatt_core_flushes_total", "Serializing/exception pipeline flushes (MXS).", "")
	t.wrongPath = r.Counter("softwatt_wrongpath_insts_total", "Wrong-path instructions fetched (MXS).", "")
	t.sbHits = r.Counter("softwatt_superblock_hits_total",
		"Superblock lookups served from the code cache (at block entry; all cores).", "")
	t.sbMisses = r.Counter("softwatt_superblock_misses_total",
		"Superblock builds/rebuilds (all cores).", "")
	t.sbInval = r.Counter("softwatt_superblock_invalidations_total",
		"Code-page invalidations from stores or DMA (all cores).", "")
	t.slowSteps = r.Counter("softwatt_slow_steps_total",
		"Steps through the exact interpreter: interrupts, fetches no block serves, off-list ops, exceptions, swift hand-offs (all cores).", "")
	t.skipCycles = r.Counter("softwatt_mxs_skip_cycles_total",
		"Cycles elided inside a core's batch call: the MXS next-event clock skip and mipsy's WAIT elision (all cores).", "")
	t.windowOcc = r.Histogram("softwatt_mxs_window_occupancy",
		"Instruction-window occupancy sampled at each telemetry publication (MXS).", "",
		[]float64{0, 4, 8, 16, 24, 32, 40, 48, 56, 64})
	t.readyDepth = r.Histogram("softwatt_mxs_ready_queue_depth",
		"Issue-ready queue depth sampled at each telemetry publication (MXS).", "",
		[]float64{0, 1, 2, 4, 8, 16, 32})
	t.diskReads = r.Counter("softwatt_disk_reads_total", "Disk read requests completed.", "")
	t.diskWrites = r.Counter("softwatt_disk_writes_total", "Disk write requests completed.", "")
	t.dmaBytes = r.Counter("softwatt_dma_bytes_total", "Bytes moved by disk DMA.", "")
	t.spinups = r.Counter("softwatt_disk_spinups_total", "Disk spin-up transitions.", "")
	t.spindowns = r.Counter("softwatt_disk_spindowns_total", "Disk spin-down transitions.", "")
	t.diskStateCy = make([]*obs.Counter, disk.NumStates)
	for i := range t.diskStateCy {
		t.diskStateCy[i] = r.Counter("softwatt_disk_state_cycles_total",
			"Cycles the disk spent in each power mode.", obs.Label("state", disk.State(i).String()))
	}
	return t
}

// rebaseObs makes the machine's current counters the baseline of the next
// publication without publishing them. RestoreState calls it: the
// restored counters hold the checkpointed run's totals, which this machine
// did not simulate (and which, on a recycled machine, may be below the
// last published snapshot).
func (m *Machine) rebaseObs() {
	t := m.tele
	if t == nil {
		return
	}
	m.obsNext = m.cycle + obsIntervalCycles
	t.lastCycles, t.lastInsts = m.col.TotalCycles(), m.col.TotalInsts()
	for i, c := range [3]*mem.Cache{m.hier.L1I, m.hier.L1D, m.hier.L2} {
		t.lastCache[i] = c.Snapshot()
	}
	t.lastBlocks = m.cpu.BlockStats()
	t.lastCore = m.core.Counters()
	t.lastSkipped = m.skipped
	t.lastDisk = m.dsk.Stats()
	t.sampleIdx = len(m.col.Samples())
}

// publishObs pushes the delta since the last publication into the
// registry. Called from the run loop every obsIntervalCycles and as each
// Run or StepCycles call returns; always on the simulation goroutine, so reading the simulator's
// plain counters is race-free while the registry side is atomic.
func (m *Machine) publishObs() {
	t := m.tele
	if t == nil {
		return
	}
	m.obsNext = m.cycle + obsIntervalCycles

	cyc, inst := m.col.TotalCycles(), m.col.TotalInsts()
	t.sim.Cycles.Add(cyc - t.lastCycles)
	t.sim.Insts.Add(inst - t.lastInsts)
	t.lastCycles, t.lastInsts = cyc, inst

	for i, c := range [3]*mem.Cache{m.hier.L1I, m.hier.L1D, m.hier.L2} {
		s := c.Snapshot()
		t.cacheHits[i].Add(s.Hits - t.lastCache[i].Hits)
		t.cacheMisses[i].Add(s.Misses - t.lastCache[i].Misses)
		t.cacheWB[i].Add(s.Writebacks - t.lastCache[i].Writebacks)
		t.lastCache[i] = s
	}

	bs := m.cpu.BlockStats()
	t.sbHits.Add(bs.Hits - t.lastBlocks.Hits)
	t.sbMisses.Add(bs.Misses - t.lastBlocks.Misses)
	t.sbInval.Add(bs.Invalidations - t.lastBlocks.Invalidations)
	t.slowSteps.Add(bs.SlowSteps - t.lastBlocks.SlowSteps)
	t.lastBlocks = bs

	cc := m.core.Counters()
	t.mispredicts.Add(cc.Mispredicts - t.lastCore.Mispredicts)
	t.coreFlushes.Add(cc.Flushes - t.lastCore.Flushes)
	t.wrongPath.Add(cc.WrongPath - t.lastCore.WrongPath)
	t.lastCore = cc
	t.skipCycles.Add(m.skipped - t.lastSkipped)
	t.lastSkipped = m.skipped
	if t.oooCore {
		t.windowOcc.Observe(float64(cc.WindowOcc))
		t.readyDepth.Observe(float64(cc.ReadyDepth))
	}

	ds := m.dsk.Stats()
	t.diskReads.Add(ds.Reads - t.lastDisk.Reads)
	t.diskWrites.Add(ds.Writes - t.lastDisk.Writes)
	t.dmaBytes.Add(ds.BytesMoved - t.lastDisk.BytesMoved)
	t.spinups.Add(ds.Spinups - t.lastDisk.Spinups)
	t.spindowns.Add(ds.Spindowns - t.lastDisk.Spindowns)
	for i := range t.diskStateCy {
		t.diskStateCy[i].Add(ds.StateCycles[i] - t.lastDisk.StateCycles[i])
	}
	t.lastDisk = ds

	// Mode attribution, from the sample windows flushed since last time:
	// O(new windows), never O(whole run), and lags live time by at most
	// one window (20k cycles by default).
	samples := m.col.Samples()
	for ; t.sampleIdx < len(samples); t.sampleIdx++ {
		s := &samples[t.sampleIdx]
		for md := trace.Mode(0); md < trace.NumModes; md++ {
			if c := s.Mode[md].Cycles; c > 0 {
				t.modeCycles[md].Add(c)
			}
		}
	}
}
