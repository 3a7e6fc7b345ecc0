package obs

// Pre-wired metric bundles for the two publishers whose names are shared
// across packages: the simulation totals (published by every machine, read
// back by the throughput sampler) and the batch engine (published by the
// facade's run pipeline). Bundles resolve their registry handles once;
// publishers then touch only atomic instruments.

import "sync"

// SimMetrics are the process-wide simulation totals.
type SimMetrics struct {
	// Cycles and Insts aggregate across all concurrently running machines;
	// the /metrics sampler derives Mcycles/s and Minsts/s from them.
	Cycles *Counter
	Insts  *Counter
	// MachinesActive is the number of machines currently inside Run.
	MachinesActive *Gauge
}

var (
	simOnce sync.Once
	sim     *SimMetrics
)

// Sim returns the simulation totals bundle (default registry).
func Sim() *SimMetrics {
	simOnce.Do(func() {
		sim = &SimMetrics{
			Cycles: def.Counter("softwatt_sim_cycles_total",
				"Simulated cycles across all machines.", ""),
			Insts: def.Counter("softwatt_sim_insts_total",
				"Committed instructions across all machines.", ""),
			MachinesActive: def.Gauge("softwatt_machines_active",
				"Machines currently simulating.", ""),
		}
	})
	return sim
}

// BatchMetrics are the batch run engine's instruments.
type BatchMetrics struct {
	// WorkersBusy is the number of worker goroutines currently running a
	// cell; QueueDepth is the number of cells not yet picked up.
	WorkersBusy *Gauge
	QueueDepth  *Gauge
	CellsDone   *Counter
	CellsFailed *Counter
	// CellsDerived counts cells whose result RunBatch derived from their
	// disk-policy class's conventional run instead of simulating them.
	CellsDerived *Counter
	// CellSeconds observes each simulated cell's wall time.
	CellSeconds *Histogram
	// LogCacheHits/Misses count run-log cache outcomes (BatchOptions.LogDir).
	LogCacheHits   *Counter
	LogCacheMisses *Counter
	// LogCacheCorrupt counts cache files that existed but failed to load —
	// a corrupted or truncated log, distinct from a plain miss.
	LogCacheCorrupt *Counter
	// FFCacheHits/Misses/Corrupt count fast-forward reservoir cache
	// outcomes (sampled runs with an -ffcache directory). A hit skips the
	// swift fast-forward pass entirely; corrupt files are rebuilt.
	FFCacheHits    *Counter
	FFCacheMisses  *Counter
	FFCacheCorrupt *Counter
	// SampledCacheHits/Misses/Corrupt count saved-SampledResult cache
	// outcomes (SampleOptions.LogDir): a hit re-renders a sampled estimate
	// with zero simulation, mirroring the run-log cache contract.
	SampledCacheHits    *Counter
	SampledCacheMisses  *Counter
	SampledCacheCorrupt *Counter
}

var (
	batchOnce sync.Once
	batch     *BatchMetrics
)

// cellSecondsBounds spans sub-second unit-test cells up to multi-minute
// MXS benchmark runs.
var cellSecondsBounds = []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500}

// Batch returns the batch engine bundle (default registry).
func Batch() *BatchMetrics {
	batchOnce.Do(func() {
		batch = &BatchMetrics{
			WorkersBusy: def.Gauge("softwatt_batch_workers_busy",
				"Batch worker goroutines currently running a cell.", ""),
			QueueDepth: def.Gauge("softwatt_batch_queue_depth",
				"Batch cells waiting to be picked up by a worker.", ""),
			CellsDone: def.Counter("softwatt_batch_cells_done_total",
				"Batch cells finished (success or failure).", ""),
			CellsFailed: def.Counter("softwatt_batch_cells_failed_total",
				"Batch cells that finished with an error.", ""),
			CellsDerived: def.Counter("softwatt_cells_derived_total",
				"Batch cells derived from their class's conventional run by disk replay, not simulated.", ""),
			CellSeconds: def.Histogram("softwatt_batch_cell_seconds",
				"Wall time per batch cell.", "", cellSecondsBounds),
			LogCacheHits: def.Counter("softwatt_logcache_hits_total",
				"Run-log cache lookups answered from a saved log.", ""),
			LogCacheMisses: def.Counter("softwatt_logcache_misses_total",
				"Run-log cache lookups that had to simulate.", ""),
			LogCacheCorrupt: def.Counter("softwatt_logcache_corrupt_total",
				"Run-log cache files present but unreadable (corrupt/truncated).", ""),
			FFCacheHits: def.Counter("softwatt_ffcache_hits_total",
				"Fast-forward reservoir cache lookups answered from a saved reservoir.", ""),
			FFCacheMisses: def.Counter("softwatt_ffcache_misses_total",
				"Fast-forward reservoir cache lookups that had to fast-forward.", ""),
			FFCacheCorrupt: def.Counter("softwatt_ffcache_corrupt_total",
				"Fast-forward reservoir cache files present but unreadable (rebuilt).", ""),
			SampledCacheHits: def.Counter("softwatt_sampledcache_hits_total",
				"Sampled-result cache lookups answered from a saved result.", ""),
			SampledCacheMisses: def.Counter("softwatt_sampledcache_misses_total",
				"Sampled-result cache lookups that had to sample.", ""),
			SampledCacheCorrupt: def.Counter("softwatt_sampledcache_corrupt_total",
				"Sampled-result cache files present but unreadable (re-sampled).", ""),
		}
	})
	return batch
}
