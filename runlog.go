package softwatt

// Run-log persistence. SoftWatt's methodology is post-processing: power
// numbers come from a pass over sampled simulation logs, not from the live
// simulation (disk energy excepted). This file makes that split durable —
// a complete RunResult saves to a versioned self-describing run log
// (internal/core) and loads back bit-identically, so every table and
// figure can be regenerated from saved logs with zero re-simulation, and a
// directory of logs acts as a simulation cache keyed by a digest of the
// resolved configuration.

import (
	"fmt"
	"io"

	"softwatt/internal/core"
	"softwatt/internal/store"
)

// SaveResult serialises a complete run result to w as a run log:
// identity, resolved configuration, mode totals, per-service statistics
// (including the per-invocation energy aggregation state), disk stats and
// energy, and the sample windows. A loaded result reproduces every report
// byte-identically.
func SaveResult(w io.Writer, r *RunResult) error { return core.SaveResult(w, r) }

// LoadResult deserialises a run log saved by SaveResult.
func LoadResult(r io.Reader) (*RunResult, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return core.LoadResult(data)
}

// SaveResultFile writes a run log file, creating or replacing path
// atomically: concurrent RunBatch workers see the old complete file,
// no file, or the new complete file.
func SaveResultFile(path string, r *RunResult) error {
	return store.Save(path, r.Sections()...)
}

// LoadResultFile reads a run log file.
func LoadResultFile(path string) (*RunResult, error) { return store.Load(path, core.LoadResult) }

// runLogDecoder decodes a run log file that must hold a run of digest.
func runLogDecoder(digest string) func([]byte) (*RunResult, error) {
	return func(data []byte) (*RunResult, error) {
		r, err := core.LoadResult(data)
		if err != nil {
			return nil, err
		}
		if d := r.Digest(); d != digest {
			return nil, fmt.Errorf("run log holds configuration %s, want %s", d, digest)
		}
		return r, nil
	}
}

// RunSpec names one simulation: a benchmark under explicit options.
type RunSpec struct {
	Benchmark string
	Options   Options
	// Label identifies the cell in progress reports and batch errors;
	// empty defaults to Benchmark.
	Label string
}

func (s RunSpec) label() string {
	if s.Label != "" {
		return s.Label
	}
	return s.Benchmark
}

// SpecDigest returns the configuration digest a run of spec would carry:
// the log-cache key. Two specs share a digest exactly when they resolve to
// the same benchmark and machine configuration. An unknown benchmark or an
// invalid option set is an error, so no cache file is ever named after an
// unvalidated benchmark.
func SpecDigest(spec RunSpec) (string, error) {
	if err := validateBenchmark(spec.Benchmark); err != nil {
		return "", err
	}
	cfg, err := spec.Options.MachineConfig()
	if err != nil {
		return "", err
	}
	return core.ConfigDigest(spec.Benchmark, cfg.Core.String(), core.ConfigEntries(cfg)), nil
}

// ResultDigest returns the configuration digest recorded in a result (or
// loaded from its log). A result answers for a spec when this equals
// SpecDigest(spec).
func ResultDigest(r *RunResult) string { return r.Digest() }

// CacheFileName is the log file name a spec's run uses within
// BatchOptions.LogDir.
func CacheFileName(spec RunSpec) (string, error) {
	digest, err := SpecDigest(spec)
	if err != nil {
		return "", err
	}
	return store.RunLog.Path("", spec.Benchmark, digest), nil
}

// RunBatch simulates a list of (benchmark, options) cells on the parallel
// job engine; it is the one batch entry behind every table, figure and
// sweep. Every spec's benchmark and options are validated before any cell
// simulates or any cache file is looked up, so a typo in the last cell
// fails in milliseconds. Results are in spec order. On error the returned
// slice still holds every successful cell (failed cells are nil) and the
// error is a *BatchError listing each failure, indexed in spec order.
// With b.LogDir set, cells go through the run-log cache (BatchOptions).
// Of the cells it simulates, those that differ only in DiskPolicy run
// once: the others derive from the conventional cell's disk commands
// unless their disk would spin up (DESIGN.md §17).
func RunBatch(specs []RunSpec, b BatchOptions) ([]*RunResult, error) {
	digests := make([]string, len(specs))
	for i, sp := range specs {
		d, err := SpecDigest(sp)
		if err != nil {
			return nil, err
		}
		digests[i] = d
	}
	if b.LogDir == "" {
		return runBatch(specs, b)
	}
	results := make([]*RunResult, len(specs))
	var missIdx []int
	var missSpecs []RunSpec
	var missPaths []string
	var hitLabels []string
	for i, sp := range specs {
		path := store.RunLog.Path(b.LogDir, sp.Benchmark, digests[i])
		r, ok, err := store.Lookup(store.RunLog, path, runLogDecoder(digests[i]))
		if err != nil {
			return results, err
		}
		if ok {
			results[i] = r
			hitLabels = append(hitLabels, sp.label())
			continue
		}
		missIdx = append(missIdx, i)
		missSpecs = append(missSpecs, sp)
		missPaths = append(missPaths, path)
	}
	// Progress covers every cell of the sweep, not just the simulated ones:
	// each hit is reported as done immediately, and the simulated cells'
	// completions are offset past them. Without this a partially warm cache
	// reported e.g. "3/3" for a 10-cell sweep.
	total := len(specs)
	hits := len(hitLabels)
	if b.Progress != nil {
		for k, label := range hitLabels {
			b.Progress(k+1, total, label, nil)
		}
		innerProgress := b.Progress
		b.Progress = func(done, _ int, label string, err error) {
			innerProgress(hits+done, total, label, err)
		}
	}
	if len(missSpecs) == 0 {
		return results, nil
	}
	inner := b.OnResult
	b.OnResult = func(index int, label string, r *RunResult) error {
		if err := SaveResultFile(missPaths[index], r); err != nil {
			return err
		}
		if inner != nil {
			return inner(missIdx[index], label, r)
		}
		return nil
	}
	miss, err := runBatch(missSpecs, b)
	for k, i := range missIdx {
		results[i] = miss[k]
	}
	// Remap batch-error indices from miss order back to spec order.
	if be, ok := err.(*BatchError); ok {
		for _, je := range be.Jobs {
			if je.Index >= 0 && je.Index < len(missIdx) {
				je.Index = missIdx[je.Index]
			}
		}
	}
	return results, err
}

// RunBatchCached is RunBatch with b.LogDir set to dir.
//
// Deprecated: set BatchOptions.LogDir and call RunBatch. This forwarder
// remains only for the traced replay in perfbench/replay (suite.go).
func RunBatchCached(specs []RunSpec, dir string, b BatchOptions) ([]*RunResult, error) {
	b.LogDir = dir
	return RunBatch(specs, b)
}
