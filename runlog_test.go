package softwatt

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"softwatt/internal/core"
	"softwatt/internal/obs"
	"softwatt/internal/store"
)

// TestLogsVsLiveEquivalence is the acceptance check for the run-log
// subsystem: every report rendered from a loaded log must be byte-identical
// to the one rendered from the live result.
func TestLogsVsLiveEquivalence(t *testing.T) {
	live, err := Run("jess", Options{Core: "mipsy"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "jess.swlog")
	if err := SaveResultFile(path, live); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, loaded) {
		t.Fatal("loaded result differs from live result")
	}

	est := NewEstimator()
	if !reflect.DeepEqual(est.Summarize(live), est.Summarize(loaded)) {
		t.Fatal("summary diverged")
	}
	renders := []struct {
		name       string
		live, load string
	}{
		{"profile", est.RenderProfile(live, "jess"), est.RenderProfile(loaded, "jess")},
		{"table2", est.RenderTable2([]*RunResult{live}), est.RenderTable2([]*RunResult{loaded})},
		{"table4", est.RenderTable4([]*RunResult{live}), est.RenderTable4([]*RunResult{loaded})},
		{"table5", est.RenderTable5([]*RunResult{live}), est.RenderTable5([]*RunResult{loaded})},
		{"fig6", est.RenderFig6([]*RunResult{live}), est.RenderFig6([]*RunResult{loaded})},
		{"fig8", est.RenderFig8([]*RunResult{live}), est.RenderFig8([]*RunResult{loaded})},
		{"budget", est.RenderBudget([]*RunResult{live}, "jess"), est.RenderBudget([]*RunResult{loaded}, "jess")},
	}
	for _, r := range renders {
		if r.live != r.load {
			t.Errorf("%s not byte-identical from log:\nlive:\n%s\nlog:\n%s", r.name, r.live, r.load)
		}
	}
}

// TestRunBatchCached checks the run-log cache contract of RunBatch with
// LogDir set: a cold call simulates and saves every cell, a warm call
// performs zero simulations yet returns render-identical results, and a
// corrupt log file heals by re-simulating only its own cell.
func TestRunBatchCached(t *testing.T) {
	dir := t.TempDir()
	specs := []RunSpec{
		{Benchmark: "compress", Options: Options{Core: "mipsy"}},
		{Benchmark: "jess", Options: Options{Core: "mipsy", DiskPolicy: "idle"}, Label: "jess/idle"},
	}

	var simulated atomic.Int64
	b := BatchOptions{
		Workers:  2,
		OnResult: func(int, string, *RunResult) error { simulated.Add(1); return nil },
		LogDir:   dir,
	}

	cold, err := RunBatch(specs, b)
	if err != nil {
		t.Fatal(err)
	}
	if n := simulated.Load(); n != 2 {
		t.Fatalf("cold run simulated %d cells, want 2", n)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.swlog"))
	if len(files) != 2 {
		t.Fatalf("cold run left %d log files, want 2: %v", len(files), files)
	}

	// The deprecated forwarder is the same cache: it must hit every cell.
	simulated.Store(0)
	b.LogDir = ""
	warm, err := RunBatchCached(specs, dir, b)
	b.LogDir = dir
	if err != nil {
		t.Fatal(err)
	}
	if n := simulated.Load(); n != 0 {
		t.Fatalf("warm run simulated %d cells, want 0", n)
	}
	est := NewEstimator()
	for i := range specs {
		if est.RenderProfile(cold[i], "x") != est.RenderProfile(warm[i], "x") {
			t.Fatalf("cell %d renders differently from cache", i)
		}
	}

	// Corrupt one log: only that cell re-simulates.
	name, err := CacheFileName(specs[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	simulated.Store(0)
	healed, err := RunBatch(specs, b)
	if err != nil {
		t.Fatal(err)
	}
	if n := simulated.Load(); n != 1 {
		t.Fatalf("healing run simulated %d cells, want 1", n)
	}
	if est.RenderProfile(healed[1], "x") != est.RenderProfile(cold[1], "x") {
		t.Fatal("healed cell differs from original")
	}
}

// TestCachedProgressCoversAllCells is the regression test for the
// partially-warm-cache progress bug: Progress used to fire with
// total = len(missSpecs), so a sweep with cache hits reported e.g. "1/1"
// for a 2-cell sweep. Every Progress call must report the full cell count,
// hits included, and the final call must be done == total.
func TestCachedProgressCoversAllCells(t *testing.T) {
	dir := t.TempDir()
	specs := []RunSpec{
		{Benchmark: "compress", Options: Options{Core: "mipsy"}},
		{Benchmark: "jess", Options: Options{Core: "mipsy"}},
	}

	// Warm exactly one cell.
	if _, err := RunBatch(specs[:1], BatchOptions{LogDir: dir}); err != nil {
		t.Fatal(err)
	}

	type call struct {
		done, total int
		label       string
	}
	var calls []call
	b := BatchOptions{
		Workers: 1,
		Progress: func(done, total int, label string, err error) {
			calls = append(calls, call{done, total, label})
		},
		LogDir: dir,
	}
	if _, err := RunBatch(specs, b); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 {
		t.Fatalf("progress fired %d times, want 2 (hit + miss): %+v", len(calls), calls)
	}
	for _, c := range calls {
		if c.total != len(specs) {
			t.Fatalf("progress total = %d, want %d (all cells): %+v", c.total, len(specs), calls)
		}
	}
	last := calls[len(calls)-1]
	if last.done != len(specs) {
		t.Fatalf("final progress done = %d, want %d: %+v", last.done, len(specs), calls)
	}
	if calls[0] != (call{1, 2, "compress"}) {
		t.Fatalf("cache hit not reported first: %+v", calls)
	}
}

// TestCachedCorruptLogCounted: a cache file that exists but cannot load is
// a distinct observable event from a plain not-exist miss — it must bump
// the corrupt counter; a cold miss must not.
func TestCachedCorruptLogCounted(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{Benchmark: "compress", Options: Options{Core: "mipsy"}}

	before := obs.Batch().LogCacheCorrupt.Value()
	if _, err := RunBatch([]RunSpec{spec}, BatchOptions{LogDir: dir}); err != nil {
		t.Fatal(err)
	}
	if got := obs.Batch().LogCacheCorrupt.Value(); got != before {
		t.Fatalf("cold miss bumped corrupt counter by %d", got-before)
	}

	name, err := CacheFileName(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	var simulated atomic.Int64
	b := BatchOptions{OnResult: func(int, string, *RunResult) error { simulated.Add(1); return nil }, LogDir: dir}
	if _, err := RunBatch([]RunSpec{spec}, b); err != nil {
		t.Fatal(err)
	}
	if got := obs.Batch().LogCacheCorrupt.Value(); got != before+1 {
		t.Fatalf("corrupt log bumped counter by %d, want 1", got-before)
	}
	if simulated.Load() != 1 {
		t.Fatal("corrupt log did not re-simulate")
	}
}

// TestCacheRejectsWrongDigest: a log for a different configuration sitting
// at the right path must not answer for the spec; it is corrupt under the
// store's policy, so it is counted and re-simulated over.
func TestCacheRejectsWrongDigest(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{Benchmark: "compress", Options: Options{Core: "mipsy"}}
	other := RunSpec{Benchmark: "compress", Options: Options{Core: "mipsy", DiskPolicy: "idle"}}

	r, err := Run(other.Benchmark, other.Options)
	if err != nil {
		t.Fatal(err)
	}
	name, err := CacheFileName(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Plant the other config's result under spec's cache name.
	if err := SaveResultFile(filepath.Join(dir, name), r); err != nil {
		t.Fatal(err)
	}

	var simulated atomic.Int64
	b := BatchOptions{OnResult: func(int, string, *RunResult) error { simulated.Add(1); return nil }, LogDir: dir}
	before := obs.Batch().LogCacheCorrupt.Value()
	got, err := RunBatch([]RunSpec{spec}, b)
	if err != nil {
		t.Fatal(err)
	}
	if simulated.Load() != 1 {
		t.Fatal("mismatched log accepted as cache hit")
	}
	if n := obs.Batch().LogCacheCorrupt.Value() - before; n != 1 {
		t.Fatalf("mismatched log bumped the corrupt counter by %d, want 1", n)
	}
	if got[0].Digest() != mustDigest(t, spec) {
		t.Fatal("result carries wrong digest")
	}
}

func mustDigest(t *testing.T, spec RunSpec) string {
	t.Helper()
	d, err := SpecDigest(spec)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLogDirUnknownBenchmark: with a run-log cache, an unknown benchmark
// must fail validation before any lookup and return the "unknown
// benchmark" error. The cached path used to look the cell up, then index
// the nil result slice of the failed inner batch and panic.
func TestLogDirUnknownBenchmark(t *testing.T) {
	res, err := RunBatch([]RunSpec{{Benchmark: "nosuch", Options: Options{Core: "mipsy"}}},
		BatchOptions{LogDir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Fatalf("got error %v, want an unknown benchmark error", err)
	}
	if res != nil {
		t.Fatalf("got %d results for a rejected batch", len(res))
	}
}

// TestCacheLookupStaysInDir: a benchmark name that climbs out of the cache
// directory must never reach the store. A file planted beside the cache
// directory, under the name the run-log or sampled-result lookup would
// resolve "../victim" to, used to be judged corrupt and deleted; it must
// survive, and both calls must fail as an unknown benchmark.
func TestCacheLookupStaysInDir(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "cache")
	const bench = "../victim"
	opt := Options{Core: "mipsy"}
	so := SampleOptions{Windows: 2}
	cfg, err := opt.MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	planted := []string{
		store.RunLog.Path(dir, bench, core.ConfigDigest(bench, cfg.Core.String(), core.ConfigEntries(cfg))),
		store.Sampled.Path(dir, bench, sampledDigest(bench, cfg, so)),
	}
	for _, p := range planted {
		if filepath.Dir(p) != parent {
			t.Fatalf("planted %s is not beside the cache directory", p)
		}
		if err := os.WriteFile(p, []byte("not a cache file"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, err = RunBatch([]RunSpec{{Benchmark: bench, Options: opt}}, BatchOptions{LogDir: dir})
	if err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("run-log lookup: got error %v, want an unknown benchmark error", err)
	}
	so.LogDir = dir
	_, err = RunSampled(bench, opt, so)
	if err == nil || !strings.Contains(err.Error(), "unknown benchmark") {
		t.Errorf("sampled lookup: got error %v, want an unknown benchmark error", err)
	}
	for _, p := range planted {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("file outside the cache directory was touched: %v", err)
		}
	}
}
