package softwatt

// Crash-safety tests for the run-log cache. SaveResultFile must never
// expose a partially-written log under its final cache path (it writes a
// temp file and renames), and RunBatch's run-log cache must treat any truncated or
// corrupt log — what a pre-rename crash used to leave behind — as a cache
// miss that heals without disturbing the other cells.

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// TestPartialLogNeverVisible hammers one cache path with repeated saves
// while a reader polls it. Under the rename protocol the path either does
// not exist yet or holds a complete log; with the old truncate-in-place
// save, the reader catches zero-length and half-written files.
func TestPartialLogNeverVisible(t *testing.T) {
	r, err := Run("compress", Options{Core: "mipsy"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cell.swlog")
	want := ResultDigest(r)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 40; i++ {
			if err := SaveResultFile(path, r); err != nil {
				t.Errorf("save %d: %v", i, err)
				return
			}
		}
	}()

	loads := 0
	for {
		select {
		case <-done:
			if loads == 0 {
				t.Fatal("reader never observed the log file")
			}
			return
		default:
		}
		if _, err := os.Stat(path); err != nil {
			continue // not yet created: fine, never partial
		}
		got, err := LoadResultFile(path)
		if err != nil {
			t.Fatalf("cache path held an unreadable (partial) log: %v", err)
		}
		if ResultDigest(got) != want {
			t.Fatalf("cache path held a foreign log: digest %s, want %s", ResultDigest(got), want)
		}
		loads++
	}
}

// TestTruncatedLogSelfHeals plants prefixes of a valid log — exactly what a
// crash mid-write leaves — at one cell's cache path and checks that a
// multi-worker cached batch re-simulates only that cell, returns results
// identical to the cold run, and leaves the file repaired.
func TestTruncatedLogSelfHeals(t *testing.T) {
	dir := t.TempDir()
	specs := []RunSpec{
		{Benchmark: "compress", Options: Options{Core: "mipsy"}},
		{Benchmark: "jess", Options: Options{Core: "mipsy"}},
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

	name, err := CacheFileName(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator()
	for _, cut := range []int{0, 1, len(whole) / 2, len(whole) - 1} {
		if err := os.WriteFile(path, whole[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		simulated.Store(0)
		healed, err := RunBatch(specs, b)
		if err != nil {
			t.Fatalf("truncation at %d bytes poisoned the batch: %v", cut, err)
		}
		if n := simulated.Load(); n != 1 {
			t.Fatalf("truncation at %d bytes re-simulated %d cells, want 1", cut, n)
		}
		for i := range specs {
			if est.RenderProfile(healed[i], "x") != est.RenderProfile(cold[i], "x") {
				t.Fatalf("truncation at %d bytes: cell %d differs from cold run", cut, i)
			}
		}
		if r, err := LoadResultFile(path); err != nil || ResultDigest(r) != ResultDigest(cold[0]) {
			t.Fatalf("truncation at %d bytes: log not healed (err=%v)", cut, err)
		}
	}
}
