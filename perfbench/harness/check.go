package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
)

// countNames are the exact simulated counts pinned per workload. A change
// that only makes the simulator faster leaves every one of them as it is.
var countNames = []string{"sim.cycles", "sim.insts", "mxs.skipped_cycles", "trace.log_bytes", "ffstore.bytes"}

// reference is the pinned expectation: a SHA-256 digest of each output,
// and the exact counts by workload. The harness's -pin
// mode rewrites a workload's entries from a fresh run.
type reference struct {
	Outputs map[string]string            `json:"outputs"`
	Counts  map[string]map[string]uint64 `json:"counts"`

	// pinning makes checks record what has no pinned value yet.
	pinning bool
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &ref, nil
}

func (r *reference) save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// checkOutput verifies that out is the workload's pinned output. While
// pinning, an output with no digest yet records one.
func (r *reference) checkOutput(w *workload, out string) error {
	if err := check(r, r.Outputs, w.output, digest(out)); err != nil {
		return fmt.Errorf("output: %w", err)
	}
	return nil
}

// checkCount verifies one exact count of a workload; while pinning, a
// count with no value yet records it.
func (r *reference) checkCount(w *workload, name string, got uint64) error {
	if r.Counts[w.name] == nil {
		r.Counts[w.name] = map[string]uint64{}
	}
	if err := check(r, r.Counts[w.name], name, got); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func check[T comparable](r *reference, m map[string]T, key string, got T) error {
	want, ok := m[key]
	switch {
	case ok && want == got:
		return nil
	case ok:
		return fmt.Errorf("got %v, want %v", got, want)
	case !r.pinning:
		return fmt.Errorf("got %v, nothing pinned", got)
	}
	m[key] = got
	return nil
}
