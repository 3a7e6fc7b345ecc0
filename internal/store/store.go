// Package store is the one on-disk artifact store (DESIGN.md §8.3). Run
// logs, resume checkpoints, fast-forward reservoirs and sampled results
// all live in files named by (kind, benchmark, digest), hold a ckpt
// container, are written atomically, and load under one corrupt policy:
//
//   - a missing file is a plain miss (fs.ErrNotExist);
//   - any other failure — the read, the container, the decode, or the key
//     recorded inside disagreeing with the file name — is corruption: it
//     is counted, warned about on stderr and the file removed, and the
//     caller rebuilds it exactly as it would a miss.
package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"softwatt/internal/ckpt"
	"softwatt/internal/obs"
)

// Kind is one family of artifacts.
type Kind uint8

// Artifact kinds.
const (
	RunLog     Kind = iota // a complete run result (multi-section run log)
	Checkpoint             // a resumable run's machine checkpoint (CKPT)
	Reservoir              // a fast-forward checkpoint reservoir (FFRS)
	Sampled                // a sampled-simulation estimate (SRES)
)

var kinds = [...]struct{ noun, ext string }{
	RunLog:     {"run log", ".swlog"},
	Checkpoint: {"checkpoint", ".swckpt"},
	Reservoir:  {"fast-forward reservoir", ".swffr"},
	Sampled:    {"sampled result", ".swsmp"},
}

func (k Kind) String() string { return kinds[k].noun }

// Path is the file the artifact of this kind for (benchmark, digest) lives
// at within dir.
func (k Kind) Path(dir, benchmark, digest string) string {
	return filepath.Join(dir, benchmark+"-"+digest+kinds[k].ext)
}

// counters returns the kind's lookup-outcome instruments. Checkpoints
// count only corruption (a resumed run is not a cache hit).
func (k Kind) counters() (hits, misses, corrupt *obs.Counter) {
	b := obs.Batch()
	switch k {
	case RunLog:
		return b.LogCacheHits, b.LogCacheMisses, b.LogCacheCorrupt
	case Reservoir:
		return b.FFCacheHits, b.FFCacheMisses, b.FFCacheCorrupt
	case Sampled:
		return b.SampledCacheHits, b.SampledCacheMisses, b.SampledCacheCorrupt
	}
	return nil, nil, b.CheckpointCorrupt
}

// Save writes a container of sections to path, creating or replacing it
// atomically: the bytes go to a temporary file in the same directory,
// which is renamed into place, so concurrent readers see the old complete
// file, no file, or the new complete file — never a partial write.
func Save(path string, sections ...ckpt.Section) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	err = ckpt.WriteContainer(f, sections...)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Load reads the file at path whole and decodes it; decode receives the
// file's bytes and may keep subslices of them. A missing file's error
// satisfies errors.Is(err, fs.ErrNotExist); every other failure carries
// the path.
func Load[T any](path string, decode func(data []byte) (T, error)) (T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		var zero T
		return zero, err
	}
	v, err := decode(data)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("%s: %w", path, err)
	}
	return v, nil
}

// Lookup is Load under the corrupt policy, with the kind's counters: a hit
// returns the value; a miss returns an fs.ErrNotExist error; a corrupt
// file is counted, warned about and removed before its error returns.
// decode must reject a file whose recorded key is not the one path names.
func Lookup[T any](k Kind, path string, decode func(data []byte) (T, error)) (T, error) {
	hits, misses, corrupt := k.counters()
	v, err := Load(path, decode)
	if err == nil {
		if hits != nil {
			hits.Inc()
		}
		return v, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		corrupt.Inc()
		fmt.Fprintf(os.Stderr, "softwatt: corrupt %s (rebuilding): %v\n", k, err)
		os.Remove(path)
	}
	if misses != nil {
		misses.Inc()
	}
	return v, err
}
