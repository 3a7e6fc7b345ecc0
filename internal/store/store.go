// Package store is the one on-disk artifact store (DESIGN.md §8.3). Run
// logs, fast-forward reservoirs and sampled results all live in files
// named by (kind, benchmark, digest), hold a ckpt container, are written
// atomically, and load under one corrupt policy:
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
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"softwatt/internal/ckpt"
	"softwatt/internal/obs"
)

// Kind is one family of artifacts.
type Kind uint8

// Artifact kinds.
const (
	RunLog    Kind = iota // a complete run result (multi-section run log)
	Reservoir             // a fast-forward checkpoint reservoir (FFRS)
	Sampled               // a sampled-simulation estimate (SRES)
)

var kinds = [...]struct{ noun, ext string }{
	RunLog:    {"run log", ".swlog"},
	Reservoir: {"fast-forward reservoir", ".swffr"},
	Sampled:   {"sampled result", ".swsmp"},
}

func (k Kind) String() string { return kinds[k].noun }

// Path is the file the artifact of this kind for (benchmark, digest) lives
// at within dir.
func (k Kind) Path(dir, benchmark, digest string) string {
	return filepath.Join(dir, benchmark+"-"+digest+kinds[k].ext)
}

// counters returns the kind's lookup-outcome instruments.
func (k Kind) counters() (hits, misses, corrupt *obs.Counter) {
	b := obs.Batch()
	switch k {
	case RunLog:
		return b.LogCacheHits, b.LogCacheMisses, b.LogCacheCorrupt
	case Reservoir:
		return b.FFCacheHits, b.FFCacheMisses, b.FFCacheCorrupt
	}
	return b.SampledCacheHits, b.SampledCacheMisses, b.SampledCacheCorrupt
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
	f, err := createTemp(dir, base)
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

// createTemp creates a new file base.tmp<random> in dir for Save. It is
// os.CreateTemp but with mode 0644 under the umask, as the directory's
// 0755 is: CreateTemp's fixed 0600 would keep every artifact in a shared
// cache directory from the directory's other readers.
func createTemp(dir, base string) (*os.File, error) {
	for {
		name := filepath.Join(dir, base+".tmp"+strconv.FormatUint(rand.Uint64(), 36))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
		if !errors.Is(err, fs.ErrExist) {
			return f, err
		}
	}
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
		hits.Inc()
		return v, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		corrupt.Inc()
		fmt.Fprintf(os.Stderr, "softwatt: corrupt %s (rebuilding): %v\n", k, err)
		os.Remove(path)
	}
	misses.Inc()
	return v, err
}
