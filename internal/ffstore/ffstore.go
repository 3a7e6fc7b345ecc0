// Package ffstore persists the outcome of a sampled run's swift
// fast-forward pass (DESIGN.md §14). The reservoir a fast-forward pass
// produces — N..2N evenly spaced machine checkpoints plus the run's exact
// functional and disk figures — is a pure function of (benchmark, FF
// machine configuration, reservoir capacity), so it can be cached on disk
// and restored by any later sampled run over the same key: a warm run
// skips the fast-forward entirely and pays only for its detailed windows.
//
// Files are ckpt containers holding one FFRS section, kept in
// internal/store under the Reservoir kind: keyed by the FF configuration
// digest in the file name AND revalidated against the key stored inside,
// written atomically. The decoder treats the bytes as hostile: every count
// is validated against the bytes actually remaining before allocation.
package ffstore

import (
	"fmt"

	"softwatt/internal/ckpt"
	"softwatt/internal/disk"
	"softwatt/internal/store"
)

// TagFFRS is the container section carrying an encoded reservoir.
var TagFFRS = [4]byte{'F', 'F', 'R', 'S'}

// ffrsVersion versions the FFRS payload encoding itself (the container
// version is the outer format's).
const ffrsVersion = 1

// Entry is one reservoir checkpoint: a machine checkpoint payload and the
// fast-forward-timeline cycle it was taken at.
type Entry struct {
	Cycle   uint64
	Payload []byte
}

// Reservoir is the complete outcome of one fast-forward pass.
type Reservoir struct {
	Benchmark string
	// Digest keys the reservoir: the FF (swift) configuration digest with
	// the reservoir capacity mixed in. It appears in the file name and
	// inside the payload; Load validates both.
	Digest string

	TotalCycles uint64 // full run length on the fast-forward timeline
	Committed   uint64 // instructions committed over the full run
	DiskEnergyJ float64
	DiskStats   disk.Stats
	IdleCycles  uint64

	Entries []Entry
}

// Encode serialises the reservoir payload (the FFRS section body).
func (r *Reservoir) Encode() []byte {
	var w ckpt.Writer
	total := 0
	for i := range r.Entries {
		total += len(r.Entries[i].Payload)
	}
	w.Reserve(total + 64*len(r.Entries) + 256)
	w.U32(ffrsVersion)
	w.Str(r.Benchmark)
	w.Str(r.Digest)
	w.U64(r.TotalCycles)
	w.U64(r.Committed)
	w.F64(r.DiskEnergyJ)
	w.U64(r.IdleCycles)
	w.U64(r.DiskStats.Reads)
	w.U64(r.DiskStats.Writes)
	w.U64(r.DiskStats.BytesMoved)
	w.U64(r.DiskStats.Spinups)
	w.U64(r.DiskStats.Spindowns)
	w.U32(uint32(len(r.DiskStats.StateCycles)))
	for _, c := range r.DiskStats.StateCycles {
		w.U64(c)
	}
	w.U32(uint32(len(r.Entries)))
	for i := range r.Entries {
		w.U64(r.Entries[i].Cycle)
		w.Blob(r.Entries[i].Payload)
	}
	return w.Bytes()
}

// Decode parses a reservoir payload. Hostile input — truncated data, lying
// counts, oversized length prefixes — fails with an error, never a panic
// or an allocation beyond the bytes actually present. Entry payloads are
// subslices of data, not copies.
func Decode(data []byte) (*Reservoir, error) {
	r := ckpt.NewReader(data)
	if v := r.U32(); v != ffrsVersion && r.Err() == nil {
		return nil, fmt.Errorf("ffstore: unsupported reservoir version %d", v)
	}
	res := &Reservoir{
		Benchmark: r.Str(),
		Digest:    r.Str(),
	}
	res.TotalCycles = r.U64()
	res.Committed = r.U64()
	res.DiskEnergyJ = r.F64()
	res.IdleCycles = r.U64()
	res.DiskStats.Reads = r.U64()
	res.DiskStats.Writes = r.U64()
	res.DiskStats.BytesMoved = r.U64()
	res.DiskStats.Spinups = r.U64()
	res.DiskStats.Spindowns = r.U64()
	if n := r.Count(8); n != len(res.DiskStats.StateCycles) && r.Err() == nil {
		return nil, fmt.Errorf("ffstore: %d disk state counters, want %d",
			n, len(res.DiskStats.StateCycles))
	}
	for i := range res.DiskStats.StateCycles {
		res.DiskStats.StateCycles[i] = r.U64()
	}
	n := r.Count(8 + 4) // cycle + payload length prefix per entry, minimum
	res.Entries = make([]Entry, n)
	for i := range res.Entries {
		res.Entries[i].Cycle = r.U64()
		res.Entries[i].Payload = r.Blob()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ffstore: %w", err)
	}
	return res, nil
}

// Decoder returns the file decoder for the (benchmark, digest) key: the
// FFRS container, the payload, and the key recorded inside.
func Decoder(benchmark, digest string) func([]byte) (*Reservoir, error) {
	return func(data []byte) (*Reservoir, error) {
		payload, err := ckpt.ReadSection(data, TagFFRS)
		if err != nil {
			return nil, err
		}
		res, err := Decode(payload)
		if err != nil {
			return nil, err
		}
		if res.Benchmark != benchmark || res.Digest != digest {
			return nil, fmt.Errorf("ffstore: reservoir is for %s-%s, want %s-%s",
				res.Benchmark, res.Digest, benchmark, digest)
		}
		return res, nil
	}
}

// Store is a directory of reservoir files.
type Store struct {
	Dir string
}

// Path is the reservoir file path for a (benchmark, digest) key.
func (s Store) Path(benchmark, digest string) string {
	return store.Reservoir.Path(s.Dir, benchmark, digest)
}

// Load reads the reservoir for a (benchmark, digest) key. A missing file
// returns the underlying fs.ErrNotExist (a normal cold start); a file that
// exists but fails to decode, or whose recorded key does not match, is an
// error the caller should count as corruption and rebuild over.
func (s Store) Load(benchmark, digest string) (*Reservoir, error) {
	return store.Load(s.Path(benchmark, digest), Decoder(benchmark, digest))
}

// Save atomically writes the reservoir to its keyed path, creating the
// directory if needed.
func (s Store) Save(r *Reservoir) error {
	return store.Save(s.Path(r.Benchmark, r.Digest), ckpt.Section{Tag: TagFFRS, Payload: r.Encode()})
}
