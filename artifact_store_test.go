package softwatt

// Robustness of the artifact store (internal/store) over all three kinds it
// holds, each exercised through the decoder its production call site
// uses. The required outcome is always the right answer or a clean error,
// never a wrong answer: truncated files never load, a file planted under
// another key's name is corrupt (counted, removed, rebuilt), and racing
// writers of one key leave a file equal to one of their writes.

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"softwatt/internal/ffstore"
	"softwatt/internal/obs"
	"softwatt/internal/store"
	"softwatt/internal/trace"
)

// storeCase is one artifact kind under test. Artifacts exist in two keys
// (0, 1) and two variants (0, 1) per key; decode returns the variant a
// file holds, through the kind's production decoder for the given key.
type storeCase struct {
	kind    store.Kind
	names   [2]string // file names of keys 0 and 1
	corrupt *obs.Counter
	save    func(path string, key, variant int) error
	decode  func(key int) func([]byte) (int, error)
}

func storeCases(t *testing.T) []storeCase {
	t.Helper()
	const bench = "compress"

	// Run logs: the key is the digest of the recorded configuration.
	runLog := func(key, variant int) *RunResult {
		r := &RunResult{
			Benchmark:   bench,
			Core:        "mipsy",
			ClockHz:     200e6,
			Config:      []trace.ConfigEntry{{Key: "disk", Value: []string{"conventional", "idle"}[key]}},
			TotalCycles: uint64(1000 + variant),
			Samples:     make([]trace.Sample, 2),
		}
		r.Samples[1].Start, r.Samples[1].End = 20000, 40000
		return r
	}

	reservoir := func(digest string, variant int) *ffstore.Reservoir {
		return &ffstore.Reservoir{
			Benchmark:   bench,
			Digest:      digest,
			TotalCycles: uint64(1000 + variant),
			Entries:     []ffstore.Entry{{Cycle: 65536, Payload: []byte("checkpoint")}},
		}
	}
	sampled := func(digest string, variant int) *SampledResult {
		return &SampledResult{
			Benchmark:   bench,
			Core:        "mipsy",
			Digest:      digest,
			TotalCycles: uint64(1000 + variant),
			Windows:     []WindowMeasure{{Index: 0, StartCycle: 65536, Cycles: 1000, PowerW: 4.5}},
		}
	}
	variant := func(total uint64) int { return int(total) - 1000 }
	ffDigests := [2]string{"00000000000000aa", "00000000000000bb"}
	b := obs.Batch()

	return []storeCase{
		{
			kind: store.RunLog,
			names: [2]string{
				store.RunLog.Path("", bench, runLog(0, 0).Digest()),
				store.RunLog.Path("", bench, runLog(1, 0).Digest()),
			},
			corrupt: b.LogCacheCorrupt,
			save: func(path string, key, v int) error {
				return SaveResultFile(path, runLog(key, v))
			},
			decode: func(key int) func([]byte) (int, error) {
				dec := runLogDecoder(runLog(key, 0).Digest())
				return func(data []byte) (int, error) {
					r, err := dec(data)
					if err != nil {
						return -1, err
					}
					return variant(r.TotalCycles), nil
				}
			},
		},
		{
			kind: store.Reservoir,
			names: [2]string{
				store.Reservoir.Path("", bench, ffDigests[0]),
				store.Reservoir.Path("", bench, ffDigests[1]),
			},
			corrupt: b.FFCacheCorrupt,
			save: func(path string, key, v int) error {
				return ffstore.Store{Dir: filepath.Dir(path)}.Save(reservoir(ffDigests[key], v))
			},
			decode: func(key int) func([]byte) (int, error) {
				dec := ffstore.Decoder(bench, ffDigests[key])
				return func(data []byte) (int, error) {
					r, err := dec(data)
					if err != nil {
						return -1, err
					}
					return variant(r.TotalCycles), nil
				}
			},
		},
		{
			kind: store.Sampled,
			names: [2]string{
				store.Sampled.Path("", bench, ffDigests[0]),
				store.Sampled.Path("", bench, ffDigests[1]),
			},
			corrupt: b.SampledCacheCorrupt,
			save: func(path string, key, v int) error {
				return SaveSampledResultFile(path, sampled(ffDigests[key], v))
			},
			decode: func(key int) func([]byte) (int, error) {
				dec := sampledDecoder(ffDigests[key])
				return func(data []byte) (int, error) {
					r, err := dec(data)
					if err != nil {
						return -1, err
					}
					return variant(r.TotalCycles), nil
				}
			},
		},
	}
}

func TestStoreRobustness(t *testing.T) {
	for _, tc := range storeCases(t) {
		t.Run(tc.kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, tc.names[0])
			other := filepath.Join(dir, tc.names[1])
			decode := tc.decode(0)

			// expectCorrupt looks path up under key and requires the
			// corrupt policy: a non-NotExist error, one count, file gone.
			expectCorrupt := func(what, path string, key int) {
				t.Helper()
				before := tc.corrupt.Value()
				v, err := store.Lookup(tc.kind, path, tc.decode(key))
				if err == nil || errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("%s: lookup gave variant %d, err %v; want corruption", what, v, err)
				}
				if got := tc.corrupt.Value() - before; got != 1 {
					t.Fatalf("%s: corrupt counter moved by %d, want 1", what, got)
				}
				if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("%s: corrupt file left in place (%v)", what, err)
				}
			}

			if err := tc.save(path, 0, 0); err != nil {
				t.Fatal(err)
			}
			if v, err := store.Lookup(tc.kind, path, decode); err != nil || v != 0 {
				t.Fatalf("fresh file: variant %d, err %v", v, err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			t.Run("truncated", func(t *testing.T) {
				for n := 0; n < len(data); n++ {
					if v, err := decode(data[:n]); err == nil {
						t.Fatalf("truncated to %d of %d bytes: loaded variant %d", n, len(data), v)
					}
				}
				for _, n := range []int{0, 1, len(data) / 2, len(data) - 1} {
					if err := os.WriteFile(path, data[:n], 0o644); err != nil {
						t.Fatal(err)
					}
					expectCorrupt("truncated file", path, 0)
				}
			})

			t.Run("planted", func(t *testing.T) {
				if err := os.WriteFile(other, data, 0o644); err != nil {
					t.Fatal(err)
				}
				expectCorrupt("file planted under another key", other, 1)
				if err := tc.save(other, 1, 1); err != nil {
					t.Fatal(err)
				}
				if v, err := store.Lookup(tc.kind, other, tc.decode(1)); err != nil || v != 1 {
					t.Fatalf("rebuilt file: variant %d, err %v", v, err)
				}
			})

			t.Run("racing writers", func(t *testing.T) {
				for round := 0; round < 10; round++ {
					var wg sync.WaitGroup
					errs := make([]error, 2)
					for v := range errs {
						wg.Add(1)
						go func(v int) {
							defer wg.Done()
							errs[v] = tc.save(path, 0, v)
						}(v)
					}
					wg.Wait()
					for _, err := range errs {
						if err != nil {
							t.Fatal(err)
						}
					}
					v, err := store.Load(path, decode)
					if err != nil || (v != 0 && v != 1) {
						t.Fatalf("round %d: after racing writes: variant %d, err %v", round, v, err)
					}
				}
			})
		})
	}
}
