package ffstore

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"reflect"
	"testing"

	"softwatt/internal/ckpt"
)

// testReservoir builds a reservoir exercising every encoded field.
func testReservoir() *Reservoir {
	r := &Reservoir{
		Benchmark:   "compress",
		Digest:      "0123456789abcdef",
		TotalCycles: 1_065_138,
		Committed:   900_123,
		DiskEnergyJ: 12.5,
		IdleCycles:  400_000,
		Entries: []Entry{
			{Cycle: 131_072, Payload: []byte("checkpoint-one")},
			{Cycle: 262_144, Payload: []byte("a longer checkpoint payload")},
			{Cycle: 393_216, Payload: []byte{0x00, 0xff}},
		},
	}
	r.DiskStats.Reads = 7
	r.DiskStats.Writes = 3
	r.DiskStats.BytesMoved = 40_960
	r.DiskStats.Spinups = 2
	r.DiskStats.Spindowns = 1
	for i := range r.DiskStats.StateCycles {
		r.DiskStats.StateCycles[i] = uint64(1000*i + 1)
	}
	return r
}

func TestReservoirRoundTrip(t *testing.T) {
	r := testReservoir()
	got, err := Decode(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("reservoir changed across encode/decode:\nin  %+v\nout %+v", r, got)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	valid := testReservoir().Encode()
	t.Run("version", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[0] ^= 0xff
		if _, err := Decode(data); err == nil {
			t.Fatal("decoded a reservoir with a mangled version")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{0, 1, 4, len(valid) / 2, len(valid) - 1} {
			if _, err := Decode(valid[:n]); err == nil {
				t.Fatalf("decoded a reservoir truncated to %d bytes", n)
			}
		}
	})
}

func TestStoreRoundTrip(t *testing.T) {
	st := Store{Dir: t.TempDir()}
	r := testReservoir()
	if err := st.Save(r); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(r.Benchmark, r.Digest)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("reservoir changed across save/load:\nin  %+v\nout %+v", r, got)
	}

	// A missing key is the plain cold-start error.
	if _, err := st.Load("compress", "ffffffffffffffff"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing reservoir: got %v, want fs.ErrNotExist", err)
	}

	// A file whose recorded key disagrees with its name is corruption, not
	// a cold start: it must load with a non-NotExist error so callers count
	// it and rebuild.
	wrong := st.Path("compress", "ffffffffffffffff")
	if err := os.Rename(st.Path(r.Benchmark, r.Digest), wrong); err != nil {
		t.Fatal(err)
	}
	_, err = st.Load("compress", "ffffffffffffffff")
	if err == nil {
		t.Fatal("loaded a reservoir under the wrong key")
	}
	if errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("key mismatch reported as fs.ErrNotExist: %v", err)
	}
}

// FuzzReadReservoir drives the reservoir decoder — bare and as a keyed
// file through the FFRS container — over arbitrary bytes. The property is the package's
// stated contract: hostile input (truncated data, lying counts, oversized
// length prefixes) returns an error, never a panic or an allocation beyond
// the bytes actually present.
func FuzzReadReservoir(f *testing.F) {
	payload := testReservoir().Encode()
	f.Add(payload)
	var container bytes.Buffer
	if err := ckpt.WriteContainer(&container, ckpt.Section{Tag: TagFFRS, Payload: payload}); err != nil {
		f.Fatal(err)
	}
	f.Add(container.Bytes())
	f.Add(payload[:len(payload)/2])
	f.Add(container.Bytes()[:container.Len()/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := Decode(data); err == nil {
			// Whatever decoded must re-encode and decode to the same bytes.
			// (Byte comparison, not DeepEqual: hostile input may carry NaN
			// float bits, which are preserved but never compare equal.)
			enc := r.Encode()
			rt, err := Decode(enc)
			if err != nil {
				t.Fatalf("re-decode of accepted reservoir failed: %v", err)
			}
			if !bytes.Equal(enc, rt.Encode()) {
				t.Fatal("accepted reservoir does not round-trip")
			}
		}
		Decoder("compress", "0123456789abcdef")(data)
	})
}
