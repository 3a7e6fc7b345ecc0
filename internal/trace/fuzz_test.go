package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"softwatt/internal/ckpt"
)

// FuzzReadCheckpoint drives the collector's state decoder, the part of a
// machine checkpoint this package owns, over arbitrary payload bytes. As
// with the run log's FuzzReadLog, the property is robustness: a corrupt
// payload — including element counts that lie — must produce an error,
// never a panic or an allocation proportional to a claimed count. A
// payload that does decode must re-encode to exactly the bytes the decoder
// consumed. (The container framing around checkpoints in a reservoir is
// fuzzed by FuzzReadReservoir.)
func FuzzReadCheckpoint(f *testing.F) {
	// Seed: a valid collector payload.
	c := NewCollector(0)
	c.SetContext(ModeUser, SvcNone)
	c.AddCycles(25_000) // crosses a flush: the payload carries real samples
	c.AddInst(5)
	var cw ckpt.Writer
	c.EncodeState(&cw)
	ok := cw.Bytes()
	f.Add(ok)

	// Seed: the same payload with its sample-window count (after the
	// window size, mode, svc and the open window) claiming far more
	// windows than the bytes left.
	lie := bytes.Clone(ok)
	binary.LittleEndian.PutUint32(lie[8+1+1+SampleBytes:], 1<<32-1)
	f.Add(lie)

	// Seeds: the valid payload cut inside its flushed windows, and garbage.
	f.Add(ok[:len(ok)/2])
	f.Add([]byte("not a checkpoint"))

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh := NewCollector(0)
		r := ckpt.NewReader(data)
		fresh.DecodeState(r)
		if r.Err() != nil {
			return
		}
		var w ckpt.Writer
		fresh.EncodeState(&w)
		if used := data[:len(data)-r.Remaining()]; !bytes.Equal(w.Bytes(), used) {
			t.Fatalf("decoded state re-encodes to %d bytes, decoder consumed %d", len(w.Bytes()), len(used))
		}
	})
}
