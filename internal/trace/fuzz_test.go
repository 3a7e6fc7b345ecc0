package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

	"softwatt/internal/ckpt"
)

// The container framing the checkpoint seeds splice by hand
// (internal/ckpt).
const (
	logMagic    = 0x53574154 // "SWAT"
	logVersion2 = 2
)

var tagEnd = [4]byte{'E', 'N', 'D', 0}

// FuzzReadCheckpoint drives the CKPT container reader and the collector's
// state decoder over arbitrary bytes. As with the run log's FuzzReadLog,
// the property is robustness: a corrupt container or payload — including
// section sizes and element counts that lie — must produce an error, never
// a panic or an allocation proportional to a claimed count.
func FuzzReadCheckpoint(f *testing.F) {
	// Seed: a valid checkpoint container around a valid collector payload.
	c := NewCollector(0)
	c.SetContext(ModeUser, SvcNone)
	c.AddCycles(25_000) // crosses a flush: the payload carries real samples
	c.AddInst(5)
	var cw ckpt.Writer
	c.EncodeState(&cw)
	var ok bytes.Buffer
	if err := ckpt.WriteContainer(&ok, ckpt.Section{Tag: TagCkpt, Payload: cw.Bytes()}); err != nil {
		f.Fatal(err)
	}
	f.Add(ok.Bytes())

	// Seed: a CKPT section whose size field lies past the actual bytes.
	var lie bytes.Buffer
	binary.Write(&lie, binary.LittleEndian, [2]uint32{logMagic, logVersion2})
	lie.Write(TagCkpt[:])
	binary.Write(&lie, binary.LittleEndian, uint64(1)<<40)
	f.Add(lie.Bytes())

	// Seed: an unknown section before CKPT (must be skipped), then END with
	// no CKPT at all (must be an error).
	var skip bytes.Buffer
	binary.Write(&skip, binary.LittleEndian, [2]uint32{logMagic, logVersion2})
	skip.WriteString("JUNK")
	binary.Write(&skip, binary.LittleEndian, uint64(4))
	skip.WriteString("data")
	skip.Write(tagEnd[:])
	binary.Write(&skip, binary.LittleEndian, uint64(0))
	f.Add(skip.Bytes())
	f.Add([]byte("not a checkpoint"))

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := ckpt.ReadSection(data, TagCkpt)
		if err != nil {
			return
		}
		// The payload parsed out of the container is itself attacker-shaped
		// bytes; the state decoder must fail through the reader's poisoned
		// error, not through a panic or a count-sized allocation.
		fresh := NewCollector(0)
		r := ckpt.NewReader(payload)
		fresh.DecodeState(r)
		_ = r.Err()
	})
}
