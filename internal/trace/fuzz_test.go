package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"softwatt/internal/ckpt"
)

// FuzzReadLog drives the run-log reader over arbitrary bytes. The
// property under test is robustness: arbitrary input — including corrupt
// headers that claim enormous record counts — must produce an error or a
// record, never a panic or a multi-gigabyte allocation, and any record
// that loads must re-encode to a log that loads back to the same bytes.
func FuzzReadLog(f *testing.F) {
	// Seed: a valid log.
	rng := rand.New(rand.NewSource(10))
	rec := randRecord(rng)
	var v2 bytes.Buffer
	if err := WriteRunRecord(&v2, rec); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())

	// Seed: a v2 header with a SAMP section lying about its sample count.
	var lie bytes.Buffer
	binary.Write(&lie, binary.LittleEndian, [2]uint32{logMagic, logVersion2})
	lie.Write(tagSamp[:])
	binary.Write(&lie, binary.LittleEndian, uint64(12))
	binary.Write(&lie, binary.LittleEndian, uint32(NumUnits))
	binary.Write(&lie, binary.LittleEndian, uint64(1)<<60)
	f.Add(lie.Bytes())

	// Seed: a v2 log guaranteed to carry TLIN and EPRF sections (randRecord
	// includes them only probabilistically).
	obsRec := randRecord(rng)
	if len(obsRec.Timeline) == 0 {
		obsRec.Timeline = []TimelinePoint{{Start: 0, End: 1 << 20, DiskJ: 0.25}}
	}
	if len(obsRec.EProf) == 0 {
		obsRec.EProf = []EProfEntry{{PCBucket: 0x8000, Mode: ModeKernel, ASID: 3, Cycles: 100, Insts: 40, EnergyPJ: 5e6}}
		obsRec.EProfShift = 6
	}
	var obsLog bytes.Buffer
	if err := WriteRunRecord(&obsLog, obsRec); err != nil {
		f.Fatal(err)
	}
	f.Add(obsLog.Bytes())

	// Seed: a TLIN section lying about its point count.
	var tlie bytes.Buffer
	binary.Write(&tlie, binary.LittleEndian, [2]uint32{logMagic, logVersion2})
	tlie.Write(tagTlin[:])
	binary.Write(&tlie, binary.LittleEndian, uint64(16))
	binary.Write(&tlie, binary.LittleEndian, uint32(NumModes))
	binary.Write(&tlie, binary.LittleEndian, uint32(NumUnits))
	binary.Write(&tlie, binary.LittleEndian, uint64(1)<<60)
	f.Add(tlie.Bytes())

	// Seed: a v2 stream with a huge unknown tag/size pair, and garbage.
	var junk bytes.Buffer
	binary.Write(&junk, binary.LittleEndian, [2]uint32{logMagic, logVersion2})
	junk.WriteString("JUNK")
	binary.Write(&junk, binary.LittleEndian, uint64(1)<<62)
	f.Add(junk.Bytes())
	f.Add([]byte("not a log at all"))

	// Seeds: containers that are not run logs — a bare header and END, a
	// checkpoint — and a log with a duplicated CONF section.
	var bare, ck, dup bytes.Buffer
	ckpt.WriteContainer(&bare)
	ckpt.WriteContainer(&ck, ckpt.Section{Tag: TagCkpt, Payload: []byte("state")})
	ckpt.WriteContainer(&dup, append(rec.Sections(), rec.Sections()[1])...)
	f.Add(bare.Bytes())
	f.Add(ck.Bytes())
	f.Add(dup.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := ReadRunRecord(data)
		if err != nil {
			return
		}
		// Byte comparison, not DeepEqual: hostile input may carry NaN
		// float bits, which are preserved but never compare equal.
		var enc, reenc bytes.Buffer
		if err := WriteRunRecord(&enc, rec); err != nil {
			t.Fatal(err)
		}
		again, err := ReadRunRecord(enc.Bytes())
		if err != nil {
			t.Fatalf("re-read of an accepted record failed: %v", err)
		}
		if err := WriteRunRecord(&reenc, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), reenc.Bytes()) {
			t.Fatal("accepted record does not round-trip")
		}
	})
}

// FuzzReadCheckpoint drives the CKPT container reader and the collector's
// state decoder over arbitrary bytes. As with FuzzReadLog the property is
// robustness: a corrupt container or payload — including section sizes and
// element counts that lie — must produce an error, never a panic or an
// allocation proportional to a claimed count.
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
