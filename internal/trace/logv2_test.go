package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"softwatt/internal/stats"
)

// The container framing the tests splice by hand (internal/ckpt).
const (
	logMagic    = 0x53574154 // "SWAT"
	logVersion2 = 2
)

var tagEnd = [4]byte{'E', 'N', 'D', 0}

// randRecord builds a pseudo-random but deterministic full run record.
func randRecord(rng *rand.Rand) *RunRecord {
	rb := func() Bucket {
		var b Bucket
		for u := range b.Units {
			b.Units[u] = rng.Uint64() >> 16
		}
		b.Cycles = rng.Uint64() >> 16
		b.Insts = rng.Uint64() >> 16
		return b
	}
	rec := &RunRecord{
		Benchmark:   "jess",
		Core:        "mxs",
		ClockHz:     float64(100+rng.Intn(400)) * 1e6,
		TotalCycles: rng.Uint64() >> 8,
		Committed:   rng.Uint64() >> 8,
		IdleCycles:  rng.Uint64() >> 8,
		DiskEnergyJ: rng.Float64(),
		Config: []ConfigEntry{
			{Key: "core", Value: "mxs"},
			{Key: "clock_hz", Value: "2e+08"},
			{Key: "empty", Value: ""},
		},
		Disk: DiskRecord{
			Reads:       rng.Uint64() >> 32,
			Writes:      rng.Uint64() >> 32,
			BytesMoved:  rng.Uint64() >> 16,
			Spinups:     uint64(rng.Intn(10)),
			Spindowns:   uint64(rng.Intn(10)),
			StateCycles: []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()},
		},
	}
	for m := range rec.ModeTotals {
		rec.ModeTotals[m] = rb()
	}
	for s := range rec.Services {
		var w stats.Welford
		for i, n := 0, rng.Intn(20); i < n; i++ {
			w.Add(rng.Float64() * 1e-6)
		}
		rec.Services[s] = ServiceRecord{
			Invocations: uint64(rng.Intn(10000)),
			Total:       rb(),
			Energy:      w.State(),
		}
	}
	for i, n := 0, 1+rng.Intn(50); i < n; i++ {
		var s Sample
		s.Start = uint64(i) * 20000
		s.End = s.Start + 20000
		for m := range s.Mode {
			s.Mode[m] = rb()
		}
		rec.Samples = append(rec.Samples, s)
	}
	// Timeline and energy-profile sections are optional (written only when
	// non-empty); leave them absent sometimes so both shapes round-trip.
	if rng.Intn(4) > 0 {
		for i, n := 0, 1+rng.Intn(20); i < n; i++ {
			p := TimelinePoint{Start: uint64(i) * 1e6, End: uint64(i+1) * 1e6, DiskJ: rng.Float64()}
			for m := range p.Mode {
				p.Mode[m] = rb()
			}
			rec.Timeline = append(rec.Timeline, p)
		}
	}
	if rng.Intn(4) > 0 {
		rec.EProfShift = uint32(rng.Intn(12))
		for i, n := 0, 1+rng.Intn(30); i < n; i++ {
			rec.EProf = append(rec.EProf, EProfEntry{
				PCBucket: rng.Uint32() >> 8,
				Mode:     Mode(rng.Intn(int(NumModes))),
				ASID:     uint8(rng.Intn(256)),
				Cycles:   rng.Uint64() >> 16,
				Insts:    rng.Uint64() >> 16,
				EnergyPJ: rng.Float64() * 1e9,
			})
		}
	}
	return rec
}

// TestRunRecordRoundTrip is the write→read equality property test: every
// field of the record — the Welford mean/variance state and disk stats
// included — must survive serialisation bit-exactly.
func TestRunRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rec := randRecord(rng)
		var buf bytes.Buffer
		if err := WriteRunRecord(&buf, rec); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := ReadRunRecord(buf.Bytes())
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("trial %d: round trip mismatch:\nwrote %+v\nread  %+v", trial, rec, got)
		}
		// The Welford state must behave identically after the trip, not
		// just compare equal: merging two restored aggregates must match
		// merging the originals.
		a := stats.WelfordFromState(rec.Services[SvcRead].Energy)
		b := stats.WelfordFromState(got.Services[SvcRead].Energy)
		if a.Mean() != b.Mean() || a.Variance() != b.Variance() || a.N() != b.N() {
			t.Fatalf("trial %d: welford state drifted", trial)
		}
	}
}

// TestReadLogTruncatedHugeCount is the allocation-bound regression test
// for the retired version-1 header: 16 bytes claiming ~2³² samples (≈2 TB
// once expanded) must fail cleanly as an unsupported version, without an
// allocation anywhere near the claimed count.
func TestReadLogTruncatedHugeCount(t *testing.T) {
	var hdr bytes.Buffer
	binary.Write(&hdr, binary.LittleEndian, [4]uint32{logMagic, 1, 1<<32 - 1, uint32(NumUnits)})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadRunRecord(hdr.Bytes())
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 header: got %v, want an unsupported version 1 error", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("v1 header allocated %d bytes", grew)
	}
}

// TestReadRunRecordRejectsOtherContainers: the run-log reader requires
// META, CONF, MODE, SVCS, DISK and SAMP exactly once and TLIN/EPRF at most
// once. A checkpoint container, a bare header, or a log with a spliced-in
// duplicate section must fail — never load as an empty or doubled record.
func TestReadRunRecordRejectsOtherContainers(t *testing.T) {
	section := func(tag [4]byte, payload []byte) []byte {
		var b bytes.Buffer
		b.Write(tag[:])
		binary.Write(&b, binary.LittleEndian, uint64(len(payload)))
		b.Write(payload)
		return b.Bytes()
	}
	container := func(body ...[]byte) []byte {
		var b bytes.Buffer
		binary.Write(&b, binary.LittleEndian, [2]uint32{logMagic, logVersion2})
		for _, s := range body {
			b.Write(s)
		}
		b.Write(section(tagEnd, nil))
		return b.Bytes()
	}
	rec := randRecord(rand.New(rand.NewSource(6)))
	rec.Timeline = []TimelinePoint{{Start: 0, End: 100}}
	var full bytes.Buffer
	if err := WriteRunRecord(&full, rec); err != nil {
		t.Fatal(err)
	}
	body := full.Bytes()[8 : full.Len()-12] // the sections, minus header and END
	secs := rec.Sections()
	dup := func(tag [4]byte) []byte {
		for _, s := range secs {
			if s.Tag == tag {
				return container(body, section(s.Tag, s.Payload))
			}
		}
		t.Fatalf("record has no %s section", tag[:])
		return nil
	}
	cases := map[string][]byte{
		"bare header":  container(),
		"checkpoint":   container(section(TagCkpt, []byte("machine state"))),
		"no SAMP":      container(body[:bytes.Index(body, tagSamp[:])]),
		"double CONF":  dup(tagConf),
		"double SAMP":  dup(tagSamp),
		"double TLIN":  dup(tagTlin),
		"v1 header":    {0x54, 0x41, 0x57, 0x53, 1, 0, 0, 0},
		"wrong magic":  container()[1:],
		"empty":        {},
		"only a magic": container()[:4],
	}
	for name, data := range cases {
		if got, err := ReadRunRecord(data); err == nil {
			t.Errorf("%s: loaded as a run log: %+v", name, got)
		}
	}
	if _, err := ReadRunRecord(full.Bytes()); err != nil {
		t.Fatalf("the unmodified log: %v", err)
	}
}

// TestReadRunRecordHugeSampleCount: the v2 SAMP section's sample count is
// validated against the section's actual payload size before any
// allocation.
func TestReadRunRecordHugeSampleCount(t *testing.T) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, [2]uint32{logMagic, logVersion2})
	buf.Write(tagSamp[:])
	binary.Write(&buf, binary.LittleEndian, uint64(12)) // room for the prefix alone
	binary.Write(&buf, binary.LittleEndian, uint32(NumUnits))
	binary.Write(&buf, binary.LittleEndian, uint64(1<<40)) // claimed samples
	if _, err := ReadRunRecord(buf.Bytes()); err == nil {
		t.Fatal("lying sample count accepted")
	}
}

// TestReadRunRecordLyingTlinCount: the TLIN section's point count is
// validated against the section's actual payload size before allocation,
// like SAMP's.
func TestReadRunRecordLyingTlinCount(t *testing.T) {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, [2]uint32{logMagic, logVersion2})
	buf.Write(tagTlin[:])
	binary.Write(&buf, binary.LittleEndian, uint64(16)) // prefix only
	binary.Write(&buf, binary.LittleEndian, uint32(NumModes))
	binary.Write(&buf, binary.LittleEndian, uint32(NumUnits))
	binary.Write(&buf, binary.LittleEndian, uint64(1<<40)) // claimed points
	if _, err := ReadRunRecord(buf.Bytes()); err == nil {
		t.Fatal("lying timeline count accepted")
	}
}

// TestReadRunRecordBadEprf: the EPRF section rejects a lying entry count,
// an out-of-range bucket shift, and an out-of-range mode byte.
func TestReadRunRecordBadEprf(t *testing.T) {
	mk := func(shift uint32, count uint64, body func(*bytes.Buffer)) []byte {
		var buf bytes.Buffer
		binary.Write(&buf, binary.LittleEndian, [2]uint32{logMagic, logVersion2})
		var sec bytes.Buffer
		binary.Write(&sec, binary.LittleEndian, shift)
		binary.Write(&sec, binary.LittleEndian, count)
		if body != nil {
			body(&sec)
		}
		buf.Write(tagEprf[:])
		binary.Write(&buf, binary.LittleEndian, uint64(sec.Len()))
		buf.Write(sec.Bytes())
		return buf.Bytes()
	}
	if _, err := ReadRunRecord(mk(6, 1<<40, nil)); err == nil {
		t.Fatal("lying eprof entry count accepted")
	}
	if _, err := ReadRunRecord(mk(63, 0, nil)); err == nil {
		t.Fatal("out-of-range bucket shift accepted")
	}
	badMode := mk(6, 1, func(sec *bytes.Buffer) {
		binary.Write(sec, binary.LittleEndian, uint32(0x100))    // pc bucket
		binary.Write(sec, binary.LittleEndian, uint32(NumModes)) // mode out of range
		binary.Write(sec, binary.LittleEndian, uint64(1))
		binary.Write(sec, binary.LittleEndian, uint64(1))
		binary.Write(sec, binary.LittleEndian, 1.0)
	})
	if _, err := ReadRunRecord(badMode); err == nil {
		t.Fatal("out-of-range mode accepted")
	}
}

// TestReadRunRecordSkipsUnknownSection: logs from a future writer with an
// extra section must still load (the documented compat rule).
func TestReadRunRecordSkipsUnknownSection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rec := randRecord(rng)
	var buf bytes.Buffer
	if err := WriteRunRecord(&buf, rec); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Splice an unknown section in front of the first real one.
	var spliced bytes.Buffer
	spliced.Write(raw[:8])
	spliced.WriteString("XTRA")
	binary.Write(&spliced, binary.LittleEndian, uint64(5))
	spliced.WriteString("hello")
	spliced.Write(raw[8:])
	got, err := ReadRunRecord(spliced.Bytes())
	if err != nil {
		t.Fatalf("unknown section rejected: %v", err)
	}
	if got.Benchmark != rec.Benchmark || got.TotalCycles != rec.TotalCycles {
		t.Fatal("record mangled after unknown section")
	}
}

// TestReadRunRecordMissingEnd: a log cut off before the END marker is a
// truncation error, never a silent partial record.
func TestReadRunRecordMissingEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	if err := WriteRunRecord(&buf, randRecord(rng)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{len(raw) - 1, len(raw) - 12, len(raw) / 2, 9, 17} {
		if _, err := ReadRunRecord(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
