package trace_test

// The run log's format lives in internal/core (core.SaveResult,
// core.LoadResult), which encodes RunResult with this package's bucket,
// sample and Welford encoders. These tests drive it from here, through an
// external test package, and keep their original names.

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"softwatt/internal/ckpt"
	"softwatt/internal/core"
	"softwatt/internal/disk"
	"softwatt/internal/trace"
)

// The container framing and run-log section tags the tests splice by hand
// (internal/ckpt, internal/core).
const (
	logMagic    = 0x53574154 // "SWAT"
	logVersion2 = 2
)

var (
	tagEnd  = [4]byte{'E', 'N', 'D', 0}
	tagConf = [4]byte{'C', 'O', 'N', 'F'}
	tagSamp = [4]byte{'S', 'A', 'M', 'P'}
	tagTlin = [4]byte{'T', 'L', 'I', 'N'}
	tagEprf = [4]byte{'E', 'P', 'R', 'F'}
)

// randRecord builds a pseudo-random but deterministic full run result.
func randRecord(rng *rand.Rand) *core.RunResult {
	rb := func() trace.Bucket {
		var b trace.Bucket
		for u := range b.Units {
			b.Units[u] = rng.Uint64() >> 16
		}
		b.Cycles = rng.Uint64() >> 16
		b.Insts = rng.Uint64() >> 16
		return b
	}
	rec := &core.RunResult{
		Benchmark:   "jess",
		Core:        "mxs",
		ClockHz:     float64(100+rng.Intn(400)) * 1e6,
		TotalCycles: rng.Uint64() >> 8,
		Committed:   rng.Uint64() >> 8,
		IdleCycles:  rng.Uint64() >> 8,
		DiskEnergyJ: rng.Float64(),
		Config: []trace.ConfigEntry{
			{Key: "core", Value: "mxs"},
			{Key: "clock_hz", Value: "2e+08"},
			{Key: "empty", Value: ""},
		},
		DiskStats: disk.Stats{
			Reads:      rng.Uint64() >> 32,
			Writes:     rng.Uint64() >> 32,
			BytesMoved: rng.Uint64() >> 16,
			Spinups:    uint64(rng.Intn(10)),
			Spindowns:  uint64(rng.Intn(10)),
		},
	}
	for i := range rec.DiskStats.StateCycles {
		rec.DiskStats.StateCycles[i] = rng.Uint64()
	}
	for m := range rec.ModeTotals {
		rec.ModeTotals[m] = rb()
	}
	for s := range rec.Services {
		sv := &rec.Services[s]
		for i, n := 0, rng.Intn(20); i < n; i++ {
			sv.EnergyPerInv.Add(rng.Float64() * 1e-6)
		}
		sv.Invocations = uint64(rng.Intn(10000))
		sv.Total = rb()
	}
	for i, n := 0, 1+rng.Intn(50); i < n; i++ {
		var s trace.Sample
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
			p := trace.TimelinePoint{Start: uint64(i) * 1e6, End: uint64(i+1) * 1e6, DiskJ: rng.Float64()}
			for m := range p.Mode {
				p.Mode[m] = rb()
			}
			rec.Timeline = append(rec.Timeline, p)
		}
	}
	if rng.Intn(4) > 0 {
		rec.EProfShift = uint32(rng.Intn(12))
		for i, n := 0, 1+rng.Intn(30); i < n; i++ {
			rec.EProf = append(rec.EProf, trace.EProfEntry{
				PCBucket: rng.Uint32() >> 8,
				Mode:     trace.Mode(rng.Intn(int(trace.NumModes))),
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
// field of the result — the Welford mean/variance state and disk stats
// included — must survive serialisation bit-exactly.
func TestRunRecordRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		rec := randRecord(rng)
		var buf bytes.Buffer
		if err := core.SaveResult(&buf, rec); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		got, err := core.LoadResult(buf.Bytes())
		if err != nil {
			t.Fatalf("trial %d: read: %v", trial, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("trial %d: round trip mismatch:\nwrote %+v\nread  %+v", trial, rec, got)
		}
		// The Welford state must behave identically after the trip, not
		// just compare equal: merging two restored aggregates must match
		// merging the originals.
		a := rec.Services[trace.SvcRead].EnergyPerInv
		b := got.Services[trace.SvcRead].EnergyPerInv
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
	binary.Write(&hdr, binary.LittleEndian, [4]uint32{logMagic, 1, 1<<32 - 1, uint32(trace.NumUnits)})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := core.LoadResult(hdr.Bytes())
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
	rec.Timeline = []trace.TimelinePoint{{Start: 0, End: 100}}
	var full bytes.Buffer
	if err := core.SaveResult(&full, rec); err != nil {
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
		t.Fatalf("log has no %s section", tag[:])
		return nil
	}
	cases := map[string][]byte{
		"bare header":  container(),
		"checkpoint":   container(section(trace.TagCkpt, []byte("machine state"))),
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
		if got, err := core.LoadResult(data); err == nil {
			t.Errorf("%s: loaded as a run log: %+v", name, got)
		}
	}
	if _, err := core.LoadResult(full.Bytes()); err != nil {
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
	binary.Write(&buf, binary.LittleEndian, uint32(trace.NumUnits))
	binary.Write(&buf, binary.LittleEndian, uint64(1<<40)) // claimed samples
	if _, err := core.LoadResult(buf.Bytes()); err == nil {
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
	binary.Write(&buf, binary.LittleEndian, uint32(trace.NumModes))
	binary.Write(&buf, binary.LittleEndian, uint32(trace.NumUnits))
	binary.Write(&buf, binary.LittleEndian, uint64(1<<40)) // claimed points
	if _, err := core.LoadResult(buf.Bytes()); err == nil {
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
	if _, err := core.LoadResult(mk(6, 1<<40, nil)); err == nil {
		t.Fatal("lying eprof entry count accepted")
	}
	if _, err := core.LoadResult(mk(63, 0, nil)); err == nil {
		t.Fatal("out-of-range bucket shift accepted")
	}
	badMode := mk(6, 1, func(sec *bytes.Buffer) {
		binary.Write(sec, binary.LittleEndian, uint32(0x100))          // pc bucket
		binary.Write(sec, binary.LittleEndian, uint32(trace.NumModes)) // mode out of range
		binary.Write(sec, binary.LittleEndian, uint64(1))
		binary.Write(sec, binary.LittleEndian, uint64(1))
		binary.Write(sec, binary.LittleEndian, 1.0)
	})
	if _, err := core.LoadResult(badMode); err == nil {
		t.Fatal("out-of-range mode accepted")
	}
}

// TestReadRunRecordSkipsUnknownSection: logs from a future writer with an
// extra section must still load (the documented compat rule).
func TestReadRunRecordSkipsUnknownSection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rec := randRecord(rng)
	var buf bytes.Buffer
	if err := core.SaveResult(&buf, rec); err != nil {
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
	got, err := core.LoadResult(spliced.Bytes())
	if err != nil {
		t.Fatalf("unknown section rejected: %v", err)
	}
	if got.Benchmark != rec.Benchmark || got.TotalCycles != rec.TotalCycles {
		t.Fatal("result mangled after unknown section")
	}
}

// TestReadRunRecordMissingEnd: a log cut off before the END marker is a
// truncation error, never a silent partial record.
func TestReadRunRecordMissingEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var buf bytes.Buffer
	if err := core.SaveResult(&buf, randRecord(rng)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{len(raw) - 1, len(raw) - 12, len(raw) / 2, 9, 17} {
		if _, err := core.LoadResult(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestLogRejectsGarbage: bytes that are not a container at all fail to
// load as a run log.
func TestLogRejectsGarbage(t *testing.T) {
	if _, err := core.LoadResult([]byte("not a log file")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := core.LoadResult(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

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
	if err := core.SaveResult(&v2, rec); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())

	// Seed: a v2 header with a SAMP section lying about its sample count.
	var lie bytes.Buffer
	binary.Write(&lie, binary.LittleEndian, [2]uint32{logMagic, logVersion2})
	lie.Write(tagSamp[:])
	binary.Write(&lie, binary.LittleEndian, uint64(12))
	binary.Write(&lie, binary.LittleEndian, uint32(trace.NumUnits))
	binary.Write(&lie, binary.LittleEndian, uint64(1)<<60)
	f.Add(lie.Bytes())

	// Seed: a v2 log guaranteed to carry TLIN and EPRF sections (randRecord
	// includes them only probabilistically).
	obsRec := randRecord(rng)
	if len(obsRec.Timeline) == 0 {
		obsRec.Timeline = []trace.TimelinePoint{{Start: 0, End: 1 << 20, DiskJ: 0.25}}
	}
	if len(obsRec.EProf) == 0 {
		obsRec.EProf = []trace.EProfEntry{{PCBucket: 0x8000, Mode: trace.ModeKernel, ASID: 3, Cycles: 100, Insts: 40, EnergyPJ: 5e6}}
		obsRec.EProfShift = 6
	}
	var obsLog bytes.Buffer
	if err := core.SaveResult(&obsLog, obsRec); err != nil {
		f.Fatal(err)
	}
	f.Add(obsLog.Bytes())

	// Seed: a TLIN section lying about its point count.
	var tlie bytes.Buffer
	binary.Write(&tlie, binary.LittleEndian, [2]uint32{logMagic, logVersion2})
	tlie.Write(tagTlin[:])
	binary.Write(&tlie, binary.LittleEndian, uint64(16))
	binary.Write(&tlie, binary.LittleEndian, uint32(trace.NumModes))
	binary.Write(&tlie, binary.LittleEndian, uint32(trace.NumUnits))
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
	ckpt.WriteContainer(&ck, ckpt.Section{Tag: trace.TagCkpt, Payload: []byte("state")})
	ckpt.WriteContainer(&dup, append(rec.Sections(), rec.Sections()[1])...)
	f.Add(bare.Bytes())
	f.Add(ck.Bytes())
	f.Add(dup.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := core.LoadResult(data)
		if err != nil {
			return
		}
		// Byte comparison, not DeepEqual: hostile input may carry NaN
		// float bits, which are preserved but never compare equal.
		var enc, reenc bytes.Buffer
		if err := core.SaveResult(&enc, rec); err != nil {
			t.Fatal(err)
		}
		again, err := core.LoadResult(enc.Bytes())
		if err != nil {
			t.Fatalf("re-read of an accepted record failed: %v", err)
		}
		if err := core.SaveResult(&reenc, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), reenc.Bytes()) {
			t.Fatal("accepted record does not round-trip")
		}
	})
}
