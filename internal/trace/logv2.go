package trace

import (
	"fmt"
	"io"

	"softwatt/internal/ckpt"
	"softwatt/internal/stats"
)

// The run log captures a complete run — identity, resolved configuration,
// mode totals, per-service statistics including the Welford
// per-invocation-energy state, disk activity and energy, and the sample
// windows — so every report can be regenerated from the log alone, with no
// re-simulation. It is a ckpt container (magic "SWAT", version 2) whose
// sections are listed in recordSections, each encoded with the ckpt
// primitives:
//
//	META CONF MODE SVCS DISK SAMP   required, exactly once each
//	TLIN EPRF                       optional, at most once each
//
// All integers are little-endian; floats are IEEE-754 bit patterns, so
// values round-trip exactly. Readers skip sections with unknown tags and
// unrecognised trailing bytes inside known sections, which is how future
// minor revisions stay readable; dimension counts (modes, units, services)
// are embedded in each section and checked against the running binary.
// Record counts are never trusted for allocation: each is bounded by the
// bytes its section actually holds, so a corrupt or truncated log fails
// with an error instead of an enormous allocation.

// Section tags.
var (
	tagMeta = [4]byte{'M', 'E', 'T', 'A'}
	tagConf = [4]byte{'C', 'O', 'N', 'F'}
	tagMode = [4]byte{'M', 'O', 'D', 'E'}
	tagSvcs = [4]byte{'S', 'V', 'C', 'S'}
	tagDisk = [4]byte{'D', 'I', 'S', 'K'}
	tagSamp = [4]byte{'S', 'A', 'M', 'P'}
	tagTlin = [4]byte{'T', 'L', 'I', 'N'}
	tagEprf = [4]byte{'E', 'P', 'R', 'F'}
)

// Sanity caps on untrusted counts. Each bounds the allocation a hostile
// header field can demand before the payload has to back it up.
const (
	maxStringBytes = 1 << 20
	maxConfEntries = 1 << 16
	maxDiskStates  = 1 << 10
)

// ConfigEntry is one key=value pair of the resolved run configuration.
type ConfigEntry struct {
	Key, Value string
}

// ServiceRecord is the serialisable form of one kernel service's aggregate
// statistics, with the Welford state exported so Table 5 merges survive a
// round trip.
type ServiceRecord struct {
	Invocations uint64
	Total       Bucket
	Energy      stats.WelfordState
}

// DiskRecord is the serialisable form of the disk subsystem's activity
// statistics. StateCycles is indexed by the disk's operating-mode
// enumeration; its length is recorded in the log so the record stays
// readable if the mode set grows.
type DiskRecord struct {
	Reads, Writes uint64
	BytesMoved    uint64
	Spinups       uint64
	Spindowns     uint64
	StateCycles   []uint64
}

// RunRecord is the complete result of one simulation run in serialisable
// form. internal/core converts between this and its RunResult.
type RunRecord struct {
	Benchmark string
	Core      string
	ClockHz   float64

	Config []ConfigEntry

	ModeTotals [NumModes]Bucket
	Services   [NumSvc]ServiceRecord

	TotalCycles uint64
	Committed   uint64
	IdleCycles  uint64

	DiskEnergyJ float64
	Disk        DiskRecord

	Samples []Sample

	// Timeline holds the fixed-interval power-timeline points (TLIN
	// section); empty when the run was recorded without -timeline. EProf
	// holds the aggregated energy-profile rows (EPRF section), sorted by
	// (PCBucket, Mode, ASID) for determinism, with EProfShift the PC
	// bucket shift they were aggregated under; empty without -eprof.
	// Both sections are written only when non-empty, so logs from plain
	// runs stay byte-identical to pre-TLIN writers.
	Timeline   []TimelinePoint
	EProf      []EProfEntry
	EProfShift uint32
}

// Serialized sizes of one sample window, one TLIN point and one EPRF
// entry: the minimum bytes each counted record occupies.
const (
	bucketBytes    = int(NumUnits)*8 + 16
	sampleBytes    = 16 + int(NumModes)*bucketBytes
	tlinPointBytes = 16 + int(NumModes)*bucketBytes + 8
	eprfEntryBytes = 4 + 4 + 8 + 8 + 8
)

// recordSections is the run log's section table in wire order. A section
// with a present func is optional and written only when it reports true.
var recordSections = [...]struct {
	tag     [4]byte
	present func(*RunRecord) bool
	encode  func(*ckpt.Writer, *RunRecord)
	decode  func(*ckpt.Reader, *RunRecord)
}{
	{tag: tagMeta, encode: encodeMeta, decode: decodeMeta},
	{tag: tagConf, encode: encodeConf, decode: decodeConf},
	{tag: tagMode, encode: encodeMode, decode: decodeMode},
	{tag: tagSvcs, encode: encodeSvcs, decode: decodeSvcs},
	{tag: tagDisk, encode: encodeDisk, decode: decodeDisk},
	{tag: tagSamp, encode: encodeSamp, decode: decodeSamp},
	{tag: tagTlin, present: func(rec *RunRecord) bool { return len(rec.Timeline) > 0 },
		encode: encodeTlin, decode: decodeTlin},
	{tag: tagEprf, present: func(rec *RunRecord) bool { return len(rec.EProf) > 0 },
		encode: encodeEprf, decode: decodeEprf},
}

// Sections encodes rec as the run log's container sections.
func (rec *RunRecord) Sections() []ckpt.Section {
	var secs []ckpt.Section
	for _, s := range recordSections {
		if s.present != nil && !s.present(rec) {
			continue
		}
		var w ckpt.Writer
		s.encode(&w, rec)
		secs = append(secs, ckpt.Section{Tag: s.tag, Payload: w.Bytes()})
	}
	return secs
}

// WriteRunRecord serialises rec as a run log.
func WriteRunRecord(w io.Writer, rec *RunRecord) error {
	return ckpt.WriteContainer(w, rec.Sections()...)
}

// ReadRunRecord deserialises a run log. Every required section must appear
// exactly once and every optional one at most once, so a container of
// another kind (a checkpoint, a sampled result) or a spliced log is an
// error rather than an empty or doubled record.
func ReadRunRecord(data []byte) (*RunRecord, error) {
	rec := &RunRecord{}
	var seen [len(recordSections)]bool
	err := ckpt.ReadSections(data, func(tag [4]byte, payload []byte) error {
		// A tag not in the table, from a newer writer, matches nothing
		// and is skipped.
		for i, s := range recordSections {
			if s.tag != tag {
				continue
			}
			if seen[i] {
				return fmt.Errorf("trace: duplicate %s section", tag[:])
			}
			seen[i] = true
			r := ckpt.NewReader(payload)
			s.decode(r, rec)
			if err := r.Err(); err != nil {
				return fmt.Errorf("trace: section %q: %w", tag[:], err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, s := range recordSections {
		if s.present == nil && !seen[i] {
			return nil, fmt.Errorf("trace: run log has no %s section", s.tag[:])
		}
	}
	return rec, nil
}

// readStr reads a length-prefixed string, capped at maxStringBytes.
func readStr(r *ckpt.Reader) string {
	n := r.U32()
	if n > maxStringBytes {
		r.Corrupt("string length %d exceeds cap", n)
		return ""
	}
	return string(r.Raw(int(n)))
}

// dims reads and checks the (count, units) pair prefixed to the array
// sections, failing when the log's dimensions disagree with the binary's.
func dims(r *ckpt.Reader, what string, want int) {
	n, units := r.U32(), r.U32()
	switch {
	case r.Err() != nil:
	case n != uint32(want):
		r.Corrupt("log has %d %s, binary has %d", n, what, want)
	case units != uint32(NumUnits):
		r.Corrupt("log has %d units, binary has %d", units, NumUnits)
	}
}

// META: identity and whole-run totals.

func encodeMeta(w *ckpt.Writer, rec *RunRecord) {
	w.Str(rec.Benchmark)
	w.Str(rec.Core)
	w.F64(rec.ClockHz)
	w.U64(rec.TotalCycles)
	w.U64(rec.Committed)
	w.U64(rec.IdleCycles)
	w.F64(rec.DiskEnergyJ)
}

func decodeMeta(r *ckpt.Reader, rec *RunRecord) {
	rec.Benchmark = readStr(r)
	rec.Core = readStr(r)
	rec.ClockHz = r.F64()
	rec.TotalCycles = r.U64()
	rec.Committed = r.U64()
	rec.IdleCycles = r.U64()
	rec.DiskEnergyJ = r.F64()
}

// CONF: the resolved configuration, in writer order.

func encodeConf(w *ckpt.Writer, rec *RunRecord) {
	w.U32(uint32(len(rec.Config)))
	for _, e := range rec.Config {
		w.Str(e.Key)
		w.Str(e.Value)
	}
}

func decodeConf(r *ckpt.Reader, rec *RunRecord) {
	n := r.U32()
	if n > maxConfEntries {
		r.Corrupt("config entry count %d exceeds cap", n)
	}
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		k, v := readStr(r), readStr(r)
		rec.Config = append(rec.Config, ConfigEntry{Key: k, Value: v})
	}
}

// MODE: per-mode whole-run buckets.

func encodeMode(w *ckpt.Writer, rec *RunRecord) {
	w.U32(uint32(NumModes))
	w.U32(uint32(NumUnits))
	for m := range rec.ModeTotals {
		encodeBucket(w, &rec.ModeTotals[m])
	}
}

func decodeMode(r *ckpt.Reader, rec *RunRecord) {
	dims(r, "modes", int(NumModes))
	for m := range rec.ModeTotals {
		decodeBucket(r, &rec.ModeTotals[m])
	}
}

// SVCS: per-service aggregates including the Welford state.

func encodeSvcs(w *ckpt.Writer, rec *RunRecord) {
	w.U32(uint32(NumSvc))
	w.U32(uint32(NumUnits))
	for i := range rec.Services {
		sv := &rec.Services[i]
		w.U64(sv.Invocations)
		encodeBucket(w, &sv.Total)
		encodeWelford(w, sv.Energy)
	}
}

func decodeSvcs(r *ckpt.Reader, rec *RunRecord) {
	dims(r, "services", int(NumSvc))
	for i := range rec.Services {
		sv := &rec.Services[i]
		sv.Invocations = r.U64()
		decodeBucket(r, &sv.Total)
		sv.Energy = decodeWelford(r)
	}
}

// DISK: activity statistics.

func encodeDisk(w *ckpt.Writer, rec *RunRecord) {
	d := &rec.Disk
	w.U64(d.Reads)
	w.U64(d.Writes)
	w.U64(d.BytesMoved)
	w.U64(d.Spinups)
	w.U64(d.Spindowns)
	w.U32(uint32(len(d.StateCycles)))
	for _, c := range d.StateCycles {
		w.U64(c)
	}
}

func decodeDisk(r *ckpt.Reader, rec *RunRecord) {
	d := &rec.Disk
	d.Reads = r.U64()
	d.Writes = r.U64()
	d.BytesMoved = r.U64()
	d.Spinups = r.U64()
	d.Spindowns = r.U64()
	n := r.U32()
	if n > maxDiskStates {
		r.Corrupt("disk state count %d exceeds cap", n)
	}
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		d.StateCycles = append(d.StateCycles, r.U64())
	}
}

// SAMP: the sample windows.

func encodeSamp(w *ckpt.Writer, rec *RunRecord) {
	w.Reserve(12 + len(rec.Samples)*sampleBytes)
	w.U32(uint32(NumUnits))
	w.U64(uint64(len(rec.Samples)))
	for i := range rec.Samples {
		encodeSample(w, &rec.Samples[i])
	}
}

func decodeSamp(r *ckpt.Reader, rec *RunRecord) {
	if units := r.U32(); r.Err() == nil && units != uint32(NumUnits) {
		r.Corrupt("log has %d units, binary has %d", units, NumUnits)
	}
	rec.Samples = make([]Sample, r.Count64(sampleBytes))
	for i := range rec.Samples {
		decodeSample(r, &rec.Samples[i])
	}
}

// TLIN: the power-timeline points.

func encodeTlin(w *ckpt.Writer, rec *RunRecord) {
	w.U32(uint32(NumModes))
	w.U32(uint32(NumUnits))
	w.U64(uint64(len(rec.Timeline)))
	for i := range rec.Timeline {
		p := &rec.Timeline[i]
		w.U64(p.Start)
		w.U64(p.End)
		for m := range p.Mode {
			encodeBucket(w, &p.Mode[m])
		}
		w.F64(p.DiskJ)
	}
}

func decodeTlin(r *ckpt.Reader, rec *RunRecord) {
	dims(r, "modes", int(NumModes))
	rec.Timeline = make([]TimelinePoint, r.Count64(tlinPointBytes))
	for i := range rec.Timeline {
		p := &rec.Timeline[i]
		p.Start = r.U64()
		p.End = r.U64()
		for m := range p.Mode {
			decodeBucket(r, &p.Mode[m])
		}
		p.DiskJ = r.F64()
	}
}

// EPRF: the aggregated energy profile, sorted by key at collection time.

func encodeEprf(w *ckpt.Writer, rec *RunRecord) {
	w.U32(rec.EProfShift)
	w.U64(uint64(len(rec.EProf)))
	for i := range rec.EProf {
		e := &rec.EProf[i]
		w.U32(e.PCBucket)
		w.U32(uint32(e.Mode) | uint32(e.ASID)<<8)
		w.U64(e.Cycles)
		w.U64(e.Insts)
		w.F64(e.EnergyPJ)
	}
}

func decodeEprf(r *ckpt.Reader, rec *RunRecord) {
	if rec.EProfShift = r.U32(); rec.EProfShift > 31 {
		r.Corrupt("eprof bucket shift %d out of range", rec.EProfShift)
	}
	rec.EProf = make([]EProfEntry, r.Count64(eprfEntryBytes))
	for i := range rec.EProf {
		e := &rec.EProf[i]
		e.PCBucket = r.U32()
		key := r.U32()
		if key&0xff >= uint32(NumModes) {
			r.Corrupt("eprof mode %d out of range", key&0xff)
		}
		e.Mode = Mode(key & 0xff)
		e.ASID = uint8(key >> 8)
		e.Cycles = r.U64()
		e.Insts = r.U64()
		e.EnergyPJ = r.F64()
	}
}
