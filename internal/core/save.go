package core

// This file is the run-log save/load layer. The run log captures a
// complete RunResult — identity, resolved configuration, mode totals,
// per-service statistics including the Welford per-invocation-energy
// state, disk activity and energy, and the sample windows — so every
// report can be regenerated from the log alone, with no re-simulation
// (the paper's defining post-processing methodology, here made
// persistent). It is a ckpt container (magic "SWAT", version 2) whose
// sections are listed in runLogSections, each encoded with the ckpt
// primitives:
//
//	META CONF MODE SVCS DISK SAMP   required, exactly once each
//	TLIN EPRF                       optional, at most once each
//
// All integers are little-endian; floats are IEEE-754 bit patterns, so
// values round-trip exactly. Readers skip sections with unknown tags and
// unrecognised trailing bytes inside known sections, which is how future
// minor revisions stay readable; dimension counts (modes, units, services,
// disk states) are embedded in each section and checked against the
// running binary. Record counts are never trusted for allocation: each is
// bounded by the bytes its section actually holds, so a corrupt or
// truncated log fails with an error instead of an enormous allocation.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"softwatt/internal/ckpt"
	"softwatt/internal/machine"
	"softwatt/internal/mem"
	"softwatt/internal/stats"
	"softwatt/internal/trace"
)

// ConfigEntries flattens the resolved machine configuration into stable
// key=value pairs, in a fixed order. Every knob that changes simulation
// results must appear here: the entries are digested to decide whether a
// saved log answers for a requested configuration.
func ConfigEntries(cfg machine.Config) []trace.ConfigEntry {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []trace.ConfigEntry{
		{Key: "core", Value: cfg.Core.String()},
		{Key: "ram_bytes", Value: strconv.Itoa(cfg.RAMBytes)},
		{Key: "window_cycles", Value: strconv.FormatUint(cfg.WindowCycles, 10)},
		{Key: "timer_cycles", Value: strconv.FormatUint(uint64(cfg.TimerCycles), 10)},
		{Key: "max_cycles", Value: strconv.FormatUint(cfg.MaxCycles, 10)},
		{Key: "clock_hz", Value: f(cfg.ClockHz)},
		{Key: "idle_halt", Value: strconv.FormatBool(cfg.IdleHalt)},
		{Key: "l1i", Value: cacheValue(cfg.Hier.L1I)},
		{Key: "l1d", Value: cacheValue(cfg.Hier.L1D)},
		{Key: "l2", Value: cacheValue(cfg.Hier.L2)},
		{Key: "mem_latency", Value: strconv.Itoa(cfg.Hier.MemLatency)},
		{Key: "uncached_latency", Value: strconv.Itoa(cfg.Hier.UncachedLatency)},
		{Key: "disk.policy", Value: cfg.Disk.Policy.String()},
		{Key: "disk.spindown_s", Value: f(cfg.Disk.SpindownThresholdSec)},
		{Key: "disk.timescale", Value: f(cfg.Disk.TimeScale)},
		{Key: "disk.mechscale", Value: f(cfg.Disk.MechScale)},
		{Key: "disk.clock_hz", Value: f(cfg.Disk.ClockHz)},
		{Key: "disk.capacity", Value: strconv.Itoa(cfg.Disk.CapacityBytes)},
	}
}

// cacheValue renders one cache geometry compactly.
func cacheValue(c mem.CacheConfig) string {
	return fmt.Sprintf("%d/%d/%d/%d", c.Size, c.LineSize, c.Assoc, c.HitLatency)
}

// ConfigDigest hashes a run's identity — benchmark, core, and the resolved
// configuration entries — into a short stable hex string, the log-cache
// key.
func ConfigDigest(benchmark, coreName string, entries []trace.ConfigEntry) string {
	h := sha256.New()
	io.WriteString(h, benchmark)
	h.Write([]byte{0})
	io.WriteString(h, coreName)
	h.Write([]byte{0})
	for _, e := range entries {
		io.WriteString(h, e.Key)
		h.Write([]byte{'='})
		io.WriteString(h, e.Value)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// Digest returns the run's configuration digest.
func (r *RunResult) Digest() string {
	return ConfigDigest(r.Benchmark, r.Core, r.Config)
}

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
)

// Serialized sizes of one TLIN point and one EPRF entry: the minimum bytes
// each counted record occupies.
const (
	tlinPointBytes = 16 + int(trace.NumModes)*trace.BucketBytes + 8
	eprfEntryBytes = 4 + 4 + 8 + 8 + 8
)

// runLogSections is the run log's section table in wire order. A section
// with a present func is optional and written only when it reports true.
var runLogSections = [...]struct {
	tag     [4]byte
	present func(*RunResult) bool
	encode  func(*ckpt.Writer, *RunResult)
	decode  func(*ckpt.Reader, *RunResult)
}{
	{tag: tagMeta, encode: encodeMeta, decode: decodeMeta},
	{tag: tagConf, encode: encodeConf, decode: decodeConf},
	{tag: tagMode, encode: encodeMode, decode: decodeMode},
	{tag: tagSvcs, encode: encodeSvcs, decode: decodeSvcs},
	{tag: tagDisk, encode: func(w *ckpt.Writer, r *RunResult) { r.DiskStats.Encode(w) },
		decode: func(rd *ckpt.Reader, r *RunResult) { r.DiskStats.Decode(rd) }},
	{tag: tagSamp, encode: encodeSamp, decode: decodeSamp},
	{tag: tagTlin, present: func(r *RunResult) bool { return len(r.Timeline) > 0 },
		encode: encodeTlin, decode: decodeTlin},
	{tag: tagEprf, present: func(r *RunResult) bool { return len(r.EProf) > 0 },
		encode: encodeEprf, decode: decodeEprf},
}

// Sections encodes the result as the run log's container sections.
func (r *RunResult) Sections() []ckpt.Section {
	var secs []ckpt.Section
	for _, s := range runLogSections {
		if s.present != nil && !s.present(r) {
			continue
		}
		var w ckpt.Writer
		s.encode(&w, r)
		secs = append(secs, ckpt.Section{Tag: s.tag, Payload: w.Bytes()})
	}
	return secs
}

// SaveResult serialises a complete result as a run log.
func SaveResult(w io.Writer, r *RunResult) error {
	return ckpt.WriteContainer(w, r.Sections()...)
}

// LoadResult deserialises a run log saved by SaveResult. Every required
// section must appear exactly once and every optional one at most once, so
// a container of another kind (a checkpoint, a sampled result) or a
// spliced log is an error rather than an empty or doubled result.
func LoadResult(data []byte) (*RunResult, error) {
	res := &RunResult{}
	var seen [len(runLogSections)]bool
	err := ckpt.ReadSections(data, func(tag [4]byte, payload []byte) error {
		// A tag not in the table, from a newer writer, matches nothing
		// and is skipped.
		for i, s := range runLogSections {
			if s.tag != tag {
				continue
			}
			if seen[i] {
				return fmt.Errorf("core: duplicate %s section", tag[:])
			}
			seen[i] = true
			r := ckpt.NewReader(payload)
			s.decode(r, res)
			if err := r.Err(); err != nil {
				return fmt.Errorf("core: section %q: %w", tag[:], err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, s := range runLogSections {
		if s.present == nil && !seen[i] {
			return nil, fmt.Errorf("core: run log has no %s section", s.tag[:])
		}
	}
	return res, nil
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
	case units != uint32(trace.NumUnits):
		r.Corrupt("log has %d units, binary has %d", units, trace.NumUnits)
	}
}

// META: identity and whole-run totals.

func encodeMeta(w *ckpt.Writer, r *RunResult) {
	w.Str(r.Benchmark)
	w.Str(r.Core)
	w.F64(r.ClockHz)
	w.U64(r.TotalCycles)
	w.U64(r.Committed)
	w.U64(r.IdleCycles)
	w.F64(r.DiskEnergyJ)
}

func decodeMeta(rd *ckpt.Reader, r *RunResult) {
	r.Benchmark = readStr(rd)
	r.Core = readStr(rd)
	r.ClockHz = rd.F64()
	r.TotalCycles = rd.U64()
	r.Committed = rd.U64()
	r.IdleCycles = rd.U64()
	r.DiskEnergyJ = rd.F64()
}

// CONF: the resolved configuration, in writer order.

func encodeConf(w *ckpt.Writer, r *RunResult) {
	w.U32(uint32(len(r.Config)))
	for _, e := range r.Config {
		w.Str(e.Key)
		w.Str(e.Value)
	}
}

func decodeConf(rd *ckpt.Reader, r *RunResult) {
	n := rd.U32()
	if n > maxConfEntries {
		rd.Corrupt("config entry count %d exceeds cap", n)
	}
	for i := uint32(0); i < n && rd.Err() == nil; i++ {
		k, v := readStr(rd), readStr(rd)
		r.Config = append(r.Config, trace.ConfigEntry{Key: k, Value: v})
	}
}

// MODE: per-mode whole-run buckets.

func encodeMode(w *ckpt.Writer, r *RunResult) {
	w.U32(uint32(trace.NumModes))
	w.U32(uint32(trace.NumUnits))
	for m := range r.ModeTotals {
		trace.EncodeBucket(w, &r.ModeTotals[m])
	}
}

func decodeMode(rd *ckpt.Reader, r *RunResult) {
	dims(rd, "modes", int(trace.NumModes))
	for m := range r.ModeTotals {
		trace.DecodeBucket(rd, &r.ModeTotals[m])
	}
}

// SVCS: per-service aggregates including the Welford state.

func encodeSvcs(w *ckpt.Writer, r *RunResult) {
	w.U32(uint32(trace.NumSvc))
	w.U32(uint32(trace.NumUnits))
	for i := range r.Services {
		sv := &r.Services[i]
		w.U64(sv.Invocations)
		trace.EncodeBucket(w, &sv.Total)
		trace.EncodeWelford(w, sv.EnergyPerInv.State())
	}
}

func decodeSvcs(rd *ckpt.Reader, r *RunResult) {
	dims(rd, "services", int(trace.NumSvc))
	for i := range r.Services {
		sv := &r.Services[i]
		sv.Invocations = rd.U64()
		trace.DecodeBucket(rd, &sv.Total)
		sv.EnergyPerInv = stats.WelfordFromState(trace.DecodeWelford(rd))
	}
}

// SAMP: the sample windows.

func encodeSamp(w *ckpt.Writer, r *RunResult) {
	w.Reserve(12 + len(r.Samples)*trace.SampleBytes)
	w.U32(uint32(trace.NumUnits))
	w.U64(uint64(len(r.Samples)))
	for i := range r.Samples {
		trace.EncodeSample(w, &r.Samples[i])
	}
}

func decodeSamp(rd *ckpt.Reader, r *RunResult) {
	if units := rd.U32(); rd.Err() == nil && units != uint32(trace.NumUnits) {
		rd.Corrupt("log has %d units, binary has %d", units, trace.NumUnits)
	}
	r.Samples = make([]trace.Sample, rd.Count64(trace.SampleBytes))
	for i := range r.Samples {
		trace.DecodeSample(rd, &r.Samples[i])
	}
}

// TLIN: the power-timeline points.

func encodeTlin(w *ckpt.Writer, r *RunResult) {
	w.U32(uint32(trace.NumModes))
	w.U32(uint32(trace.NumUnits))
	w.U64(uint64(len(r.Timeline)))
	for i := range r.Timeline {
		p := &r.Timeline[i]
		w.U64(p.Start)
		w.U64(p.End)
		for m := range p.Mode {
			trace.EncodeBucket(w, &p.Mode[m])
		}
		w.F64(p.DiskJ)
	}
}

func decodeTlin(rd *ckpt.Reader, r *RunResult) {
	dims(rd, "modes", int(trace.NumModes))
	r.Timeline = make([]trace.TimelinePoint, rd.Count64(tlinPointBytes))
	for i := range r.Timeline {
		p := &r.Timeline[i]
		p.Start = rd.U64()
		p.End = rd.U64()
		for m := range p.Mode {
			trace.DecodeBucket(rd, &p.Mode[m])
		}
		p.DiskJ = rd.F64()
	}
}

// EPRF: the aggregated energy profile, sorted by key at collection time.

func encodeEprf(w *ckpt.Writer, r *RunResult) {
	w.U32(r.EProfShift)
	w.U64(uint64(len(r.EProf)))
	for i := range r.EProf {
		e := &r.EProf[i]
		w.U32(e.PCBucket)
		w.U32(uint32(e.Mode) | uint32(e.ASID)<<8)
		w.U64(e.Cycles)
		w.U64(e.Insts)
		w.F64(e.EnergyPJ)
	}
}

func decodeEprf(rd *ckpt.Reader, r *RunResult) {
	if r.EProfShift = rd.U32(); r.EProfShift > 31 {
		rd.Corrupt("eprof bucket shift %d out of range", r.EProfShift)
	}
	r.EProf = make([]trace.EProfEntry, rd.Count64(eprfEntryBytes))
	for i := range r.EProf {
		e := &r.EProf[i]
		e.PCBucket = rd.U32()
		key := rd.U32()
		if key&0xff >= uint32(trace.NumModes) {
			rd.Corrupt("eprof mode %d out of range", key&0xff)
		}
		e.Mode = trace.Mode(key & 0xff)
		e.ASID = uint8(key >> 8)
		e.Cycles = rd.U64()
		e.Insts = rd.U64()
		e.EnergyPJ = rd.F64()
	}
}
