package core

// This file is the run-log save/load layer: converting a RunResult to and
// from the versioned trace.RunRecord form, so every report can be
// regenerated from a saved log with zero re-simulation (the paper's
// defining post-processing methodology, here made persistent).

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"

	"softwatt/internal/disk"
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

// ToRecord converts the result to its serialisable form.
func (r *RunResult) ToRecord() *trace.RunRecord {
	rec := &trace.RunRecord{
		Benchmark:   r.Benchmark,
		Core:        r.Core,
		ClockHz:     r.ClockHz,
		Config:      r.Config,
		ModeTotals:  r.ModeTotals,
		TotalCycles: r.TotalCycles,
		Committed:   r.Committed,
		IdleCycles:  r.IdleCycles,
		DiskEnergyJ: r.DiskEnergyJ,
		Disk: trace.DiskRecord{
			Reads:       r.DiskStats.Reads,
			Writes:      r.DiskStats.Writes,
			BytesMoved:  r.DiskStats.BytesMoved,
			Spinups:     r.DiskStats.Spinups,
			Spindowns:   r.DiskStats.Spindowns,
			StateCycles: append([]uint64(nil), r.DiskStats.StateCycles[:]...),
		},
		Samples:    r.Samples,
		Timeline:   r.Timeline,
		EProf:      r.EProf,
		EProfShift: r.EProfShift,
	}
	for s := range r.Services {
		sv := &r.Services[s]
		rec.Services[s] = trace.ServiceRecord{
			Invocations: sv.Invocations,
			Total:       sv.Total,
			Energy:      sv.EnergyPerInv.State(),
		}
	}
	return rec
}

// FromRecord converts a deserialised record back into a result.
func FromRecord(rec *trace.RunRecord) *RunResult {
	r := &RunResult{
		Benchmark:   rec.Benchmark,
		Core:        rec.Core,
		ClockHz:     rec.ClockHz,
		Config:      rec.Config,
		Samples:     rec.Samples,
		ModeTotals:  rec.ModeTotals,
		TotalCycles: rec.TotalCycles,
		Committed:   rec.Committed,
		IdleCycles:  rec.IdleCycles,
		DiskEnergyJ: rec.DiskEnergyJ,
		Timeline:    rec.Timeline,
		EProf:       rec.EProf,
		EProfShift:  rec.EProfShift,
		DiskStats: disk.Stats{
			Reads:      rec.Disk.Reads,
			Writes:     rec.Disk.Writes,
			BytesMoved: rec.Disk.BytesMoved,
			Spinups:    rec.Disk.Spinups,
			Spindowns:  rec.Disk.Spindowns,
		},
	}
	// The log records the state-cycle vector with its own length, so a log
	// written by a binary with a different disk-mode set stays loadable.
	copy(r.DiskStats.StateCycles[:], rec.Disk.StateCycles)
	for s := range r.Services {
		sv := &rec.Services[s]
		r.Services[s] = trace.ServiceStats{
			Invocations:  sv.Invocations,
			Total:        sv.Total,
			EnergyPerInv: stats.WelfordFromState(sv.Energy),
		}
	}
	return r
}

// SaveResult serialises a complete result as a run log.
func SaveResult(w io.Writer, r *RunResult) error {
	return trace.WriteRunRecord(w, r.ToRecord())
}

// LoadResult deserialises a run log saved by SaveResult.
func LoadResult(data []byte) (*RunResult, error) {
	rec, err := trace.ReadRunRecord(data)
	if err != nil {
		return nil, err
	}
	return FromRecord(rec), nil
}
