package softwatt

// Sampled-result persistence (DESIGN.md §14). A SampledResult is a report
// artefact like a RunResult: once computed it can be saved and re-rendered
// with zero simulation. Sampled results live in internal/store like run
// logs: a versioned self-describing file (one SRES section in a ckpt
// container), a digest key covering the detailed configuration plus every
// sampling parameter that shapes the estimate, one corrupt policy.

import (
	"fmt"
	"io"
	"strconv"

	"softwatt/internal/ckpt"
	"softwatt/internal/core"
	"softwatt/internal/machine"
	"softwatt/internal/store"
	"softwatt/internal/trace"
)

// tagSampled is the container section carrying an encoded SampledResult.
var tagSampled = [4]byte{'S', 'R', 'E', 'S'}

// sampledResultVersion versions the SRES payload encoding.
const sampledResultVersion = 1

// sampledDigest is the sampled-result cache key: the resolved detailed
// configuration (the same entries a run log records) plus the resolved
// sampling parameters. Anything that changes the estimate changes the key;
// parameters that do not apply (the adaptive cap under fixed sampling) are
// normalised out so equivalent requests share a key.
func sampledDigest(benchmark string, cfg machine.Config, so SampleOptions) string {
	so, capacity := so.resolve()
	maxw := 0
	if so.TargetCIW > 0 {
		maxw = so.MaxWindows
	}
	entries := core.ConfigEntries(cfg)
	entries = append(entries,
		trace.ConfigEntry{Key: "sample.windows", Value: strconv.Itoa(so.Windows)},
		trace.ConfigEntry{Key: "sample.window_cycles", Value: strconv.FormatUint(so.WindowCycles, 10)},
		trace.ConfigEntry{Key: "sample.warmup_cycles", Value: strconv.FormatUint(so.warmup(), 10)},
		trace.ConfigEntry{Key: "sample.ci_target", Value: strconv.FormatFloat(so.TargetCIW, 'g', -1, 64)},
		trace.ConfigEntry{Key: "sample.max_windows", Value: strconv.Itoa(maxw)},
		trace.ConfigEntry{Key: "sample.reservoir_entries", Value: strconv.Itoa(capacity)},
	)
	return core.ConfigDigest(benchmark, cfg.Core.String(), entries)
}

// SampledDigest returns the cache key a sampled run of the benchmark under
// these options would carry. An unknown benchmark, a core without timing
// or an invalid option set is an error.
func SampledDigest(benchmark string, opt Options, so SampleOptions) (string, error) {
	if err := validateBenchmark(benchmark); err != nil {
		return "", err
	}
	cfg, err := sampledConfig(opt)
	if err != nil {
		return "", err
	}
	return sampledDigest(benchmark, cfg, so), nil
}

// SampledCacheFileName is the file name a sampled run uses within
// SampleOptions.LogDir.
func SampledCacheFileName(benchmark string, opt Options, so SampleOptions) (string, error) {
	digest, err := SampledDigest(benchmark, opt, so)
	if err != nil {
		return "", err
	}
	return store.Sampled.Path("", benchmark, digest), nil
}

// encodeSampledResult serialises a result as an SRES payload.
func encodeSampledResult(r *SampledResult) []byte {
	var w ckpt.Writer
	w.U32(sampledResultVersion)
	w.Str(r.Benchmark)
	w.Str(r.Core)
	w.Str(r.Digest)
	w.F64(r.ClockHz)
	w.U64(r.TotalCycles)
	w.U64(r.Committed)
	w.U64(r.WindowCycles)
	w.U64(r.SampledCycles)
	w.F64(r.MeanPowerW)
	w.F64(r.PowerCI95W)
	w.F64(r.EnergyJ)
	w.F64(r.EnergyCI95J)
	w.F64(r.DiskEnergyJ)
	w.U64(r.IdleCycles)
	r.DiskStats.Encode(&w)
	w.U32(uint32(len(r.Windows)))
	for i := range r.Windows {
		wm := &r.Windows[i]
		w.U64(uint64(wm.Index))
		w.U64(wm.StartCycle)
		w.U64(wm.Cycles)
		w.F64(wm.EnergyJ)
		w.F64(wm.PowerW)
	}
	return w.Bytes()
}

// decodeSampledResult parses an SRES payload. Hostile input fails with an
// error, never a panic or an outsized allocation.
func decodeSampledResult(data []byte) (*SampledResult, error) {
	r := ckpt.NewReader(data)
	if v := r.U32(); v != sampledResultVersion && r.Err() == nil {
		return nil, fmt.Errorf("softwatt: unsupported sampled-result version %d", v)
	}
	res := &SampledResult{
		Benchmark: r.Str(),
		Core:      r.Str(),
		Digest:    r.Str(),
	}
	res.ClockHz = r.F64()
	res.TotalCycles = r.U64()
	res.Committed = r.U64()
	res.WindowCycles = r.U64()
	res.SampledCycles = r.U64()
	res.MeanPowerW = r.F64()
	res.PowerCI95W = r.F64()
	res.EnergyJ = r.F64()
	res.EnergyCI95J = r.F64()
	res.DiskEnergyJ = r.F64()
	res.IdleCycles = r.U64()
	res.DiskStats.Decode(r)
	n := r.Count(8 + 8 + 8 + 8 + 8) // index, start, cycles, energy, power
	res.Windows = make([]WindowMeasure, n)
	for i := range res.Windows {
		wm := &res.Windows[i]
		wm.Index = int(r.U64())
		wm.StartCycle = r.U64()
		wm.Cycles = r.U64()
		wm.EnergyJ = r.F64()
		wm.PowerW = r.F64()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("softwatt: sampled result: %w", err)
	}
	return res, nil
}

// SaveSampledResult serialises a sampled result to w as a container with
// one SRES section. A loaded result re-renders the identical report.
func SaveSampledResult(w io.Writer, r *SampledResult) error {
	return ckpt.WriteContainer(w, ckpt.Section{Tag: tagSampled, Payload: encodeSampledResult(r)})
}

// SaveSampledResultFile writes a sampled-result file, creating or
// replacing path atomically.
func SaveSampledResultFile(path string, r *SampledResult) error {
	return store.Save(path, ckpt.Section{Tag: tagSampled, Payload: encodeSampledResult(r)})
}

// LoadSampledResultFile reads a sampled-result file.
func LoadSampledResultFile(path string) (*SampledResult, error) {
	return store.Load(path, decodeSampledFile)
}

// decodeSampledFile parses a sampled-result file's bytes.
func decodeSampledFile(data []byte) (*SampledResult, error) {
	payload, err := ckpt.ReadSection(data, tagSampled)
	if err != nil {
		return nil, err
	}
	return decodeSampledResult(payload)
}

// sampledDecoder decodes a sampled-result file that must hold digest.
func sampledDecoder(digest string) func([]byte) (*SampledResult, error) {
	return func(data []byte) (*SampledResult, error) {
		r, err := decodeSampledFile(data)
		if err != nil {
			return nil, err
		}
		if r.Digest != digest {
			return nil, fmt.Errorf("sampled result has digest %s, want %s", r.Digest, digest)
		}
		return r, nil
	}
}
