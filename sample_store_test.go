package softwatt

// The sampled-run caching layers (DESIGN.md §14) and the adaptive wave
// scheduler. Both caches promise the same thing the run-log cache does: a
// warm answer is indistinguishable from the cold one it replaced — the
// tests assert full structural equality, not just matching headline
// numbers — and a corrupt file heals by counting, warning, and rebuilding.

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"softwatt/internal/ckpt"
	"softwatt/internal/core"
	"softwatt/internal/disk"
	"softwatt/internal/ffstore"
	"softwatt/internal/obs"
)

// globOne returns the single file in dir matching pattern.
func globOne(t *testing.T, dir, pattern string) string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("glob %s in %s: got %v, want one file", pattern, dir, files)
	}
	return files[0]
}

// TestFFCacheWarmColdEquivalence: a sampled run with a warm fast-forward
// reservoir cache must produce a result structurally identical to the cold
// run that populated it — the reservoir file carries everything phase 1
// contributes (checkpoints, run length, disk figures).
func TestFFCacheWarmColdEquivalence(t *testing.T) {
	dir := t.TempDir()
	so := SampleOptions{Windows: 3, FFCacheDir: dir}
	hits0 := obs.Batch().FFCacheHits.Value()
	misses0 := obs.Batch().FFCacheMisses.Value()

	cold, err := RunSampled("compress", Options{Core: "mipsy"}, so)
	if err != nil {
		t.Fatal(err)
	}
	globOne(t, dir, "compress-*.swffr")
	if got := obs.Batch().FFCacheMisses.Value() - misses0; got != 1 {
		t.Errorf("cold run counted %d FF-cache misses, want 1", got)
	}

	warm, err := RunSampled("compress", Options{Core: "mipsy"}, so)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.Batch().FFCacheHits.Value() - hits0; got != 1 {
		t.Errorf("warm run counted %d FF-cache hits, want 1", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("warm FF-cache result differs from cold:\ncold %+v\nwarm %+v", cold, warm)
	}
}

// TestFFCacheCorruptRebuilds: a reservoir file that exists but cannot load
// is counted, removed, and rebuilt — the run still succeeds with the cold
// result, and the store holds a valid reservoir again afterwards.
func TestFFCacheCorruptRebuilds(t *testing.T) {
	dir := t.TempDir()
	so := SampleOptions{Windows: 3, FFCacheDir: dir}
	cold, err := RunSampled("compress", Options{Core: "mipsy"}, so)
	if err != nil {
		t.Fatal(err)
	}
	path := globOne(t, dir, "compress-*.swffr")
	if err := os.WriteFile(path, []byte("not a reservoir"), 0o644); err != nil {
		t.Fatal(err)
	}

	corrupt0 := obs.Batch().FFCacheCorrupt.Value()
	healed, err := RunSampled("compress", Options{Core: "mipsy"}, so)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.Batch().FFCacheCorrupt.Value() - corrupt0; got != 1 {
		t.Errorf("counted %d corrupt FF-cache files, want 1", got)
	}
	if !reflect.DeepEqual(cold, healed) {
		t.Fatalf("result after corrupt-rebuild differs from cold:\ncold %+v\ngot  %+v", cold, healed)
	}
	digest := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(path), "compress-"), ".swffr")
	if _, err := (ffstore.Store{Dir: dir}).Load("compress", digest); err != nil {
		t.Errorf("rebuilt reservoir does not load: %v", err)
	}
}

// TestMachineReuseMatchesFreshMachines: with one worker, all windows run
// on a single machine through Recycle + RestoreState; with one worker per
// window, every window gets a machine fresh from New. The results must be
// structurally identical — machine reuse is invisible.
func TestMachineReuseMatchesFreshMachines(t *testing.T) {
	serial, err := RunSampled("compress", Options{Core: "mipsy"}, SampleOptions{Windows: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := RunSampled("compress", Options{Core: "mipsy"}, SampleOptions{Windows: 3, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, fresh) {
		t.Fatalf("recycled-machine result differs from fresh-machine result:\n1 worker  %+v\n3 workers %+v", serial, fresh)
	}
}

// testSampledResult builds a sampled result exercising every encoded
// field.
func testSampledResult() *SampledResult {
	r := &SampledResult{
		Benchmark:     "compress",
		Core:          "mipsy",
		ClockHz:       600e6,
		Digest:        "0123456789abcdef",
		TotalCycles:   1_065_138,
		Committed:     900_123,
		WindowCycles:  200_000,
		SampledCycles: 400_000,
		MeanPowerW:    5.25,
		PowerCI95W:    0.375,
		EnergyJ:       9.3,
		EnergyCI95J:   0.66,
		DiskEnergyJ:   2.125,
		IdleCycles:    123_456,
		DiskStats: disk.Stats{
			Reads: 7, Writes: 3, BytesMoved: 40_960, Spinups: 2, Spindowns: 1,
		},
		Windows: []WindowMeasure{
			{Index: 0, StartCycle: 131_072, Cycles: 200_000, EnergyJ: 1.75, PowerW: 5.25},
			{Index: 1, StartCycle: 655_360, Cycles: 150_000, EnergyJ: 1.3, PowerW: 5.2},
		},
	}
	for i := range r.DiskStats.StateCycles {
		r.DiskStats.StateCycles[i] = uint64(1000*i + 1)
	}
	return r
}

// TestSampledResultFileRoundTrip: every field of a SampledResult survives
// the SRES container, and a file that is not a sampled result fails to
// load with an error rather than decoding garbage.
func TestSampledResultFileRoundTrip(t *testing.T) {
	r := testSampledResult()
	path := filepath.Join(t.TempDir(), "result.swsmp")
	if err := SaveSampledResultFile(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSampledResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("sampled result changed across save/load:\nsaved  %+v\nloaded %+v", r, got)
	}

	bad := filepath.Join(t.TempDir(), "bad.swsmp")
	if err := os.WriteFile(bad, []byte("not a container"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSampledResultFile(bad); err == nil {
		t.Error("loaded a non-container file as a sampled result")
	}
}

// TestArtifactsRejectBadDiskStats: the run log's DISK section, the FFRS
// reservoir and the SRES sampled result share one disk-stats codec, and
// each rejects a block recording any state count but disk.NumStates and a
// payload that ends inside the block.
func TestArtifactsRejectBadDiskStats(t *testing.T) {
	sr := testSampledResult()
	var good ckpt.Writer
	sr.DiskStats.Encode(&good)
	block := good.Bytes()
	const countAt = 5 * 8 // the state count follows the five activity counters

	run := &core.RunResult{Benchmark: "compress", Core: "mipsy", DiskStats: sr.DiskStats}
	tagDisk := [4]byte{'D', 'I', 'S', 'K'}
	res := &ffstore.Reservoir{
		Benchmark: "compress", Digest: "0123456789abcdef", DiskStats: sr.DiskStats,
		Entries: []ffstore.Entry{{Cycle: 1, Payload: []byte("machine state")}},
	}
	kinds := []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"DISK", block, func(p []byte) error {
			// The DISK payload goes back into an otherwise valid run log.
			secs := run.Sections()
			for i := range secs {
				if secs[i].Tag == tagDisk {
					secs[i].Payload = p
				}
			}
			var log bytes.Buffer
			if err := ckpt.WriteContainer(&log, secs...); err != nil {
				t.Fatal(err)
			}
			_, err := core.LoadResult(log.Bytes())
			return err
		}},
		{"FFRS", res.Encode(), func(p []byte) error { _, err := ffstore.Decode(p); return err }},
		{"SRES", encodeSampledResult(sr), func(p []byte) error { _, err := decodeSampledResult(p); return err }},
	}
	for _, k := range kinds {
		if err := k.decode(k.payload); err != nil {
			t.Fatalf("%s: the unmodified payload: %v", k.name, err)
		}
		at := bytes.Index(k.payload, block)
		if at < 0 {
			t.Fatalf("%s: payload does not carry the disk-stats block", k.name)
		}
		for _, n := range []uint32{0, 1, uint32(disk.NumStates) - 1, uint32(disk.NumStates) + 1, 1024} {
			bad := bytes.Clone(k.payload)
			binary.LittleEndian.PutUint32(bad[at+countAt:], n)
			if err := k.decode(bad); err == nil {
				t.Errorf("%s: accepted a disk-stats block recording %d states", k.name, n)
			}
		}
		for _, cut := range []int{countAt - 1, countAt + 2, len(block) - 1} {
			if err := k.decode(k.payload[:at+cut]); err == nil {
				t.Errorf("%s: accepted a payload cut %d bytes into the disk-stats block", k.name, cut)
			}
		}
	}
}

// TestRunSampledCached: the sampled-result cache's (SampleOptions.LogDir)
// hit, miss, and corrupt-heal paths, each returning a result structurally
// identical to the cold one.
func TestRunSampledCached(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Core: "mipsy"}
	so := SampleOptions{Windows: 3, FFCacheDir: dir, LogDir: dir}
	hits0 := obs.Batch().SampledCacheHits.Value()
	misses0 := obs.Batch().SampledCacheMisses.Value()
	corrupt0 := obs.Batch().SampledCacheCorrupt.Value()

	cold, err := RunSampled("compress", opt, so)
	if err != nil {
		t.Fatal(err)
	}
	name, err := SampledCacheFileName("compress", opt, so)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
		t.Fatalf("cold run did not save its result: %v", err)
	}
	if got := obs.Batch().SampledCacheMisses.Value() - misses0; got != 1 {
		t.Errorf("cold run counted %d sampled-cache misses, want 1", got)
	}

	warm, err := RunSampled("compress", opt, so)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.Batch().SampledCacheHits.Value() - hits0; got != 1 {
		t.Errorf("warm run counted %d sampled-cache hits, want 1", got)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached sampled result differs from cold:\ncold %+v\nwarm %+v", cold, warm)
	}

	if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	healed, err := RunSampled("compress", opt, so)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs.Batch().SampledCacheCorrupt.Value() - corrupt0; got != 1 {
		t.Errorf("counted %d corrupt sampled-cache files, want 1", got)
	}
	if !reflect.DeepEqual(cold, healed) {
		t.Fatalf("result after corrupt-heal differs from cold:\ncold %+v\ngot  %+v", cold, healed)
	}
}

// TestAdaptiveSamplingConvergesEarly: with a loose CI target, adaptive
// sampling must stop after its first wave — fewer windows than the fixed
// default of 10 — with the target met, windows in timeline order, and
// indices renumbered.
func TestAdaptiveSamplingConvergesEarly(t *testing.T) {
	s, err := RunSampled("compress", Options{Core: "mipsy"}, SampleOptions{Windows: 2, TargetCIW: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Windows) != 2 {
		t.Fatalf("adaptive run measured %d windows, want the 2-window first wave to satisfy a 1.0 W target", len(s.Windows))
	}
	if !(s.PowerCI95W <= 1.0) {
		t.Fatalf("stopped with CI half-width %.3f W, above the 1.0 W target", s.PowerCI95W)
	}
	for i, wm := range s.Windows {
		if wm.Index != i {
			t.Errorf("window %d has index %d after the adaptive sort", i, wm.Index)
		}
		if i > 0 && wm.StartCycle < s.Windows[i-1].StartCycle {
			t.Errorf("windows not in timeline order: %d @ %d after %d", i, wm.StartCycle, s.Windows[i-1].StartCycle)
		}
	}
}

// TestAdaptiveWindowCap: an unreachable CI target must stop at MaxWindows,
// with the later waves clamped so the cap is hit exactly.
func TestAdaptiveWindowCap(t *testing.T) {
	s, err := RunSampled("compress", Options{Core: "mipsy"}, SampleOptions{
		Windows: 2, TargetCIW: 1e-9, MaxWindows: 3, ReservoirEntries: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Windows) != 3 {
		t.Fatalf("adaptive run measured %d windows, want exactly the MaxWindows cap of 3", len(s.Windows))
	}
	if s.PowerCI95W <= 1e-9 {
		t.Fatalf("CI half-width %.3g W implausibly met the unreachable target", s.PowerCI95W)
	}
}

// FuzzReadSampledResult drives the sampled-result file decoder — the SRES
// container and its payload — over arbitrary bytes. Hostile input must
// fail with an error, never a panic or an allocation beyond the bytes
// present, and any result that loads must re-encode to the same bytes.
func FuzzReadSampledResult(f *testing.F) {
	payload := encodeSampledResult(testSampledResult())
	var file bytes.Buffer
	if err := SaveSampledResult(&file, testSampledResult()); err != nil {
		f.Fatal(err)
	}
	f.Add(file.Bytes())
	f.Add(file.Bytes()[:file.Len()/2])
	f.Add(payload)
	var lie bytes.Buffer // a window count far beyond the bytes present
	lying := append([]byte(nil), payload[:len(payload)-2*(5*8)-4]...)
	lying = binary.LittleEndian.AppendUint32(lying, 1<<30)
	ckpt.WriteContainer(&lie, ckpt.Section{Tag: tagSampled, Payload: lying})
	f.Add(lie.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := decodeSampledFile(data)
		if err != nil {
			return
		}
		// Byte comparison, not DeepEqual: NaN float bits never compare
		// equal.
		enc := encodeSampledResult(r)
		rt, err := decodeSampledResult(enc)
		if err != nil {
			t.Fatalf("re-decode of an accepted result failed: %v", err)
		}
		if !bytes.Equal(enc, encodeSampledResult(rt)) {
			t.Fatal("accepted result does not round-trip")
		}
	})
}
