package softwatt

// Golden equivalence tests: the invariance contract behind every host-time
// optimization of the simulator hot path (DESIGN.md §9). The checked-in
// testdata goldens were serialized from the unoptimized seed simulator;
// re-running the same configurations must reproduce the exact logv2 result
// bytes — every cycle, per-mode/per-service bucket, unit access count,
// cache hit/miss/writeback, TLB lookup and Welford state — and the same
// configuration digest. A deliberate timing-model change (one that is meant
// to alter architected counts) regenerates them with
//
//	go test -run TestGoldenResultBytes -update-golden .
//
// and the diff in the goldens is the reviewable evidence of the change.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden run logs in testdata/golden")

// goldenCases are the configurations pinned by goldens: the compress
// workload on both timing models (the in-order Mipsy and the out-of-order
// MXS exercise disjoint hot paths: blocking-cache stalls vs speculation,
// wrong-path fetch and batched retirement).
var goldenCases = []struct {
	name string
	opt  Options
}{
	{"compress-mipsy", Options{Core: "mipsy"}},
	{"compress-mxs", Options{Core: "mxs"}},
}

func goldenPath(name, ext string) string {
	return filepath.Join("testdata", "golden", name+ext)
}

func TestGoldenResultBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run golden comparison skipped in -short mode")
	}
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Run("compress", tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := SaveResult(&buf, r); err != nil {
				t.Fatal(err)
			}
			digest := ResultDigest(r)

			if *updateGolden {
				if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(tc.name, ".swlog"), buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath(tc.name, ".digest"), []byte(digest+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes, digest %s)", goldenPath(tc.name, ".swlog"), buf.Len(), digest)
				return
			}

			wantDigest, err := os.ReadFile(goldenPath(tc.name, ".digest"))
			if err != nil {
				t.Fatal(err)
			}
			if got, want := digest+"\n", string(wantDigest); got != want {
				t.Errorf("config digest = %q, golden %q", got, want)
			}
			want, err := os.ReadFile(goldenPath(tc.name, ".swlog"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("serialized result diverges from golden (%d bytes vs %d): "+
					"an optimization changed architected counts; see DESIGN.md §9 "+
					"(first difference at byte %d)", buf.Len(), len(want), firstDiff(buf.Bytes(), want))
			}

			// The golden must also load back as an equivalent result (guards
			// against a writer/reader drift making the byte comparison
			// vacuous).
			lr, err := LoadResult(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			if lr.TotalCycles != r.TotalCycles || lr.Committed != r.Committed {
				t.Errorf("golden loads back cycles=%d committed=%d, run produced %d/%d",
					lr.TotalCycles, lr.Committed, r.TotalCycles, r.Committed)
			}
		})
	}
}

// TestGoldenObservabilityInvariance enforces the observability acceptance
// contract: enabling the energy profiler and the power timeline must not
// change a single architected byte of the result. The run is repeated with
// both features on; after stripping the observability-only sections the
// serialized bytes must equal the committed golden exactly, and the config
// digest must be unchanged (the knobs are excluded from ConfigEntries).
func TestGoldenObservabilityInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run golden comparison skipped in -short mode")
	}
	opt := Options{Core: "mipsy", EnergyProfile: true, TimelineCycles: 1_000_000}
	r, err := Run("compress", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.EProf) == 0 {
		t.Fatal("energy profiling enabled but result carries no EProf entries")
	}
	if len(r.Timeline) == 0 {
		t.Fatal("timeline enabled but result carries no points")
	}

	digest := ResultDigest(r)
	want, err := os.ReadFile(goldenPath("compress-mipsy", ".swlog"))
	if err != nil {
		t.Fatal(err)
	}
	wantDigest, err := os.ReadFile(goldenPath("compress-mipsy", ".digest"))
	if err != nil {
		t.Fatal(err)
	}
	if digest+"\n" != string(wantDigest) {
		t.Errorf("observability knobs leaked into the config digest: %q vs golden %q",
			digest, string(wantDigest))
	}

	// Strip the observability payload; everything that remains is the
	// architected result and must match the golden byte for byte.
	r.Timeline, r.EProf, r.EProfShift = nil, nil, 0
	var buf bytes.Buffer
	if err := SaveResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("result with -eprof/-timeline diverges from golden after stripping "+
			"observability sections (%d bytes vs %d, first difference at byte %d): "+
			"the profiler or timeline perturbed architected state",
			buf.Len(), len(want), firstDiff(buf.Bytes(), want))
	}
}

// resultPins are the SHA-256 digests of the serialized result (SaveResult
// bytes) of every workload on every detailed core, keyed "core/workload".
// The .swlog goldens keep full bytes for compress only; these pins carry
// the same byte-identity contract to the other workloads at the cost of
// one line each. A deliberate timing-model change re-pins them from the
// failure messages of TestTickBatchRunEquivalence and
// TestGoldenWorkloadDigests.
var resultPins = map[string]string{
	"mipsy/compress": "e2ebf4d2f5f889915c39d74c7732c47157ff171c597774577e4ec6901335e743",
	"mipsy/jess":     "83f353c8cfbc0d13f2fa08f8d8106259b738d2ea84ed29483185dca91c71922a",
	"mipsy/db":       "2d70b6714c3dfa32ddf8d354001d528f7b71c730cdb1cdb0e87aa0df865de683",
	"mipsy/javac":    "42030c7586d436e7c048d131a83d35229764c9584b328e6b8e3c545aa86201f6",
	"mipsy/mtrt":     "2210f64f7af9e729221254796aeb5a613bb5fe94ec8b2db592f8ab6dc72d4da1",
	"mipsy/jack":     "b6b979ffa3fef15b5eb20fd3d7ffbccbc1f9fdf6f23933fd373e51649ab0921a",
	"mxs/compress":   "4a8c9d22a178a333c8b73740e4cc72e0182506989622def7105e14ff1977f3c2",
	"mxs/jess":       "7721af99166bb3c442071f809e8066e61e67c41eae9922668cc73511b8188f5a",
	"mxs/db":         "00a42632b108c8020eeaa9fc24452c5079eb3fc9f4d621af66d548929e4af64f",
	"mxs/javac":      "5837058a88f4a34514b2e4587a6061340fc445911d853ab73a3cf5fac1c8a6fc",
	"mxs/mtrt":       "af487ddbab5a4eef8e13312bc0ba5dda39137ef93d9ebfcf97bfa6f1053e4071",
	"mxs/jack":       "73fa376c009d4a66cafcf9304a373da81a817247b7e85accf6999f8b5ca62a8a",
	"mxs1/compress":  "b3946019fadb646e9a20e6fdb90dff45cfd585b151f6aae7e6fdf04ddb0769df",
	"mxs1/jess":      "a762b70901f866fb34b7969b28e359858fab34592f722e7f75b03d85e136754e",
	"mxs1/db":        "e445305fa87b2c08478f161ab87b6e57ffa6b8b4df1f7281c50a39a6618dda27",
	"mxs1/javac":     "12e1a8e21baba002c1b2e0cc5c7e6e1dab85bc1ab6d317b0e440eff8f0b20a39",
	"mxs1/mtrt":      "eaeb45443afe1532e9131f846457b21e10fa3383ca08563ba40fa33abb51c263",
	"mxs1/jack":      "bea45ed37f4b03df92b0aa40816325806f6c36012f530353c09cf4f1e4810787",
}

// checkResultPin fails unless b hashes to the pin for key.
func checkResultPin(t *testing.T, key string, b []byte) {
	t.Helper()
	sum := sha256.Sum256(b)
	if got, want := hex.EncodeToString(sum[:]), resultPins[key]; got != want {
		t.Errorf("%s: result SHA-256 %s, pinned %q", key, got, want)
	}
}

// TestGoldenWorkloadDigests pins the single-issue MXS configuration
// (paper Figure 3) on every workload. mipsy and mxs are pinned by
// TestTickBatchRunEquivalence, which already runs those cells; mxs1 has no
// per-cycle counterpart there, so only its batched run is checked.
func TestGoldenWorkloadDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-run golden comparison skipped in -short mode")
	}
	for _, bench := range Benchmarks {
		t.Run("mxs1/"+bench, func(t *testing.T) {
			cfg, err := Options{Core: "mxs1"}.MachineConfig()
			if err != nil {
				t.Fatal(err)
			}
			r, _, _ := runConfigured(t, cfg, bench, false)
			checkResultPin(t, "mxs1/"+bench, resultBytes(t, r))
		})
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// ckptPinCycle is the fixed mid-run cycle at which TestCheckpointPins
// checkpoints compress. Every checkpoint carries disk-image pages (the file
// store is written into the image at boot) as well as RAM pages, so these
// pins guard the page codec of both stores, not just the checkpoint's length.
const ckptPinCycle = 300_000

// ckptPins are the SHA-256 digests of Machine.Checkpoint() for compress at
// ckptPinCycle, keyed by core. A deliberate change to any checkpointed
// state's encoding re-pins them from TestCheckpointPins's failure messages.
var ckptPins = map[string]string{
	"mipsy": "2f9183a53cb1bf60ef94e40958bb1325034afd0b32dae0341547428071a91599",
	"mxs":   "b03fb48f5bac960add65ede332b9c6b949e2a7b177cc4f7bf939e07e6d5cd84a",
	"swift": "66bd15a5f07af6d8390c1d86cd03988639375178a431a9a8325476893da117ac",
}

func TestCheckpointPins(t *testing.T) {
	for _, c := range []string{"mipsy", "mxs", "swift"} {
		t.Run(c, func(t *testing.T) {
			m, _ := newCkptMachine(t, "compress", c)
			defer m.Release()
			m.StepCycles(ckptPinCycle)
			if m.Halted() {
				t.Fatalf("compress halted before cycle %d", ckptPinCycle)
			}
			sum := sha256.Sum256(m.Checkpoint())
			if got, want := hex.EncodeToString(sum[:]), ckptPins[c]; got != want {
				t.Errorf("%s: checkpoint SHA-256 %s, pinned %q", c, got, want)
			}
		})
	}
}
