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
// failure messages of TestTickBatchRunEquivalence,
// TestGoldenWorkloadDigests and TestDiskPolicyGrid.
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

	// The other disk policies on mipsy and mxs, each from a full run.
	"mipsy/compress/idle":     "374b0be17f7ddfaaa697dfe6c620d2d89b76e2bd17b32cf4f0cdadd6c248a912",
	"mipsy/compress/standby2": "f49e15db15ffa4827fc4f37573dfee81e932c935050e24d7c747ccacc56ea64e",
	"mipsy/compress/standby4": "8b75eaa51bff52ce0c4c175efcc1bee7e2ae44f3a87df5ff812774388c1e474d",
	"mipsy/jess/idle":         "be6eb479553e96289e81d49b4259384f6a71fc6f9b9404a1541e8d632c17ac9f",
	"mipsy/jess/standby2":     "fb3b986fdeccaf3b512ae8e62783117a1637a3326341946b5077433d9c6c7942",
	"mipsy/jess/standby4":     "a7bbd72595fc080a6b0f191a7927a5d4df63ecb3ba1df01a1ae11b83b542daa0",
	"mipsy/db/idle":           "78e42973b3c0ab504500808f2cb90e0f07e450fcec49e371b5c9300b5a24acf7",
	"mipsy/db/standby2":       "80617bf3ad065ac44488242f790d110d642c0661438b2dc37fca7962e760d419",
	"mipsy/db/standby4":       "26a29c7441ea1834c2937ca8940ee40c7b156c692a8f53a2ca8d5fe3f8e37fd2",
	"mipsy/javac/idle":        "ce91317d1f7915ea73d753bba20b8d335f7675ee242d822a8296445e8019ff20",
	"mipsy/javac/standby2":    "47749629d28d649df7248c9965b178c3f36c9eed36f2f0590a34933e1a21e407",
	"mipsy/javac/standby4":    "241784ffcb4bd25347934754cda4ffa3a752878c2db3a14ac9f80a5182697555",
	"mipsy/mtrt/idle":         "e700e21c32e52d06093e77f135912426d869dc647c9d3e4d409b8bc9295b8bc5",
	"mipsy/mtrt/standby2":     "d77f61c5488f3a615368c629dedfcd7720eb29b1088a3ea5768d11d0cf5e80a4",
	"mipsy/mtrt/standby4":     "9fea294ce2915b2997f9f216148975e7165742f7280c33a2d75804eeb3f3f022",
	"mipsy/jack/idle":         "fdf55ed3e5c09aaf7b3edba774a06c76d6a73ce7797ea6fd285fe78b9e7b438a",
	"mipsy/jack/standby2":     "e426a3a40ffd3b8acdee0c26e19e98f5da840394a2742a7cbf5d255d8d955d82",
	"mipsy/jack/standby4":     "a97acbe7cf605d23523c3e4045e822d9fc2f590ca719acfd3c1390824a649190",
	"mxs/compress/idle":       "239c0fc0e4b342e036eb4221087775e9adbeacfe99a0c59ba2608ecdf71e584f",
	"mxs/compress/standby2":   "431f99fe0b01695f7f6c7208848700244bd400857ea356a3120c32e986075a23",
	"mxs/compress/standby4":   "1021b5fe937f9a447a4da091a331a5acfa2d45353ce87e7224a35ebb194b0d51",
	"mxs/jess/idle":           "9684e5204fbe4a0da63be5e0c98c3f5d03447e8a9453f11888bc94f938ebfb7d",
	"mxs/jess/standby2":       "2b166d3055f3441bd91d5496aaac86d2512bb16302b1154409dd432355d98417",
	"mxs/jess/standby4":       "353102974a5dd5041cd968c0de36b6a59d563806ecedc866015825e72cbab92c",
	"mxs/db/idle":             "345eb795781dd359f462ba10c80a440344e2c728f17368a8b9a699cc17832707",
	"mxs/db/standby2":         "7256caf36954bcc244da8172aacbc8205037e0fd3bc168e15b99a1cb541bab31",
	"mxs/db/standby4":         "f1922af8de6c7bdf6ed07de65f31819aa17d59284b1e6261bf4c9191e147685e",
	"mxs/javac/idle":          "6e0d410c0d69a26f1f74819ae9c23f25e08fceba9a3a6d5fafdb1f10825d3e99",
	"mxs/javac/standby2":      "bfb3cf78835efb802789a1429721c8636a67b96f2849796073cb30f3167de326",
	"mxs/javac/standby4":      "86c1c290e5021dcf7f7fdd04377cc729840266a15b4288e47927213f4b41ab84",
	"mxs/mtrt/idle":           "42f36047b4304393582d238691a3efbd9af4a19311fe0be5cafbf9753af7a8fc",
	"mxs/mtrt/standby2":       "079debccd0841c458939e3fa25497671d7b4f9e622280e830fc62d1bacb98611",
	"mxs/mtrt/standby4":       "c9587264c5bcfd118703680493b2ac999308747bc0e1263a07e9a051c3873ef6",
	"mxs/jack/idle":           "3047ade4b2d391f35029f8deec4d559450023f0210d880e3048d753b900ace5b",
	"mxs/jack/standby2":       "45d8cdaa85c842766f7c2e0e05bfdc236b8c428f7542cd11a87f15a815ebc1fa",
	"mxs/jack/standby4":       "c078df3eae873440b5a49502d07c45ac1f40390f72293e2211ca5e32ac113de4",
}

// timelinePins are the SHA-256 digests of the TLIN section (the power
// timeline) of every policyGrid cell run with timelinePinCycles, keyed by
// the cell's label. Each was taken from a full simulation of its cell, so
// TestDiskPolicyGrid checks the timelines of derived cells against runs
// that were not derived. The interval is deliberately not a whole number
// of sample windows.
const timelinePinCycles = 1_000_001

var timelinePins = map[string]string{
	"mipsy/compress/conventional": "37ea42f18f7a910082431d9c90582bac31d726a4a38466c41ee8a7baadf5b64e",
	"mipsy/compress/idle":         "2209385a06d006de341e14ceb240797706cfc3abeb0c6f4aba99ea08be80030a",
	"mipsy/compress/standby2":     "faf2300eb16f120c064242d6d273db3c71b5b65e14bdaacffac5c56c79abc0a3",
	"mipsy/compress/standby4":     "2209385a06d006de341e14ceb240797706cfc3abeb0c6f4aba99ea08be80030a",
	"mipsy/jess/conventional":     "0dbad20836a7f67b0f09221bf79bf28a5da833b4f7eab6711bcd12c19a9f396d",
	"mipsy/jess/idle":             "85e510200a083ae526b9ecb2f295500d377ce4b00e5674ded1a582806b7bd507",
	"mipsy/jess/standby2":         "85e510200a083ae526b9ecb2f295500d377ce4b00e5674ded1a582806b7bd507",
	"mipsy/jess/standby4":         "85e510200a083ae526b9ecb2f295500d377ce4b00e5674ded1a582806b7bd507",
	"mipsy/db/conventional":       "3d6f8ae849a9f753416c424a96d64cf7de50c379921a29ed385e30232664b760",
	"mipsy/db/idle":               "288690c0038844b6f92eced66c6aa6b6757eb97117a12605da3859f9455739ce",
	"mipsy/db/standby2":           "288690c0038844b6f92eced66c6aa6b6757eb97117a12605da3859f9455739ce",
	"mipsy/db/standby4":           "288690c0038844b6f92eced66c6aa6b6757eb97117a12605da3859f9455739ce",
	"mipsy/javac/conventional":    "5a1388b9a36dc9aae46b2dc1d9c03188ac26a59992775d9a0627efad0b298e3d",
	"mipsy/javac/idle":            "9e1dd60499de4a1e0766b66037dbde0bcebba5c94b36da73e204e2ac03f07c21",
	"mipsy/javac/standby2":        "e2693b55533fc3066283dd827668a7cc92f68b52578e1d1b953dc9f0ec740b17",
	"mipsy/javac/standby4":        "9e1dd60499de4a1e0766b66037dbde0bcebba5c94b36da73e204e2ac03f07c21",
	"mipsy/mtrt/conventional":     "5b8c2f9f942fd07bfa271cdad4defef97e35d7d7885e8986e2b40ce78e560a4a",
	"mipsy/mtrt/idle":             "8de8ba882653a78ded93d85722d4f6c2af3bf8f80b2dc12f28f59eba90b556ff",
	"mipsy/mtrt/standby2":         "aa0c59757afd2245902a2f97f3222967543772f13759c9761b7dce4b9f6b4a77",
	"mipsy/mtrt/standby4":         "e9b53f49eecd1b81a9da5a29d54c444c587374b7d136f76200195dd3280974f4",
	"mipsy/jack/conventional":     "080218cd241a58958092cfd6e78a5f260b1763914fa64c969397c364c8dbd41a",
	"mipsy/jack/idle":             "9364724d03bc2fcd8861385152e063c3d4613ce4a0aacdd97a1e1b643feba779",
	"mipsy/jack/standby2":         "bd4f838008dd5e84225c5902e154b5d96e3c41240ecd3d04f6ce3017a1933606",
	"mipsy/jack/standby4":         "41c9a265064181fa71e44e7a03ef5c58d7e7c96cda1bbe735eb01c942a64ad12",
	"mxs/compress/conventional":   "6df29c82057728174be972145a8ca95c1993976671fda79077a322af73da09ff",
	"mxs/compress/idle":           "4df78de84bcf0c49b940218bf7c02dd449ed1f64388eb8049b06a9267104137c",
	"mxs/compress/standby2":       "4df78de84bcf0c49b940218bf7c02dd449ed1f64388eb8049b06a9267104137c",
	"mxs/compress/standby4":       "4df78de84bcf0c49b940218bf7c02dd449ed1f64388eb8049b06a9267104137c",
	"mxs/jess/conventional":       "73ca07f5b6d3a218d1d839c2d40ad061738128ed19959e8e913ce430418a73aa",
	"mxs/jess/idle":               "c1f35d00b5d77cd6878b98584fc74c7135be670827787e9106672673b429aceb",
	"mxs/jess/standby2":           "c1f35d00b5d77cd6878b98584fc74c7135be670827787e9106672673b429aceb",
	"mxs/jess/standby4":           "c1f35d00b5d77cd6878b98584fc74c7135be670827787e9106672673b429aceb",
	"mxs/db/conventional":         "98ddcc51ab1730b960031a674b1097af56e76e04301e39e512c93804eaf69597",
	"mxs/db/idle":                 "9c03acf53072f9adc72eebc0ebcba10f0a171a1b41e7852a5dc04cac723dc137",
	"mxs/db/standby2":             "9c03acf53072f9adc72eebc0ebcba10f0a171a1b41e7852a5dc04cac723dc137",
	"mxs/db/standby4":             "9c03acf53072f9adc72eebc0ebcba10f0a171a1b41e7852a5dc04cac723dc137",
	"mxs/javac/conventional":      "e008dc1e375acdeb4c8b26d22ceca938974e38a57f4810e97f6100ab16e2ec04",
	"mxs/javac/idle":              "775879bcc4e6d87667467503356af6a9b5b181029084f152808191a88a139eb4",
	"mxs/javac/standby2":          "87792d1fd5b10f395ecccc67ce30e34ce120fcb27e07bbba652d15a3f59f1312",
	"mxs/javac/standby4":          "775879bcc4e6d87667467503356af6a9b5b181029084f152808191a88a139eb4",
	"mxs/mtrt/conventional":       "fe2ae2f7a35e69e2fa96fa42fc0c34dbea3b361dda93c7e53f7a1cecbe1d4539",
	"mxs/mtrt/idle":               "4a6610c2e54fcb18316107e3275c12c712e30054c10887dd813619e69a11f19d",
	"mxs/mtrt/standby2":           "9371ea42ba5d3276fbd2f9dd42eedfc0804dddc8d5c033a6bd98172d81087b25",
	"mxs/mtrt/standby4":           "bf54bc0b20099fb2e4ed6a2ce50a4bec6e55fe54ea19d50bfbdc2e84fb06fb12",
	"mxs/jack/conventional":       "6036a849a82c392272937ee4ee6967e85b63b9bf57c71a09c1e4d42ac99b9d98",
	"mxs/jack/idle":               "7312ba7b3aa5296a433cc0b0271fa18a8ab6273e3c374668d0feed39ab892492",
	"mxs/jack/standby2":           "255c19e017b0abfd52fa0e4f934e985b7778c81b6901916eed1b87d3634cb113",
	"mxs/jack/standby4":           "bf35f2307d715a22e10d766f727f7b6d0fcecddccb808c0d17d7310489a6952a",
}

// checkResultPin fails unless b hashes to the pin for key.
func checkResultPin(t *testing.T, key string, b []byte) {
	t.Helper()
	sum := sha256.Sum256(b)
	if got, want := hex.EncodeToString(sum[:]), resultPins[key]; got != want {
		t.Errorf("%s: result SHA-256 %s, pinned %q", key, got, want)
	}
}

// checkTimelinePin fails unless the TLIN section of r's run log hashes to
// the timeline pin for label.
func checkTimelinePin(t *testing.T, label string, r *RunResult) {
	t.Helper()
	for _, s := range r.Sections() {
		if string(s.Tag[:]) == "TLIN" {
			sum := sha256.Sum256(s.Payload)
			if got, want := hex.EncodeToString(sum[:]), timelinePins[label]; got != want {
				t.Errorf("%s: timeline SHA-256 %s, pinned %q", label, got, want)
			}
			return
		}
	}
	t.Errorf("%s: run log has no TLIN section", label)
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
			r, _ := runConfigured(t, cfg, bench, false, 0)
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
