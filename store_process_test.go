package softwatt

// The artifact store across processes: two processes sharing one run-log
// directory and one fast-forward cache directory must each get the result
// a single process gets, and leave exactly one complete file per key. The
// test re-executes its own binary for the second and third process; the
// environment variable below tells a child which directories to use.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"softwatt/internal/obs"
)

// storeChildEnv carries "logDir|ffDir|outDir" to a child process.
const storeChildEnv = "SOFTWATT_STORE_CHILD"

// storeWorkSampled is the sampled run each process makes: few, short
// windows, so the fast-forward pass dominates.
var storeWorkSampled = SampleOptions{Windows: 2, WindowCycles: 50_000, Workers: 1}

// storeWork runs the shared work through the stores in logDir and ffDir:
// compress and jess in full on mipsy, then a sampled compress. It returns
// the saved bytes of every result, keyed "<benchmark>.swlog" or
// "<benchmark>.swsmp".
func storeWork(logDir, ffDir string) (map[string][]byte, error) {
	specs := []RunSpec{
		{Benchmark: "compress", Options: Options{Core: "mipsy"}},
		{Benchmark: "jess", Options: Options{Core: "mipsy"}},
	}
	rs, err := RunBatch(specs, BatchOptions{Workers: 1, LogDir: logDir})
	if err != nil {
		return nil, err
	}
	out := make(map[string][]byte)
	for i, r := range rs {
		var b bytes.Buffer
		if err := SaveResult(&b, r); err != nil {
			return nil, err
		}
		out[specs[i].Benchmark+".swlog"] = b.Bytes()
	}
	so := storeWorkSampled
	so.LogDir, so.FFCacheDir = logDir, ffDir
	sr, err := RunSampled("compress", Options{Core: "mipsy"}, so)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := SaveSampledResult(&b, sr); err != nil {
		return nil, err
	}
	out["compress.swsmp"] = b.Bytes()
	return out, nil
}

// storeChild is the child process's side: do the work and write each
// result's bytes into outDir.
func storeChild(t *testing.T, spec string) {
	dirs := strings.Split(spec, "|")
	if len(dirs) != 3 {
		t.Fatalf("%s=%q: want logDir|ffDir|outDir", storeChildEnv, spec)
	}
	out, err := storeWork(dirs[0], dirs[1])
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range out {
		if err := os.WriteFile(filepath.Join(dirs[2], name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// dirFiles lists the names in dir, sorted.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	return names
}

func TestStoreAcrossProcesses(t *testing.T) {
	if spec := os.Getenv(storeChildEnv); spec != "" {
		storeChild(t, spec)
		return
	}
	if testing.Short() {
		t.Skip("three full workload passes skipped in -short mode")
	}

	// The single-process reference: the full runs are pinned (resultPins),
	// the sampled run and its reservoir come from one in-process run.
	refFF := t.TempDir()
	so := storeWorkSampled
	so.FFCacheDir = refFF
	sr, err := RunSampled("compress", Options{Core: "mipsy"}, so)
	if err != nil {
		t.Fatal(err)
	}
	var refSmp bytes.Buffer
	if err := SaveSampledResult(&refSmp, sr); err != nil {
		t.Fatal(err)
	}
	refFiles := dirFiles(t, refFF)
	if len(refFiles) != 1 {
		t.Fatalf("reference fast-forward cache holds %v, want one reservoir", refFiles)
	}
	refFFR, err := os.ReadFile(filepath.Join(refFF, refFiles[0]))
	if err != nil {
		t.Fatal(err)
	}
	checkSaved := func(what, name string, b []byte) {
		t.Helper()
		switch name {
		case "compress.swsmp":
			if !bytes.Equal(b, refSmp.Bytes()) {
				t.Errorf("%s: sampled result differs from the single-process run's (%d vs %d bytes)",
					what, len(b), refSmp.Len())
			}
		default:
			bench := strings.TrimSuffix(name, ".swlog")
			sum := sha256.Sum256(b)
			if got, want := hex.EncodeToString(sum[:]), resultPins["mipsy/"+bench]; got != want {
				t.Errorf("%s: %s result SHA-256 %s, pinned %s", what, bench, got, want)
			}
		}
	}

	// Two children on one shared pair of directories, started together.
	logDir, ffDir := t.TempDir(), t.TempDir()
	var cmds [2]*exec.Cmd
	var outs [2]string
	var logs [2]bytes.Buffer
	for i := range cmds {
		outs[i] = t.TempDir()
		cmds[i] = exec.Command(os.Args[0], "-test.run=^TestStoreAcrossProcesses$", "-test.count=1")
		cmds[i].Env = append(os.Environ(), storeChildEnv+"="+logDir+"|"+ffDir+"|"+outs[i])
		cmds[i].Stdout, cmds[i].Stderr = &logs[i], &logs[i]
		if err := cmds[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	for i, c := range cmds {
		if err := c.Wait(); err != nil {
			t.Fatalf("child %d: %v\n%s", i, err, logs[i].String())
		}
	}

	want := []string{"compress.swlog", "compress.swsmp", "jess.swlog"}
	for i, out := range outs {
		if got := dirFiles(t, out); !slices.Equal(got, want) {
			t.Fatalf("child %d returned %v, want %v", i, got, want)
		}
		for _, name := range want {
			b, err := os.ReadFile(filepath.Join(out, name))
			if err != nil {
				t.Fatal(err)
			}
			checkSaved("child result", name, b)
		}
	}

	// One complete file per key and no temporary files left behind.
	logFiles := dirFiles(t, logDir)
	if len(logFiles) != 3 {
		t.Fatalf("log directory holds %v, want two run logs and one sampled result", logFiles)
	}
	for _, name := range logFiles {
		b, err := os.ReadFile(filepath.Join(logDir, name))
		if err != nil {
			t.Fatal(err)
		}
		bench, _, _ := strings.Cut(name, "-")
		checkSaved("saved file", bench+filepath.Ext(name), b)
	}
	if got := dirFiles(t, ffDir); !slices.Equal(got, refFiles) {
		t.Fatalf("fast-forward cache holds %v, want %v", got, refFiles)
	}
	b, err := os.ReadFile(filepath.Join(ffDir, refFiles[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, refFFR) {
		t.Errorf("shared reservoir differs from the single-process one (%d vs %d bytes)", len(b), len(refFFR))
	}
}

// TestStoreUnusableDir points each cache directory at a regular file. The
// run must end in a clean error before it simulates: no panic, no result
// it reports, and a failed read is not corruption, so no corrupt counter
// moves.
func TestStoreUnusableDir(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload passes skipped in -short mode")
	}
	obs.SetMetricsEnabled(true)
	defer obs.SetMetricsEnabled(false)
	b := obs.Batch()
	counters := []*obs.Counter{b.LogCacheCorrupt, b.FFCacheCorrupt, b.SampledCacheCorrupt, obs.Sim().Cycles}
	names := []string{"run-log corrupt", "reservoir corrupt", "sampled-result corrupt", "simulated cycles"}
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cases := []struct {
		name string
		run  func(t *testing.T) error
	}{
		{"run log", func(t *testing.T) error {
			rs, err := RunBatch([]RunSpec{{Benchmark: "compress", Options: Options{Core: "mipsy"}}},
				BatchOptions{Workers: 1, LogDir: file})
			if err == nil || rs[0] != nil {
				t.Errorf("RunBatch returned a result for a cell it could not save (err %v)", err)
			}
			return err
		}},
		{"sampled result", func(t *testing.T) error {
			so := storeWorkSampled
			so.LogDir, so.FFCacheDir = file, dir
			r, err := RunSampled("compress", Options{Core: "mipsy"}, so)
			if r != nil {
				t.Errorf("RunSampled returned a result it could not save (err %v)", err)
			}
			return err
		}},
		{"fast-forward reservoir", func(t *testing.T) error {
			so := storeWorkSampled
			so.LogDir, so.FFCacheDir = dir, file
			r, err := RunSampled("compress", Options{Core: "mipsy"}, so)
			if r != nil {
				t.Errorf("RunSampled returned a result it could not save (err %v)", err)
			}
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := make([]uint64, len(counters))
			for i, c := range counters {
				before[i] = c.Value()
			}
			err := tc.run(t)
			for i, c := range counters {
				if got := c.Value() - before[i]; got != 0 {
					t.Errorf("%s counter moved by %d", names[i], got)
				}
			}
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), file) {
				t.Errorf("error %q does not name the unusable directory", err)
			}
		})
	}
	if got := dirFiles(t, dir); len(got) != 0 {
		t.Errorf("a failed sampled run saved %v", got)
	}
}
