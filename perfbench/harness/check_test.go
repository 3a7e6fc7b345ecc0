package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"softwatt"
)

// TestCorruptReferenceIsCaught checks a real sampled-cold report against
// the committed reference, then shows that flipping one digit of the
// pinned digest, or of the report, fails the check.
func TestCorruptReferenceIsCaught(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the simulator")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "bin")
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "softwatt/cmd/softwatt").CombinedOutput(); err != nil {
		t.Fatalf("building softwatt: %v\n%s", err, out)
	}
	w := workloads["sampled-cold"]
	argv := w.command(bin, filepath.Join(tmp, "ffcache"))
	out, err := exec.Command(argv[0], argv[1:]...).Output()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := loadReference("../reference.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.checkOutput(w, string(out)); err != nil {
		t.Fatalf("the committed reference rejects a correct report: %v", err)
	}

	good := ref.Outputs[w.output]
	ref.Outputs[w.output] = flipDigit(good)
	if err := ref.checkOutput(w, string(out)); err == nil {
		t.Fatal("a corrupted reference digest was not caught")
	}
	ref.Outputs[w.output] = good
	if err := ref.checkOutput(w, flipDigit(string(out))); err == nil {
		t.Fatal("a corrupted report was not caught")
	}
}

// flipDigit changes the first decimal digit of s.
func flipDigit(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= '0' && c <= '9' {
			b[i] = '0' + (c-'0'+1)%10
			break
		}
	}
	return string(b)
}

// TestReferenceComplete checks that the committed reference pins every
// workload's output and exact counts.
func TestReferenceComplete(t *testing.T) {
	ref, err := loadReference("../reference.json")
	if err != nil {
		t.Fatal(err)
	}
	for name, w := range workloads {
		if ref.Outputs[w.output] == "" {
			t.Errorf("%s: no output digest", name)
		}
		for _, c := range countNames {
			if _, ok := ref.Counts[name][c]; !ok {
				t.Errorf("%s: no pinned %s", name, c)
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names this harness's
// workloads and per-layer metrics with their units.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not in the harness", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json has workloads %v, the harness %d", names, len(workloads))
	}
	var got, want []string
	for _, m := range spec.PerLayer {
		got = append(got, m.Name+" "+m.Unit)
	}
	for _, m := range perLayer {
		want = append(want, m.name+" "+m.unit)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nharness\n%v", got, want)
	}
}

// TestBenchmarkOrder checks that the CLIs get the six benchmarks in the
// order the facade, and so the traced replay, runs them.
func TestBenchmarkOrder(t *testing.T) {
	if !reflect.DeepEqual(benchmarks, softwatt.Benchmarks) {
		t.Errorf("harness benchmarks %v, softwatt.Benchmarks %v", benchmarks, softwatt.Benchmarks)
	}
}
