package softwatt

// Checkpoint equivalence: saving a machine mid-run and restoring it into a
// freshly built machine must be invisible in the results. For every
// workload × detailed core, a run checkpointed at its halfway cycle and
// continued on a second machine must serialise to byte-identical result
// bytes (every sample window, unit count, Welford state, disk joule) as the
// same run executed straight through. This is the acceptance property of
// DESIGN.md §13: everything the estimator can observe round-trips.

import (
	"bytes"
	"testing"

	"softwatt/internal/ckpt"
	"softwatt/internal/core"
	"softwatt/internal/machine"
	"softwatt/internal/power"
	"softwatt/internal/workload"
)

// tagTestCkpt is the container section the equivalence test stores a
// checkpoint payload in.
var tagTestCkpt = [4]byte{'C', 'K', 'P', 'T'}

// newCkptMachine builds a machine for the benchmark with the estimator's
// standard wiring (online invocation energy).
func newCkptMachine(t *testing.T, bench, coreName string) (*machine.Machine, machine.Config) {
	t.Helper()
	cfg, err := Options{Core: coreName}.MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Build(bench)
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	m.Collector().SetEnergyFn(power.Default().InvocationEnergy)
	return m, cfg
}

func resultBytes(t *testing.T, r *RunResult) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := SaveResult(&b, r); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func checkCkptEquivalence(t *testing.T, bench, coreName string) {
	// Straight run: the reference result.
	ref, cfg := newCkptMachine(t, bench, coreName)
	if err := ref.Run(0); err != nil {
		t.Fatalf("straight run: %v (console: %q)", err, ref.Console())
	}
	refRes := core.Collect(ref, bench, cfg.Core.String())
	ref.Release()

	// Checkpoint at the halfway cycle, round-trip through a container
	// section, restore into a fresh machine, continue to completion.
	half := refRes.TotalCycles / 2
	src, _ := newCkptMachine(t, bench, coreName)
	src.StepCycles(half)
	if src.Halted() {
		t.Fatalf("machine halted during the first half (%d cycles)", half)
	}
	var ctr bytes.Buffer
	if err := ckpt.WriteContainer(&ctr, ckpt.Section{Tag: tagTestCkpt, Payload: src.Checkpoint()}); err != nil {
		t.Fatal(err)
	}
	src.Release()

	payload, err := ckpt.ReadSection(ctr.Bytes(), tagTestCkpt)
	if err != nil {
		t.Fatal(err)
	}
	dst, _ := newCkptMachine(t, bench, coreName)
	if err := dst.RestoreState(payload); err != nil {
		t.Fatal(err)
	}
	if got := dst.Cycle(); got != half {
		t.Fatalf("restored cycle %d, want %d", got, half)
	}
	if err := dst.Run(0); err != nil {
		t.Fatalf("continued run: %v (console: %q)", err, dst.Console())
	}
	gotRes := core.Collect(dst, bench, cfg.Core.String())
	dst.Release()

	rb, gb := resultBytes(t, refRes), resultBytes(t, gotRes)
	if !bytes.Equal(rb, gb) {
		t.Fatalf("checkpoint/restore changes results: %d vs %d bytes, first difference at byte %d",
			len(rb), len(gb), firstDiff(rb, gb))
	}
}

func TestCheckpointEquivalence(t *testing.T) {
	benchmarks := Benchmarks
	cores := []string{"mipsy", "mxs", "mxs1"}
	if testing.Short() {
		benchmarks = []string{"compress"}
		cores = []string{"mipsy"}
	}
	for _, bench := range benchmarks {
		for _, c := range cores {
			bench, c := bench, c
			t.Run(bench+"/"+c, func(t *testing.T) {
				t.Parallel()
				checkCkptEquivalence(t, bench, c)
			})
		}
	}
}

// TestCheckpointBytesDeterministic: checkpoints of one machine state are
// byte-identical, so the artifacts built from them (FF reservoirs) are
// reproducible. The kernel's per-process service stacks
// live in a map, and Go randomises map iteration order.
func TestCheckpointBytesDeterministic(t *testing.T) {
	m, _ := newCkptMachine(t, "compress", "swift")
	defer m.Release()
	m.StepCycles(600_000) // past the first process switch: two service stacks
	first := m.Checkpoint()
	for i := 0; i < 16; i++ {
		if again := m.Checkpoint(); !bytes.Equal(again, first) {
			t.Fatalf("checkpoint %d of one state differs from the first at byte %d",
				i+1, firstDiff(again, first))
		}
	}
}

// TestCheckpointCrossCore: a checkpoint taken under the swift fast-forward
// core restores onto a detailed core — the sampling primitive. The detailed
// core starts cold (that is the documented cold-start bias), so only
// functional equivalence is asserted: the continued run halts cleanly with
// the same console output and exit code as a straight detailed run.
func TestCheckpointCrossCore(t *testing.T) {
	// Learn the swift run's length, then checkpoint at its halfway cycle.
	probe, _ := newCkptMachine(t, "compress", "swift")
	if err := probe.Run(0); err != nil {
		t.Fatal(err)
	}
	half := probe.Cycle() / 2
	probe.Release()

	src, _ := newCkptMachine(t, "compress", "swift")
	src.StepCycles(half)
	if src.Halted() {
		t.Fatalf("machine halted during fast-forward (%d cycles)", half)
	}
	payload := src.Checkpoint()
	src.Release()

	ref, cfg := newCkptMachine(t, "compress", "mipsy")
	if err := ref.Run(0); err != nil {
		t.Fatal(err)
	}
	wantConsole, wantExit := ref.Console(), ref.ExitCode()
	_ = core.Collect(ref, "compress", cfg.Core.String())
	ref.Release()

	dst, _ := newCkptMachine(t, "compress", "mipsy")
	if err := dst.RestoreState(payload); err != nil {
		t.Fatal(err)
	}
	if err := dst.Run(0); err != nil {
		t.Fatalf("cross-core continued run: %v (console: %q)", err, dst.Console())
	}
	if dst.Console() != wantConsole {
		t.Errorf("console diverged after cross-core restore:\nwant %q\ngot  %q", wantConsole, dst.Console())
	}
	if dst.ExitCode() != wantExit {
		t.Errorf("exit code %d, want %d", dst.ExitCode(), wantExit)
	}
	dst.Release()
}

// TestCheckpointRejects: corrupt payloads, wrong configurations, and
// custom-core machines must fail loudly, never restore garbage.
func TestCheckpointRejects(t *testing.T) {
	src, _ := newCkptMachine(t, "compress", "mipsy")
	src.StepCycles(1_000_000)
	payload := src.Checkpoint()
	src.Release()

	t.Run("truncated", func(t *testing.T) {
		dst, _ := newCkptMachine(t, "compress", "mipsy")
		defer dst.Release()
		if err := dst.RestoreState(payload[:len(payload)/2]); err == nil {
			t.Fatal("truncated checkpoint restored without error")
		}
	})
	t.Run("wrong-config", func(t *testing.T) {
		cfg, err := Options{Core: "mipsy"}.MachineConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.WindowCycles = 40000
		w, err := workload.Build("compress")
		if err != nil {
			t.Fatal(err)
		}
		dst, err := machine.New(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Release()
		if err := dst.RestoreState(payload); err == nil {
			t.Fatal("checkpoint restored into a different configuration")
		}
	})
	t.Run("custom-core", func(t *testing.T) {
		cfg, err := Options{Core: "mxs"}.MachineConfig()
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.Build("compress")
		if err != nil {
			t.Fatal(err)
		}
		dst, err := machine.NewWithMXSWindow(cfg, w, 32)
		if err != nil {
			t.Fatal(err)
		}
		defer dst.Release()
		if err := dst.RestoreState(payload); err == nil {
			t.Fatal("checkpoint restored into a custom-core machine")
		}
	})
}
