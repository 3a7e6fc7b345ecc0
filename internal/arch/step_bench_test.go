package arch_test

import (
	"testing"

	"softwatt/internal/arch"
	"softwatt/internal/machine"
	"softwatt/internal/workload"
)

// Step benchmark geometry: compress is run on a mipsy machine past boot
// and input loading into its compression loop (about 300K instructions of
// user code with no device traffic start at cycle 600K), checkpointed,
// and every iteration restores that point and steps the functional CPU
// alone through a quarter million of them.
const (
	stepWarmCycles = 600_000
	stepsPerOp     = 1 << 18
)

// BenchmarkStepInto measures the functional step in isolation — the arch
// layer of a detailed run with no timing model around it: StepInto over a
// compress instruction stream (user code and its TLB refills), one
// StepInfo per instruction. No device events are delivered, so the stream
// is pure CPU work. Reported as Mcycles/s (and Minsts/s) at one cycle per
// step so scripts/bench.sh records and gates it as the "step" row.
func BenchmarkStepInto(b *testing.B) {
	w, err := workload.Build("compress")
	if err != nil {
		b.Fatal(err)
	}
	m, err := machine.New(machine.DefaultConfig(), w)
	if err != nil {
		b.Fatal(err)
	}
	m.StepCycles(stepWarmCycles)
	ckpt := m.Checkpoint()
	start := m.Cycle()

	var info arch.StepInfo
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m.Recycle()
		if err := m.RestoreState(ckpt); err != nil {
			b.Fatal(err)
		}
		cpu := m.CPU()
		b.StartTimer()
		for s := uint64(0); s < stepsPerOp; s++ {
			cpu.StepInto(start+s, &info)
			if info.Waiting || info.Halted {
				b.Fatalf("step %d: the stream left the compute phase (waiting=%v halted=%v)",
					s, info.Waiting, info.Halted)
			}
		}
	}
	steps := float64(b.N) * stepsPerOp
	b.ReportMetric(steps/b.Elapsed().Seconds()/1e6, "Mcycles/s")
	b.ReportMetric(steps/b.Elapsed().Seconds()/1e6, "Minsts/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/steps, "ns/inst")
}
