package softwatt

import (
	"math"
	"testing"
)

// TestIdleHaltSavesEnergy validates the paper's §5 proposal implemented as
// an extension: halting the processor in the idle loop (WAIT) instead of
// busy-waiting must lower idle-mode power and total energy without changing
// the workload's architectural behaviour.
func TestIdleHaltSavesEnergy(t *testing.T) {
	est := NewEstimator()
	busy, err := Run("jess", Options{Core: "mipsy"})
	if err != nil {
		t.Fatal(err)
	}
	halt, err := Run("jess", Options{Core: "mipsy", IdleHalt: true})
	if err != nil {
		t.Fatal(err)
	}
	mpBusy := est.ModeAveragePower([]*RunResult{busy})
	mpHalt := est.ModeAveragePower([]*RunResult{halt})
	if mpHalt[ModeIdle].Total >= mpBusy[ModeIdle].Total*0.9 {
		t.Fatalf("idle power barely changed: %.2f -> %.2f W",
			mpBusy[ModeIdle].Total, mpHalt[ModeIdle].Total)
	}
	eBusy := est.Summarize(busy).CPUMemJ
	eHalt := est.Summarize(halt).CPUMemJ
	if eHalt >= eBusy {
		t.Fatalf("total energy did not drop: %.4f -> %.4f J", eBusy, eHalt)
	}
	// The workload itself is unaffected: the user-mode instruction count
	// matches to within interrupt-boundary attribution noise.
	bu, hu := float64(busy.ModeTotals[ModeUser].Insts), float64(halt.ModeTotals[ModeUser].Insts)
	if math.Abs(bu-hu)/bu > 0.001 {
		t.Fatalf("user instructions changed materially: %.0f -> %.0f", bu, hu)
	}
}

// TestTraceDrivenKernelEstimation validates the paper's §3.3/§5 proposal:
// kernel energy estimated from service invocation counts alone. The paper
// quotes ~10% error; kernel-internal services (whose per-invocation energy
// Table 5 shows to be near-constant) must land inside that margin here.
func TestTraceDrivenKernelEstimation(t *testing.T) {
	if testing.Short() {
		t.Skip("six full runs")
	}
	runs, err := RunBatch(allBench(Options{Core: "mipsy"}), BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	est := NewEstimator()
	for _, te := range est.CrossValidateTraceEstimation(runs) {
		if te.CalibRuns != len(runs)-1 {
			t.Fatalf("%s: calibrated on %d runs", te.Benchmark, te.CalibRuns)
		}
		if te.InternalActualJ <= 0 || te.InternalEstimateJ <= 0 {
			t.Fatalf("%s: empty internal estimate", te.Benchmark)
		}
		if math.Abs(te.InternalErrorPct) > 12 {
			t.Errorf("%s: internal-service estimation error %.1f%% exceeds the paper's margin",
				te.Benchmark, te.InternalErrorPct)
		}
		// The full estimate including size-dependent I/O syscalls is
		// expected to be worse — that asymmetry is the paper's Table 5
		// point about externally-invoked services.
		if math.Abs(te.ErrorPct) < math.Abs(te.InternalErrorPct) {
			t.Logf("%s: full estimate (%.1f%%) beat internal-only (%.1f%%) — unusual but not wrong",
				te.Benchmark, te.ErrorPct, te.InternalErrorPct)
		}
	}
}
