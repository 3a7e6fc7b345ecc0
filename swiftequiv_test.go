package softwatt

// Equivalence harness for the swift fast-forward core (DESIGN.md §12).
// Two layers of evidence, both over the real kernel + benchmark images:
//
//  1. Per-instruction lockstep against swift.Reference — a core running
//     the identical batch protocol (same budgets, same batch-end rules)
//     with every instruction executed by the exact interpreter. The two
//     machines are stepped one cycle at a time and their complete
//     architectural state (GPRs, FPR bits, PC, COP0, the full TLB, LL
//     state, the TLBWR replacement pointer) must match after every cycle.
//     COUNT is excluded: the fast path leaves it stale by design, and the
//     interpreter rewrites it before any instruction that could read it.
//
//  2. End-to-end equality against mipsy, the timing model swift must
//     mirror functionally: console bytes, exit code, and the debug-int
//     stream. Cycle counts differ (mipsy models cache/latency stalls;
//     swift is 1 IPC), which shifts when timer and disk interrupts land —
//     so neither per-instruction lockstep nor committed-instruction
//     equality is defined against a timing model (the busy-wait idle loop
//     alone retires a CPI-dependent number of iterations per disk wait).
//     The boundary-observable stream is the contract.

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"softwatt/internal/isa"
	"softwatt/internal/machine"
	"softwatt/internal/workload"
)

func newSwiftMachine(t *testing.T, bench string, kind machine.CoreKind) *machine.Machine {
	t.Helper()
	w, err := workload.Build(bench)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Core = kind
	m, err := machine.New(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSwiftLockstepWorkloads steps a swift machine and a Reference
// machine through every benchmark one cycle at a time, comparing full
// architectural state each cycle.
func TestSwiftLockstepWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: full-workload lockstep is slow")
	}
	for _, bench := range Benchmarks {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			fast := newSwiftMachine(t, bench, machine.CoreSwift)
			ref := newSwiftMachine(t, bench, machine.CoreSwiftRef)
			defer fast.Release()
			defer ref.Release()

			const maxCycles = 40_000_000
			steps := 0
			for cycle := 0; cycle < maxCycles; cycle++ {
				fast.StepCycles(1)
				ref.StepCycles(1)
				sf, sr := fast.CPU().Snapshot(), ref.CPU().Snapshot()
				// COUNT is interpreter-maintained; the fast path leaves it
				// stale between slow steps (see package comment).
				sf.COP0[isa.C0Count], sr.COP0[isa.C0Count] = 0, 0
				if sf != sr {
					t.Fatalf("architectural state diverged at cycle %d:\nswift: pc=%08x gpr=%x\nref:   pc=%08x gpr=%x",
						cycle, sf.PC, sf.GPR, sr.PC, sr.GPR)
				}
				if fast.Halted() != ref.Halted() {
					t.Fatalf("halt state diverged at cycle %d: swift=%v ref=%v",
						cycle, fast.Halted(), ref.Halted())
				}
				steps++
				if fast.Halted() {
					break
				}
			}
			if !fast.Halted() {
				t.Fatalf("benchmark did not halt within %d lockstep cycles", maxCycles)
			}
			if fast.Console() != ref.Console() {
				t.Fatalf("console diverged:\nswift: %q\nref:   %q", fast.Console(), ref.Console())
			}
			if fast.Committed != ref.Committed {
				t.Fatalf("committed instructions diverged: swift=%d ref=%d", fast.Committed, ref.Committed)
			}
			if steps < 1000 {
				t.Fatalf("vacuous lockstep: only %d cycles compared", steps)
			}
			// Lockstep cannot see a mistake the two cores share (they run
			// one batch loop and one charging path): pin the end state.
			sum := sha256.Sum256([]byte(fast.Console()))
			got := swiftEndState{hex.EncodeToString(sum[:]), fast.ExitCode(), fast.Committed, fast.Cycle()}
			if want := swiftEndStates[bench]; got != want {
				t.Errorf("%s: end state %+v, pinned %+v", bench, got, want)
			}
		})
	}
}

// swiftEndState is swift's functional end state on one workload: the
// SHA-256 of the console, the exit code, committed instructions and
// cycles.
type swiftEndState struct {
	console   string
	exit      uint32
	committed uint64
	cycles    uint64
}

var swiftEndStates = map[string]swiftEndState{
	"compress": {"2c4a106c77b223a59b4258dae959d2c1eb731388840a3ad52895149166a8b178", 0, 1065138, 1065138},
	"jess":     {"b8560643fd2ca63e29dbabca51da9708db2f9c4e7f73f91d9b5b974e669a85cc", 0, 1597523, 1597523},
	"db":       {"3dfc8ccfdaf8e4896fbf8553f948da2814cb24cc101ce8ec37063da849d5f059", 0, 1760599, 1760599},
	"javac":    {"922025708698a524dd2166f92a050f9fe825d135af0a066913f6beeeb23ebeb7", 0, 1555034, 1555034},
	"mtrt":     {"73ec3aa1af7d5c3b8ab0817dbe5dbbb30c4be3480cf3670ef7bd67d73445ba36", 0, 5555739, 5555739},
	"jack":     {"9d165f1f1d00d60dc5ba1270de5edb38db6f08e8a6995e3a1508833b294ec726", 0, 4203832, 4203832},
}

// TestSwiftMatchesMipsyEndToEnd checks the boundary-observable contract
// against the real mipsy core on every benchmark: identical console
// output, exit code, and debug-integer stream.
func TestSwiftMatchesMipsyEndToEnd(t *testing.T) {
	for _, bench := range Benchmarks {
		bench := bench
		t.Run(bench, func(t *testing.T) {
			t.Parallel()
			fast := newSwiftMachine(t, bench, machine.CoreSwift)
			slow := newSwiftMachine(t, bench, machine.CoreMipsy)
			defer fast.Release()
			defer slow.Release()
			if err := fast.Run(0); err != nil {
				t.Fatalf("swift: %v (console %q)", err, fast.Console())
			}
			if err := slow.Run(0); err != nil {
				t.Fatalf("mipsy: %v (console %q)", err, slow.Console())
			}
			if fast.Console() != slow.Console() {
				t.Errorf("console diverged:\nswift: %q\nmipsy: %q", fast.Console(), slow.Console())
			}
			if fast.ExitCode() != slow.ExitCode() {
				t.Errorf("exit code diverged: swift=%d mipsy=%d", fast.ExitCode(), slow.ExitCode())
			}
			fi, si := fast.IntValues(), slow.IntValues()
			if len(fi) != len(si) {
				t.Fatalf("debug-int stream length diverged: swift=%d mipsy=%d", len(fi), len(si))
			}
			for i := range fi {
				if fi[i] != si[i] {
					t.Fatalf("debug-int %d diverged: swift=%d mipsy=%d", i, fi[i], si[i])
				}
			}
			if fast.Committed == 0 {
				t.Fatal("vacuous run: no instructions committed")
			}
		})
	}
}
