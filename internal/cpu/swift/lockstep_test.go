package swift

// Randomized-program lockstep: two identical CPUs over identical flat
// memories run the same chaotic instruction stream — one through the
// fast-forward core at budget 1 (so every superblock mechanism still
// engages: build, cache, SMC invalidation, slow-op delegation), one
// through the raw interpreter — and their complete architectural state
// must match after every single cycle.
//
// The programs come from isatest.Program, with registers aimed at a
// partially-mapped, partially-writable useg window. Exception vectors land
// in the same randomized memory, so fault handling "runs" random code too.
// Whatever happens, both sides must agree bit for bit.

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"softwatt/internal/arch"
	"softwatt/internal/isa"
	"softwatt/internal/isa/isatest"
	"softwatt/internal/mem"
	"softwatt/internal/trace"
)

// flatBus adapts mem.RAM to arch.Bus with no MMIO: out-of-range reads
// return zero, out-of-range writes vanish, as RAM itself guarantees.
type flatBus struct{ ram *mem.RAM }

func (b flatBus) ReadPhys(pa uint32, size int) uint64     { return b.ram.Read(pa, size) }
func (b flatBus) WritePhys(pa uint32, size int, v uint64) { b.ram.Write(pa, size, v) }

// nopSync discards cycle publications: there are no devices to observe.
type nopSync struct{}

func (nopSync) SyncCycle(uint64) {}

const (
	lsRAMBytes = 1 << 20 // flat physical memory per side
	lsCodeBase = 0x20000 // physical base of the randomized code region
	lsCodeLen  = 0x20000 // bytes of random words (covers exception vectors)
	lsSteps    = 4000    // cycles per seed
)

// lsProgram generates one randomized code image.
func lsProgram(rng *rand.Rand) []byte {
	return isatest.Program(rng, lsCodeBase, lsCodeLen)
}

// lsSide is one machine half: a CPU over a flat RAM.
type lsSide struct {
	cpu *arch.CPU
	ram *mem.RAM
}

// lsSetup builds one side with the given code image and seeded state.
// Both sides are built from the same rng sequence, so their initial
// states are identical.
func lsSetup(code []byte, rng *rand.Rand) lsSide {
	ram := mem.NewRAM(lsRAMBytes)
	cpu := arch.New(flatBus{ram})
	ram.LoadSegment(lsCodeBase, code)

	// A partially-usable useg window: pages 16..23 map to physical pages
	// right above the code region. One invalid and two clean (read-only)
	// pages make TLBL and TLBMod faults part of normal traffic.
	for i := 0; i < 8; i++ {
		cpu.TLB[i] = arch.TLBEntry{
			VPN:   uint32(16 + i),
			PFN:   uint32((lsCodeBase+lsCodeLen)>>isa.PageShift) + uint32(i),
			V:     i != 3,
			D:     i != 5 && i != 6,
			G:     true,
			InUse: true,
		}
	}
	// Registers point into (and around) the mapped window so memory ops
	// hit valid pages, clean pages, the invalid page, and unmapped space.
	for r := 1; r < 32; r++ {
		if rng.Intn(2) == 0 {
			cpu.GPR[r] = uint32(16<<isa.PageShift) + uint32(rng.Intn(8<<isa.PageShift))
		} else {
			cpu.GPR[r] = rng.Uint32()
		}
	}
	for r := 0; r < 32; r++ {
		cpu.FPR[r] = float64(int32(rng.Uint32())) / 16.0
	}
	cpu.PC = isa.KSEG0Base + lsCodeBase
	return lsSide{cpu: cpu, ram: ram}
}

func TestLockstepRandomPrograms(t *testing.T) {
	var total struct {
		sync.Mutex
		Stats
	}
	// The seeds run as parallel subtests inside a group so the aggregate
	// coverage check below runs after all of them finish. A single seed
	// may settle into a tight fast loop; across seeds, every mechanism
	// (block builds, slow-op delegation, SMC invalidation) must fire.
	t.Run("seeds", func(t *testing.T) {
		for seed := int64(1); seed <= 8; seed++ {
			seed := seed
			t.Run("", func(t *testing.T) {
				t.Parallel()
				code := lsProgram(rand.New(rand.NewSource(seed)))
				fastSide := lsSetup(code, rand.New(rand.NewSource(seed*977)))
				refSide := lsSetup(code, rand.New(rand.NewSource(seed*977)))
				fastSide.cpu.EnableBlocks(fastSide.ram, lsRAMBytes)
				col := trace.NewCollector(1_000_000)
				core := New(fastSide.cpu, fastSide.ram, col, nopSync{})

				var info arch.StepInfo
				retired, cycles := uint64(0), uint64(0)
				for cycle := uint64(0); cycle < lsSteps; cycle++ {
					ran, n, _ := core.RunBatch(cycle, 1, nil)
					if ran != 1 {
						t.Fatalf("cycle %d: RunBatch consumed %d cycles, want 1", cycle, ran)
					}
					retired += n
					cycles += ran
					refSide.cpu.StepInto(cycle, &info)

					sf, sr := fastSide.cpu.Snapshot(), refSide.cpu.Snapshot()
					sf.COP0[isa.C0Count], sr.COP0[isa.C0Count] = 0, 0
					if sf != sr {
						t.Fatalf("seed %d: state diverged at cycle %d:\nswift: pc=%08x gpr=%x random=%d\nref:   pc=%08x gpr=%x random=%d",
							seed, cycle, sf.PC, sf.GPR, sf.Random, sr.PC, sr.GPR, sr.Random)
					}
					if sf.Wait {
						// With interrupts impossible here, WAIT is terminal on
						// both sides; the snapshots above already agreed.
						break
					}
				}
				if retired == 0 {
					t.Fatalf("seed %d: vacuous run: nothing retired", seed)
				}
				if col.TotalCycles() != cycles || col.TotalInsts() != retired {
					t.Fatalf("seed %d: collector charged %d cycles/%d insts, batches ran %d/%d",
						seed, col.TotalCycles(), col.TotalInsts(), cycles, retired)
				}
				fb, rb := fastSide.ram.Bytes(), refSide.ram.Bytes()
				for i := range fb {
					if fb[i] != rb[i] {
						t.Fatalf("seed %d: memory diverged at pa=%#x: swift=%#x ref=%#x",
							seed, i, fb[i], rb[i])
					}
				}
				// A store may be a mapping its RAM's finalizer unmaps: the
				// RAMs must outlive the slices just read.
				runtime.KeepAlive(fastSide.ram)
				runtime.KeepAlive(refSide.ram)
				st := core.Stats()
				total.Lock()
				total.Hits += st.Hits
				total.Misses += st.Misses
				total.Invalidations += st.Invalidations
				total.SlowSteps += st.SlowSteps
				total.Unlock()
			})
		}
	})
	if total.Hits == 0 || total.Misses == 0 || total.SlowSteps == 0 {
		t.Fatalf("degenerate corpus: aggregate stats %+v", total.Stats)
	}
}
