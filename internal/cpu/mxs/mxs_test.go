package mxs

import (
	"encoding/binary"
	"testing"

	"softwatt/internal/arch"
	"softwatt/internal/isa"
	"softwatt/internal/mem"
	"softwatt/internal/trace"
)

type ramBus struct{ r *mem.RAM }

func (b ramBus) ReadPhys(pa uint32, size int) uint64     { return b.r.Read(pa, size) }
func (b ramBus) WritePhys(pa uint32, size int, v uint64) { b.r.Write(pa, size, v) }

// build assembles src and returns a ready core plus its CPU.
func build(t *testing.T, src string, cfg Config) (*Core, *arch.CPU, *trace.Collector) {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	ram := mem.NewRAM(4 << 20)
	for _, s := range p.Segments {
		pa := s.Addr
		if pa >= isa.KSEG0Base && pa < isa.KSEG1Base {
			pa -= isa.KSEG0Base
		}
		ram.LoadSegment(pa, s.Data)
	}
	bus := ramBus{ram}
	cpu := arch.New(bus)
	col := trace.NewCollector(1_000_000)
	core := New(cpu, mem.NewHierarchy(mem.DefaultHierConfig()), col, nil, bus, cfg)
	return core, cpu, col
}

// runUntilBreak ticks until a BREAK commits, returning cycles used.
func runUntilBreak(t *testing.T, c *Core, maxCycles uint64) uint64 {
	t.Helper()
	done := false
	var cyc uint64
	commit := func(info *arch.StepInfo) {
		if info.TookException && info.ExcCode == isa.ExcBreak {
			done = true
		}
	}
	for cyc = 0; cyc < maxCycles && !done; cyc++ {
		c.Tick(cyc, commit)
	}
	if !done {
		t.Fatalf("no break within %d cycles (pc=%08x, count=%d)", maxCycles, c.cpu.PC, c.count)
	}
	return cyc
}

const sumProgram = `
        .org 0x80020000
        li   t0, 0
        li   t1, 100
loop:
        addu t0, t0, t1
        addiu t1, t1, -1
        bnez t1, loop
        break
`

func TestMXSExecutesCorrectly(t *testing.T) {
	c, cpu, _ := build(t, sumProgram, DefaultConfig())
	runUntilBreak(t, c, 100000)
	if cpu.GPR[isa.RegT0] != 5050 {
		t.Fatalf("sum = %d", cpu.GPR[isa.RegT0])
	}
}

func TestMXSFasterThanSingleIssue(t *testing.T) {
	// An ILP-rich unrolled loop must run markedly faster 4-wide.
	src := `
        .org 0x80020000
        li   t0, 0
        li   t1, 0
        li   t2, 0
        li   t3, 0
        li   t4, 2000
loop:
        addiu t0, t0, 1
        addiu t1, t1, 2
        addiu t2, t2, 3
        addiu t3, t3, 4
        xor   t5, t0, t1
        xor   t6, t2, t3
        addiu t4, t4, -1
        bnez  t4, loop
        break
`
	wide, _, _ := build(t, src, DefaultConfig())
	one := DefaultConfig()
	one.FetchWidth, one.IssueWidth, one.CommitWidth, one.IntUnits, one.FPUnits = 1, 1, 1, 1, 1
	narrow, _, _ := build(t, src, one)
	cw := runUntilBreak(t, wide, 1_000_000)
	cn := runUntilBreak(t, narrow, 1_000_000)
	if float64(cn)/float64(cw) < 1.8 {
		t.Fatalf("4-wide speedup only %.2fx (%d vs %d cycles)", float64(cn)/float64(cw), cw, cn)
	}
}

func TestBranchPredictorLearns(t *testing.T) {
	// A tight loop branch is taken ~all the time; after warmup the
	// mispredict count must stay far below the iteration count.
	c, _, _ := build(t, sumProgram, DefaultConfig())
	runUntilBreak(t, c, 100000)
	if c.Mispredicts > 20 {
		t.Fatalf("mispredicts = %d for a monotone loop", c.Mispredicts)
	}
}

func TestSerializingOpsFlush(t *testing.T) {
	src := `
        .org 0x80020000
        li   t0, 50
loop:
        mfc0 t1, $status
        addiu t0, t0, -1
        bnez t0, loop
        break
`
	c, _, _ := build(t, src, DefaultConfig())
	cyc := runUntilBreak(t, c, 100000)
	// Serializing ops issue only from the head of a drained window and hold
	// younger work back, so this trivially parallel loop must fall below
	// 1 IPC (unserialized it would run near IPC 2.5).
	if cyc < 150 {
		t.Fatalf("serialized loop too fast: %d cycles for 150 instructions", cyc)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	src := `
        .org 0x80020000
        la   t0, buf
        li   t1, 42
        sw   t1, 0(t0)
        lw   t2, 0(t0)
        addu t3, t2, t2
        break
        .align 4
buf:    .word 0
`
	c, cpu, _ := build(t, src, DefaultConfig())
	runUntilBreak(t, c, 10000)
	if cpu.GPR[isa.RegT3] != 84 {
		t.Fatalf("t3 = %d", cpu.GPR[isa.RegT3])
	}
}

func TestWrongPathDoesNotCorruptState(t *testing.T) {
	// A data-dependent unpredictable branch pattern: the functional result
	// must be exact despite heavy speculation.
	src := `
        .org 0x80020000
        li   t0, 0          # acc
        li   t1, 1          # lcg
        li   t2, 500        # iters
        li   t3, 1103515245
loop:
        mul  t1, t1, t3
        addiu t1, t1, 12345
        andi t4, t1, 4
        beqz t4, even
        addiu t0, t0, 3
        b    next
even:
        addiu t0, t0, 5
next:
        addiu t2, t2, -1
        bnez t2, loop
        break
`
	c, cpu, _ := build(t, src, DefaultConfig())
	runUntilBreak(t, c, 1_000_000)
	// Compute the expected value in Go.
	acc, lcg := uint32(0), uint32(1)
	for i := 0; i < 500; i++ {
		lcg = lcg*1103515245 + 12345
		if lcg&4 == 0 {
			acc += 5
		} else {
			acc += 3
		}
	}
	if cpu.GPR[isa.RegT0] != acc {
		t.Fatalf("acc = %d, want %d (state corrupted by speculation)", cpu.GPR[isa.RegT0], acc)
	}
	if c.Bogus == 0 {
		t.Fatal("no wrong-path instructions fetched: predictor unrealistically perfect")
	}
}

func TestActivityCounted(t *testing.T) {
	c, _, col := build(t, sumProgram, DefaultConfig())
	runUntilBreak(t, c, 100000)
	tot := col.ModeTotals()
	var b trace.Bucket
	for m := range tot {
		b.Add(&tot[m])
	}
	if b.Units[trace.UnitALU] == 0 || b.Units[trace.UnitWindow] == 0 ||
		b.Units[trace.UnitRename] == 0 || b.Units[trace.UnitL1I] == 0 ||
		b.Units[trace.UnitBpred] == 0 {
		t.Fatalf("missing unit activity: %+v", b.Units)
	}
}

func TestRASSpeedsUpCallReturn(t *testing.T) {
	src := `
        .org 0x80020000
        li   s0, 300
loop:
        jal  fn
        addiu s0, s0, -1
        bnez s0, loop
        break
fn:     addiu v0, v0, 1
        jr   ra
`
	c, cpu, _ := build(t, src, DefaultConfig())
	runUntilBreak(t, c, 200000)
	if cpu.GPR[isa.RegV0] != 300 {
		t.Fatalf("v0 = %d", cpu.GPR[isa.RegV0])
	}
	// With the RAS, jr ra must rarely mispredict.
	if c.Mispredicts > 40 {
		t.Fatalf("mispredicts = %d with a return-address stack", c.Mispredicts)
	}
}

var _ = binary.LittleEndian // reserved for potential raw-image helpers
