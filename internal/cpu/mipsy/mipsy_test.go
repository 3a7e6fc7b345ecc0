package mipsy

import (
	"testing"

	"softwatt/internal/arch"
	"softwatt/internal/isa"
	"softwatt/internal/mem"
	"softwatt/internal/trace"
)

type ramBus struct{ r *mem.RAM }

func (b ramBus) ReadPhys(pa uint32, size int) uint64     { return b.r.Read(pa, size) }
func (b ramBus) WritePhys(pa uint32, size int, v uint64) { b.r.Write(pa, size, v) }

func build(t *testing.T, src string) (*Core, *arch.CPU, *trace.Collector) {
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
	return New(cpu, mem.NewHierarchy(mem.DefaultHierConfig()), col, nil), cpu, col
}

func run(t *testing.T, c *Core, maxCycles uint64) uint64 {
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
		t.Fatalf("no break in %d cycles", maxCycles)
	}
	return cyc
}

func TestMipsyExecutes(t *testing.T) {
	c, cpu, _ := build(t, `
        .org 0x80020000
        li   t0, 0
        li   t1, 100
loop:   addu t0, t0, t1
        addiu t1, t1, -1
        bnez t1, loop
        break
`)
	run(t, c, 100000)
	if cpu.GPR[isa.RegT0] != 5050 {
		t.Fatalf("sum = %d", cpu.GPR[isa.RegT0])
	}
	if c.Committed < 300 {
		t.Fatalf("committed = %d", c.Committed)
	}
}

func TestMipsySingleIssueTiming(t *testing.T) {
	// Mipsy is single-issue: a loop of N instructions takes at least N
	// cycles plus branch bubbles and cache warmup.
	c, _, _ := build(t, `
        .org 0x80020000
        li   t0, 1000
loop:   addiu t0, t0, -1
        bnez t0, loop
        break
`)
	cyc := run(t, c, 100000)
	if cyc < 2000 {
		t.Fatalf("loop of 2000 committed instructions took %d cycles", cyc)
	}
	// Taken-branch bubble each iteration: at least 3 cycles/iter.
	if cyc < 3000 {
		t.Fatalf("taken branch bubbles not charged: %d cycles", cyc)
	}
}

func TestMipsyCacheMissStalls(t *testing.T) {
	// Strided loads across many lines must be slower than repeated hits.
	hitSrc := `
        .org 0x80020000
        la   t1, data
        li   t0, 500
loop:   lw   t2, 0(t1)
        addiu t0, t0, -1
        bnez t0, loop
        break
        .align 8
data:   .word 1
`
	missSrc := `
        .org 0x80020000
        li   t1, 0x80100000
        li   t0, 500
loop:   lw   t2, 0(t1)
        addiu t1, t1, 4096
        addiu t0, t0, -1
        bnez t0, loop
        break
`
	ch, _, _ := build(t, hitSrc)
	cm, _, _ := build(t, missSrc)
	hit := run(t, ch, 1_000_000)
	miss := run(t, cm, 1_000_000)
	if float64(miss) < 2.5*float64(hit) {
		t.Fatalf("strided misses (%d) not much slower than hits (%d)", miss, hit)
	}
}

func TestMipsyCountsUnits(t *testing.T) {
	c, _, col := build(t, `
        .org 0x80020000
        li   t0, 3
        mtc1 t0, f0
        cvt.d.w f0, f0
        fmul f2, f0, f0
        la   t1, buf
        sw   t0, 0(t1)
        lw   t2, 0(t1)
        mul  t3, t0, t0
        break
        .align 4
buf:    .word 0
`)
	run(t, c, 10000)
	tot := col.ModeTotals()
	var b trace.Bucket
	for m := range tot {
		b.Add(&tot[m])
	}
	for _, u := range []trace.Unit{trace.UnitALU, trace.UnitFPU, trace.UnitMul,
		trace.UnitL1I, trace.UnitL1D, trace.UnitRegRead, trace.UnitRegWrite} {
		if b.Units[u] == 0 {
			t.Errorf("unit %v never counted", u)
		}
	}
}
