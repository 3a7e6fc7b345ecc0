package arch

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"softwatt/internal/isa"
	"softwatt/internal/isa/isatest"
	"softwatt/internal/mem"
)

// Differential oracle for the code cache: two identical CPUs over
// identical memories run the same randomized program in lockstep, one
// through StepInto with blocks (EnableBlocks), one on the plain
// interpreter (the cache never enabled). Every StepInfo, the architectural
// state after every step, and the final memory must be identical.
//
// Fuzz inputs: seed drives the random program, the initial registers and
// the interrupt line toggles; prefix (assembled code, optional) replaces
// the random words where execution begins; dmaAt, when nonzero, is
// the step at which a "DMA" rewrites the 64-byte line under the running
// PC on both sides, with only the block side told (InvalidateCode), as
// the machine does.

const (
	fzRAMBytes = 1 << 20
	fzCodeLen  = 0x40000 // random words from physical 0, with fzVectors at the exception vectors
	fzStart    = 0x20000 // physical address where execution (and the prefix) starts
	fzSteps    = 3000
)

// fzScenarios are hand-written prefixes for the cases a block cache can
// get wrong; the program continues into random code after each.
var fzScenarios = []struct {
	name  string
	src   string
	dmaAt uint16
}{
	{"store into the running block", `
        la   t0, patch
        la   t1, newinst
        lw   t2, 0(t1)
        sw   t2, 0(t0)
patch:  ori  v0, zero, 1
        ori  v1, zero, 2
        b    newinst+4
newinst: ori v0, zero, 99
`, 0},
	{"TLB write and ASID switch mid-block", fmt.Sprintf(`
        li   t0, 0x10000
        lw   t1, 0(t0)
        sw   t1, 8(t0)
        li   k0, 0x10005
        mtc0 k0, $entryhi
        li   k1, %#x
        mtc0 k1, $entrylo
        mtc0 zero, $index
        tlbwi
        lw   t2, 0(t0)
        sw   t2, 4(t0)
        li   k0, 0x10001
        mtc0 k0, $entryhi
        lw   t3, 0(t0)
`, PackEntryLo(0x70, true, true, false)), 0},
	{"TLB write replaces cached mappings", fmt.Sprintf(`
        li   t0, 0x10000
        lw   t1, 0(t0)
        sw   t1, 4(t0)
        li   t3, 0x11000
        li   t6, 0x1234
        sw   t6, 0(t3)
        lw   t4, 0(t3)
        li   k0, 0x30001
        mtc0 k0, $entryhi
        li   k1, %#x
        mtc0 k1, $entrylo
        mtc0 zero, $index
        tlbwi
        li   k0, 0x11001
        mtc0 k0, $entryhi
        li   k1, %#x
        mtc0 k1, $entrylo
        tlbwi
        lw   t5, 0(t3)
        sw   t5, 8(t3)
        lw   t2, 0(t0)
        sw   t2, 8(t0)
`, PackEntryLo(0x48, true, true, false), PackEntryLo(0x49, true, true, true)), 0},
	{"user mode after a kernel access", fmt.Sprintf(`
        lui  t0, 0x8003
        lw   t1, 0(t0)
        li   k0, 0x20001
        mtc0 k0, $entryhi
        li   k1, %#x
        mtc0 k1, $entrylo
        li   k0, 10
        mtc0 k0, $index
        tlbwi
        la   k0, user
        lui  k1, 0x8000
        subu k0, k0, k1
        mtc0 k0, $epc
        li   k1, 0x12
        mtc0 k1, $status
        eret
user:   lw   t2, 0(t0)
        sw   t2, 4(t0)
`, PackEntryLo(0x20, true, true, true)), 0},
	{"uncached access and fetch", `
        lui  t0, 0xA002
        lw   t1, 0(t0)
        sw   t1, 0x200(t0)
        lui  t3, 0x8002
        lw   t4, 0x200(t3)
        la   t5, there
        lui  t6, 0x2000
        addu t5, t5, t6
        jr   t5
        nop
there:  addiu t4, t4, 1
        lw   t2, 0x200(t0)
`, 0},
	{"DMA into code", `
loop:   addiu t0, t0, 1
        addiu t1, t1, 2
        xor   t2, t0, t1
        bne   t0, zero, loop
`, 40},
}

// fzVectors is the exception handler at both vectors. It resumes in
// kernel mode at the next instruction when the faulting PC lies in the
// code image, else at a COUNT-derived point in it, so a random program
// keeps running (and faulting) instead of settling into an exception loop.
const fzVectors = `
        .org 0x80000000
        j    handler
        .org 0x80000080
handler:
        mfc0 k0, $epc
        addiu k0, k0, 4
        ori  k0, k0, 3
        xori k0, k0, 3
        srl  k1, k0, 18
        xori k1, k1, 0x2000
        beq  k1, zero, resume
        mfc0 k0, $count
        andi k0, k0, 0xfffc
        lui  k1, 0x8002
        or   k0, k0, k1
resume:
        mtc0 k0, $epc
        mfc0 k1, $status
        ori  k1, k1, 0x10
        xori k1, k1, 0x10
        mtc0 k1, $status
        eret
`

// fzSide is one half of the lockstep pair.
type fzSide struct {
	cpu *CPU
	bus *ramBus
}

// fzSetup builds one side; both sides of a pair get identical state. The
// RAM goes back to its pool when the test ends.
func fzSetup(t *testing.T, code []byte, seed int64, blocks bool) fzSide {
	r := mem.NewRAM(fzRAMBytes)
	t.Cleanup(r.Release)
	bus := &ramBus{mem: r.Bytes(), ram: r}
	r.LoadSegment(0, code)
	c := New(bus)
	if blocks {
		c.EnableBlocks(bus.ram, uint32(len(bus.mem)))
	}
	rng := rand.New(rand.NewSource(seed * 977))
	// A partially-usable useg window: pages 16..23 map to physical pages
	// right above the code region. One invalid and two clean (read-only)
	// pages make TLBL and TLBMod faults part of normal traffic.
	for i := 0; i < 8; i++ {
		c.TLB[i] = TLBEntry{
			VPN:   uint32(16 + i),
			ASID:  1,
			PFN:   uint32(fzCodeLen>>isa.PageShift) + uint32(i),
			V:     i != 3,
			D:     i != 5 && i != 6,
			G:     i != 0,
			InUse: true,
		}
	}
	c.COP0[isa.C0EntryHi] = 1
	for r := 1; r < 32; r++ {
		if rng.Intn(2) == 0 {
			c.GPR[r] = uint32(16<<isa.PageShift) + uint32(rng.Intn(8<<isa.PageShift))
		} else {
			c.GPR[r] = rng.Uint32()
		}
	}
	for r := 0; r < 32; r++ {
		c.FPR[r] = float64(int32(rng.Uint32())) / 16.0
	}
	c.PC = isa.KSEG0Base + fzStart
	return fzSide{cpu: c, bus: bus}
}

func FuzzStepFastVsExact(f *testing.F) {
	vectors, err := isa.Assemble(fzVectors)
	if err != nil {
		f.Fatal(err)
	}
	for seed := int64(1); seed <= 6; seed++ {
		f.Add(seed, []byte(nil), uint16(0))
	}
	f.Add(int64(7), []byte(nil), uint16(700))
	for i, sc := range fzScenarios {
		p, err := isa.Assemble(fmt.Sprintf(".org %#x\n%s", uint32(isa.KSEG0Base+fzStart), sc.src))
		if err != nil {
			f.Fatalf("scenario %q: %v", sc.name, err)
		}
		f.Add(int64(100+i), p.Segments[0].Data, sc.dmaAt)
	}
	f.Fuzz(func(t *testing.T, seed int64, prefix []byte, dmaAt uint16) {
		rng := rand.New(rand.NewSource(seed))
		code := isatest.Program(rng, isa.KSEG0Base, fzCodeLen)
		for _, seg := range vectors.Segments {
			copy(code[seg.Addr-isa.KSEG0Base:], seg.Data)
		}
		copy(code[fzStart:], prefix[:len(prefix)&^3])
		fast, exact := fzSetup(t, code, seed, true), fzSetup(t, code, seed, false)

		var fi, xi StepInfo
		for step := uint64(0); step < fzSteps; step++ {
			if step%97 == 0 {
				line, on := uint8(rng.Intn(8)), rng.Intn(3) == 0
				fast.cpu.SetIRQ(line, on)
				exact.cpu.SetIRQ(line, on)
			}
			if dmaAt != 0 && step == uint64(dmaAt) {
				pa := uint32(fzStart)
				if va := fast.cpu.PC; va >= isa.KSEG0Base && va-isa.KSEG0Base < fzCodeLen {
					pa = (va - isa.KSEG0Base) &^ 63
				}
				data := isatest.Program(rng, isa.KSEG0Base+pa, 64)
				fast.bus.ram.LoadSegment(pa, data)
				exact.bus.ram.LoadSegment(pa, data)
				fast.cpu.InvalidateCode(pa, len(data))
			}
			fast.cpu.StepInto(step, &fi)
			exact.cpu.StepInto(step, &xi)
			if fi != xi {
				t.Fatalf("step %d: StepInfo diverged\nblocks: %+v\nexact:  %+v", step, fi, xi)
			}
			// A peeked op (the out-of-order core's wrong-path fetch) must
			// be exactly a fresh decode of memory and its metadata.
			if op := fast.cpu.PeekOp(fi.PC, fi.PhysPC); fi.Fetched && op != nil {
				in := fast.cpu.DecodeAt(fi.PhysPC)
				var m isa.Meta
				in.Fill(&m)
				if op.In != in || op.Meta != m {
					t.Fatalf("step %d: PeekOp(%08x) = %+v, memory holds %+v", step, fi.PC, op.In, in)
				}
			}
			if fs, xs := fast.cpu.Snapshot(), exact.cpu.Snapshot(); fs != xs {
				t.Fatalf("step %d: architectural state diverged\nblocks: %s gpr=%x\nexact:  %s gpr=%x",
					step, fast.cpu, fs.GPR, exact.cpu, xs.GPR)
			}
			if fi.Waiting && fast.cpu.IP == 0 {
				break // nothing can wake either side
			}
		}
		if !bytes.Equal(fast.bus.mem, exact.bus.mem) {
			t.Fatal("memory diverged between the block path and the exact interpreter")
		}
	})
}
