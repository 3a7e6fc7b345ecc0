package arch

import (
	"encoding/binary"
	"fmt"
	"testing"

	"softwatt/internal/isa"
)

// Tests for the code cache in blocks.go: the invariance contract says it
// must be transparent, so every test drives a scenario where a stale block
// or translation would change architected behaviour and asserts that it
// does not. Programs go through run, which also checks every step against
// the plain interpreter.

// encodeInst assembles a single instruction and returns its machine word.
func encodeInst(t *testing.T, asm string) uint32 {
	t.Helper()
	p, err := isa.Assemble(".org 0x0\n" + asm + "\n")
	if err != nil {
		t.Fatal(err)
	}
	return binary.LittleEndian.Uint32(p.Segments[0].Data)
}

// A store into the running block must invalidate it: the patched
// instruction sits in the same superblock as the store that patches it
// (no control flow in between), so a stale block would execute the
// original "ori v0, zero, 1".
func TestPredecodeSelfModifyingCode(t *testing.T) {
	newWord := encodeInst(t, "ori v0, zero, 99")
	c, _ := run(t, fmt.Sprintf(`
        .org 0x80020000
        la   t0, patch
        la   t1, newinst
        lw   t2, 0(t1)
        sw   t2, 0(t0)
patch:
        ori  v0, zero, 1
        break
        .align 4
newinst: .word 0x%08x
`, newWord), 100)
	if c.GPR[isa.RegV0] != 99 {
		t.Fatalf("v0 = %d, want 99: store did not invalidate the running block", c.GPR[isa.RegV0])
	}
	if st := c.BlockStats(); st.Invalidations == 0 {
		t.Fatalf("no invalidation counted: %+v", st)
	}
}

// InvalidateCode covers writes that bypass the CPU store path (DMA).
func TestPredecodeDMAInvalidate(t *testing.T) {
	bus := newRAM()
	c := New(bus)
	c.EnableBlocks(bus.ram, uint32(len(bus.mem)))

	const pa = 0x40000
	bus.WritePhys(pa, 4, uint64(encodeInst(t, "ori v0, zero, 1")))
	c.PC = isa.KSEG0Base + pa
	if b := c.BlockAt(blockMaxOps); b == nil || b.Ops[0].In.Imm != 1 {
		t.Fatalf("initial block: %+v", b)
	}

	// A bare bus write simulates DMA: the block must go stale (this is
	// exactly why the machine calls InvalidateCode after DMA).
	bus.WritePhys(pa, 4, uint64(encodeInst(t, "ori v0, zero, 99")))
	if b := c.BlockAt(blockMaxOps); b.Ops[0].In.Imm != 1 {
		t.Fatalf("block after raw write imm = %d; code cache is not active", b.Ops[0].In.Imm)
	}
	c.InvalidateCode(pa, 4)
	if b := c.BlockAt(blockMaxOps); b.Ops[0].In.Imm != 99 {
		t.Fatalf("block after InvalidateCode imm = %d, want 99", b.Ops[0].In.Imm)
	}
	if info := c.Step(0); c.GPR[isa.RegV0] != 99 || !info.Fetched {
		t.Fatalf("stepped v0 = %d, want 99", c.GPR[isa.RegV0])
	}
}

// Restore is an O(1) epoch bump that drops every block: the restored RAM
// may hold different code at the same addresses.
func TestRestoreDropsBlocks(t *testing.T) {
	bus := newRAM()
	c := New(bus)
	c.EnableBlocks(bus.ram, uint32(len(bus.mem)))
	const pa = 0x40000
	bus.WritePhys(pa, 4, uint64(encodeInst(t, "ori v0, zero, 1")))
	c.PC = isa.KSEG0Base + pa
	snap := c.Snapshot()
	c.Step(0)
	bus.WritePhys(pa, 4, uint64(encodeInst(t, "ori v0, zero, 7")))
	c.Restore(snap)
	c.Step(0)
	if c.GPR[isa.RegV0] != 7 {
		t.Fatalf("v0 = %d after restore, want 7: a stale block survived", c.GPR[isa.RegV0])
	}
}

// A swift hand-off (StepBlock) runs the op at PC from the block the
// caller holds: the interpreter's StepInfo, one slow step each, and no
// second lookup (which would count a hit, or build a block starting
// mid-block and evict the one in its slot).
func TestStepBlockHandOff(t *testing.T) {
	bus, xbus := newRAM(), newRAM()
	const pa = 0x40000
	for i, asm := range []string{"ori v0, zero, 1", "ori v1, zero, 2", "addu a0, v0, v1"} {
		w := uint64(encodeInst(t, asm))
		bus.WritePhys(pa+4*uint32(i), 4, w)
		xbus.WritePhys(pa+4*uint32(i), 4, w)
	}
	c, x := New(bus), New(xbus)
	c.EnableBlocks(bus.ram, uint32(len(bus.mem)))
	c.PC, x.PC = isa.KSEG0Base+pa, isa.KSEG0Base+pa
	b := c.BlockAt(blockMaxOps)
	var info StepInfo
	for i := 0; i < 4; i++ {
		if i < 3 {
			c.StepBlock(uint64(i), &info, b, i)
		} else {
			c.StepBlock(uint64(i), &info, nil, 0) // no block: the exact fetch
		}
		if xi := x.Step(uint64(i)); info != xi {
			t.Fatalf("step %d: hand-off %+v\nexact    %+v", i, info, xi)
		}
		if c.Snapshot() != x.Snapshot() {
			t.Fatalf("step %d: state diverged: hand-off %s, exact %s", i, c, x)
		}
	}
	if st := c.BlockStats(); st != (BlockStats{Misses: 1, SlowSteps: 4}) {
		t.Fatalf("stats %+v, want one build and four slow steps", st)
	}
}

// PeekOp serves a wrong-path fetch from a valid block, at its start or
// inside the block it last served, and never from a stale one.
func TestPeekOp(t *testing.T) {
	bus := newRAM()
	c := New(bus)
	c.EnableBlocks(bus.ram, uint32(len(bus.mem)))
	const pa, va = 0x40000, isa.KSEG0Base + 0x40000
	for i, asm := range []string{"ori v0, zero, 1", "ori v1, zero, 2", "jr ra"} {
		bus.WritePhys(pa+4*uint32(i), 4, uint64(encodeInst(t, asm)))
	}
	if op := c.PeekOp(va, pa); op != nil {
		t.Fatalf("PeekOp before any block: %+v", op)
	}
	c.PC = va
	b := c.BlockAt(blockMaxOps)
	if c.PeekOp(va+4, pa+4) != nil {
		t.Fatal("PeekOp inside a block it has not served yet")
	}
	if op := c.PeekOp(va, pa); op != &b.Ops[0] {
		t.Fatalf("PeekOp at the block start = %p, want %p", op, &b.Ops[0])
	}
	if op := c.PeekOp(va+8, pa+8); op != &b.Ops[2] {
		t.Fatalf("PeekOp inside the block = %p, want %p", op, &b.Ops[2])
	}
	if c.PeekOp(va+2, pa+2) != nil || c.PeekOp(va+4, pa+0x1004) != nil {
		t.Fatal("PeekOp served a misaligned PC or a different physical page")
	}
	c.NoteStore(pa + 4) // a store into the code page
	if c.PeekOp(va+4, pa+4) != nil || c.PeekOp(va, pa) != nil {
		t.Fatal("PeekOp served a block built before a store into its page")
	}
}

// tlbProgram returns kernel code that maps useg page va>>12 for asid to
// frame pfn with TLBWI into entry idx.
func tlbProgram(idx, va, pfn uint32, asid uint8, dirty bool) string {
	return fmt.Sprintf(`
        li   k0, %#x
        mtc0 k0, $entryhi
        li   k1, %#x
        mtc0 k1, $entrylo
        li   k0, %d
        mtc0 k0, $index
        tlbwi
`, va&^(isa.PageSize-1)|uint32(asid), PackEntryLo(pfn, true, dirty, false), idx)
}

// A TLB write over a cached translation must take effect on the very next
// access. (The host translation caches replaced the micro-TLBs this test
// was written for; the property is the same.)
func TestMicroTLBInvalidatedByTLBWrite(t *testing.T) {
	const va = 0x00004000
	c, _ := run(t, `
        .org 0x80100000
        .word 0x1111
        .org 0x80101000
        .word 0x2222
        .org 0x80020000
`+tlbProgram(0, va, 0x100, 1, true)+`
        li   t0, 0x4000
        lw   t1, 0(t0)
`+tlbProgram(0, va, 0x101, 1, true)+`
        lw   t2, 0(t0)
        break
`, 100)
	if c.GPR[isa.RegT1] != 0x1111 || c.GPR[isa.RegT2] != 0x2222 {
		t.Fatalf("t1=%#x t2=%#x, want 0x1111 then 0x2222 across the remap",
			c.GPR[isa.RegT1], c.GPR[isa.RegT2])
	}
}

// An ASID switch must stop cached translations from hitting: the same VPN
// in another address space maps elsewhere.
func TestMicroTLBASIDSwitch(t *testing.T) {
	const va = 0x00008000
	c, _ := run(t, `
        .org 0x80100000
        .word 0xAAAA
        .org 0x80101000
        .word 0xBBBB
        .org 0x80020000
`+tlbProgram(0, va, 0x100, 1, true)+tlbProgram(1, va, 0x101, 2, true)+`
        li   k0, 1
        mtc0 k0, $entryhi
        li   t0, 0x8000
        lw   t1, 0(t0)
        li   k0, 2
        mtc0 k0, $entryhi    # context switch: same VPN, different space
        lw   t2, 0(t0)
        break
`, 100)
	if c.GPR[isa.RegT1] != 0xAAAA || c.GPR[isa.RegT2] != 0xBBBB {
		t.Fatalf("t1=%#x t2=%#x, want 0xAAAA under ASID 1 and 0xBBBB under ASID 2",
			c.GPR[isa.RegT1], c.GPR[isa.RegT2])
	}
}

// A read hit must not let a later store bypass the dirty-bit check: reads
// and writes have separate caches, so a store to a clean page in the same
// block as a load from it still raises TLBMod.
func TestMicroTLBCleanPageStore(t *testing.T) {
	const va = 0x0000C000
	c, _ := run(t, `
        .org 0x80000080
        mfc0 k0, $cause
        break
        .org 0x80020000
`+tlbProgram(0, va, 0x100, 1, false)+`
        li   t0, 0xC000
        lw   t1, 0(t0)
        sw   t1, 0(t0)
        break
`, 100)
	if code := c.GPR[isa.RegK0] & isa.CauseExcMask >> isa.CauseExcShift; code != isa.ExcTLBMod {
		t.Fatalf("store to clean page raised exception %d, want TLBMod (%d)", code, isa.ExcTLBMod)
	}
}
