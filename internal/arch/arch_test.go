package arch

import (
	"bytes"
	"encoding/binary"
	"testing"

	"softwatt/internal/isa"
	"softwatt/internal/mem"
)

// ramBus is a flat 4 MB physical memory for tests, backed by a mem.RAM so
// a CPU can run its code cache over it (EnableBlocks).
type ramBus struct {
	mem []byte
	ram *mem.RAM
}

func newRAM() *ramBus {
	r := mem.NewRAM(4 << 20)
	return &ramBus{mem: r.Bytes(), ram: r}
}

// ReadPhys and WritePhys have mem.RAM's open-bus semantics: accesses past
// the end of memory read zero and write nothing.
func (r *ramBus) ReadPhys(pa uint32, size int) uint64     { return r.ram.Read(pa, size) }
func (r *ramBus) WritePhys(pa uint32, size int, v uint64) { r.ram.Write(pa, size, v) }

func (r *ramBus) load(p *isa.Program) {
	for _, s := range p.Segments {
		pa := s.Addr
		if pa >= isa.KSEG0Base && pa < isa.KSEG1Base {
			pa -= isa.KSEG0Base
		}
		copy(r.mem[pa:], s.Data)
	}
}

// run assembles src and steps it until a BREAK is taken. Every program runs
// twice in lockstep — on a CPU with the code cache enabled and on the plain
// interpreter — and every StepInfo and the full architectural state must
// agree at every step. The block-path CPU and its memory are returned.
func run(t *testing.T, src string, maxSteps int) (*CPU, *ramBus) {
	t.Helper()
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	bus, xbus := newRAM(), newRAM()
	bus.load(p)
	xbus.load(p)
	c, x := New(bus), New(xbus)
	c.EnableBlocks(bus.ram, uint32(len(bus.mem)))
	for i := 0; i < maxSteps; i++ {
		info := c.Step(uint64(i))
		if xi := x.Step(uint64(i)); info != xi {
			t.Fatalf("step %d: block path %+v\nexact      %+v", i, info, xi)
		}
		if c.Snapshot() != x.Snapshot() {
			t.Fatalf("step %d: architectural state diverged: block %s, exact %s", i, c, x)
		}
		if info.TookException && info.ExcCode == isa.ExcBreak {
			if !bytes.Equal(bus.mem, xbus.mem) {
				t.Fatal("memory diverged between the block path and the exact interpreter")
			}
			return c, bus
		}
		if info.TookException && info.ExcCode == isa.ExcRI {
			t.Fatalf("reserved instruction at pc=%08x", info.PC)
		}
	}
	t.Fatalf("program did not reach break in %d steps; %s", maxSteps, c)
	return nil, nil
}

func TestArithmeticProgram(t *testing.T) {
	c, _ := run(t, `
        .org 0x80020000
        li   t0, 6
        li   t1, 7
        mul  t2, t0, t1      # 42
        addiu t2, t2, 100    # 142
        sub  t3, t2, t0      # 136
        div  t4, t3, t1      # 19
        rem  t5, t3, t1      # 3
        sll  t6, t0, 4       # 96
        sra  t7, t6, 2       # 24
        slt  s0, t0, t1      # 1
        sltu s1, t1, t0      # 0
        nor  s2, zero, zero  # 0xffffffff
        break
`, 100)
	want := map[int]uint32{
		isa.RegT2: 142, isa.RegT3: 136, isa.RegT4: 19, isa.RegT5: 3,
		isa.RegT6: 96, isa.RegT7: 24, isa.RegS0: 1, isa.RegS1: 0,
		isa.RegS2: 0xFFFFFFFF,
	}
	for r, v := range want {
		if c.GPR[r] != v {
			t.Errorf("%s = %d, want %d", isa.GPRName[r], c.GPR[r], v)
		}
	}
}

func TestLoadStoreAndLoop(t *testing.T) {
	c, bus := run(t, `
        .org 0x80020000
        la   t0, array
        li   t1, 10          # count
        li   t2, 0           # sum
        move t3, t0
loop:
        lw   t4, 0(t3)
        addu t2, t2, t4
        addiu t3, t3, 4
        addiu t1, t1, -1
        bnez t1, loop
        sw   t2, 0(t0)       # overwrite first element with sum
        la   t4, sum_b
        lb   t5, 0(t4)
        lbu  t6, 0(t4)
        la   t4, sum_h
        lh   t7, 0(t4)
        lhu  s0, 0(t4)
        break
        .align 4
array:  .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10
sum_b:  .byte 0x80
        .align 2
sum_h:  .half 0x8000
`, 200)
	if c.GPR[isa.RegT2] != 55 {
		t.Fatalf("sum = %d", c.GPR[isa.RegT2])
	}
	// The store landed in physical memory (array is in kseg0).
	arrayPA := 0x80020000 + 0 // resolved below via symbol if needed
	_ = arrayPA
	_ = bus
	if c.GPR[isa.RegT5] != 0xFFFFFF80 || c.GPR[isa.RegT6] != 0x80 {
		t.Errorf("lb/lbu sign extension wrong: %x %x", c.GPR[isa.RegT5], c.GPR[isa.RegT6])
	}
	if c.GPR[isa.RegT7] != 0xFFFF8000 || c.GPR[isa.RegS0] != 0x8000 {
		t.Errorf("lh/lhu sign extension wrong: %x %x", c.GPR[isa.RegT7], c.GPR[isa.RegS0])
	}
}

func TestFunctionCallAndStack(t *testing.T) {
	c, _ := run(t, `
        .org 0x80020000
        li   sp, 0x80100000
        li   a0, 5
        jal  fact
        move s0, v0          # 120
        break
fact:   # recursive factorial
        addiu sp, sp, -8
        sw   ra, 4(sp)
        sw   a0, 0(sp)
        li   v0, 1
        blez a0, done
        addiu a0, a0, -1
        jal  fact
        lw   a0, 0(sp)
        mul  v0, v0, a0
done:
        lw   ra, 4(sp)
        addiu sp, sp, 8
        ret
`, 1000)
	if c.GPR[isa.RegS0] != 120 {
		t.Fatalf("fact(5) = %d", c.GPR[isa.RegS0])
	}
}

func TestFloatingPoint(t *testing.T) {
	c, _ := run(t, `
        .org 0x80020000
        li   t0, 9
        mtc1 t0, f0
        cvt.d.w f0, f0       # 9.0
        fsqrt f1, f0         # 3.0
        li   t1, 4
        mtc1 t1, f2
        cvt.d.w f2, f2       # 4.0
        fmul f3, f1, f2      # 12.0
        fadd f4, f3, f0      # 21.0
        fdiv f5, f4, f1      # 7.0
        fsub f6, f5, f2      # 3.0
        c.lt f2, f5          # 4 < 7 -> true
        bc1t yes
        li   s0, 0
        b    out
yes:    li   s0, 1
out:
        cvt.w.d f7, f6
        mfc1 s1, f7          # 3
        c.eq f1, f6          # 3.0 == 3.0
        bc1f no
        li   s2, 1
        b    out2
no:     li   s2, 0
out2:   break
`, 200)
	if c.FPR[5] != 7.0 {
		t.Errorf("f5 = %v", c.FPR[5])
	}
	if c.GPR[isa.RegS0] != 1 || c.GPR[isa.RegS1] != 3 || c.GPR[isa.RegS2] != 1 {
		t.Errorf("s0,s1,s2 = %d,%d,%d", c.GPR[isa.RegS0], c.GPR[isa.RegS1], c.GPR[isa.RegS2])
	}
}

// utlbKernel is a minimal kernel with a working TLB refill handler and a
// page table at kseg0 0x80080000 mapping useg page v to frame 0x100+v.
const utlbKernel = `
        .equ PTBASE, 0x80200000
        .org 0x80000000          # utlb refill vector
        mfc0 k0, $context
        lw   k0, 0(k0)
        mtc0 k0, $entrylo
        tlbwr
        eret
        .org 0x80000080          # general vector
        break                    # tests treat unexpected general exceptions as stop
`

func buildPageTable(bus *ramBus, npages int) {
	// PTE for vpn v at PTBASE + v*4: frame 0x100+v, V|D set.
	for v := 0; v < npages; v++ {
		pte := PackEntryLo(uint32(0x100+v), true, true, false)
		binary.LittleEndian.PutUint32(bus.mem[0x200000+v*4:], pte)
	}
}

func TestUTLBRefill(t *testing.T) {
	src := utlbKernel + `
        .org 0x80020000
        # set Context PTE base
        li   k0, PTBASE
        mtc0 k0, $context
        # touch three user pages
        li   t0, 0x00000000
        li   t1, 0x00001000
        li   t2, 0x00002000
        li   t3, 0xabcd0001
        sw   t3, 0(t0)
        sw   t3, 4(t1)
        sw   t3, 8(t2)
        lw   s0, 0(t0)
        break
`
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	bus := newRAM()
	bus.load(p)
	buildPageTable(bus, 8)
	c := New(bus)
	refills := 0
	for i := 0; i < 200; i++ {
		info := c.Step(uint64(i))
		if info.TookException {
			switch info.ExcCode {
			case isa.ExcBreak:
				if c.GPR[isa.RegS0] != 0xabcd0001 {
					t.Fatalf("s0 = %x", c.GPR[isa.RegS0])
				}
				if refills != 3 {
					t.Fatalf("refills = %d, want 3", refills)
				}
				// Verify the stores landed in the mapped frames.
				if got := uint32(bus.ReadPhys(0x100<<12, 4)); got != 0xabcd0001 {
					t.Fatalf("frame store = %x", got)
				}
				if got := uint32(bus.ReadPhys(0x101<<12+4, 4)); got != 0xabcd0001 {
					t.Fatalf("frame 1 store = %x", got)
				}
				return
			case isa.ExcTLBS, isa.ExcTLBL:
				if info.NextPC != isa.VecUTLB {
					t.Fatalf("TLB miss did not vector to utlb: %08x", info.NextPC)
				}
				refills++
			default:
				t.Fatalf("unexpected exception %d at %08x", info.ExcCode, info.PC)
			}
		}
	}
	t.Fatal("did not finish")
}

func TestSyscallAndUserMode(t *testing.T) {
	// Kernel: set up a user page, drop to user mode; user executes syscall;
	// kernel handler captures v0 and halts via break.
	src := utlbKernel + `
        .org 0x80020000
        li   k0, PTBASE
        mtc0 k0, $context
        # map user text page vpn 0x40 (va 0x40000) manually via tlbwi
        li   k0, 0x00040000
        mtc0 k0, $entryhi
        li   k1, 0x00140000 + 6   # pfn 0x140, V|D
        mtc0 k1, $entrylo
        li   k0, 1
        mtc0 k0, $index
        tlbwi
        # enter user mode: EPC=user entry, STATUS: UM|EXL (eret clears EXL)
        li   k0, 0x40000
        mtc0 k0, $epc
        li   k0, 0x12             # UM | EXL
        mtc0 k0, $status
        eret
        .org 0x80000100           # replace general handler below via jump
`
	// We need the general vector to inspect v0; patch: assemble separate
	// general handler directly at 0x80000080 by overriding utlbKernel's.
	src = `
        .equ PTBASE, 0x80200000
        .org 0x80000000
        mfc0 k0, $context
        lw   k0, 0(k0)
        mtc0 k0, $entrylo
        tlbwr
        eret
        .org 0x80000080
        mfc0 k0, $cause
        srl  k0, k0, 2
        andi k0, k0, 0x1f
        addiu k1, zero, 8         # ExcSyscall
        bne  k0, k1, bad
        break                     # reached on syscall: success
bad:    nop
        b    bad
` + src[len(utlbKernel):]
	// user code at physical 0x140000 (va 0x40000)
	user := `
        .org 0x00140000
        li   v0, 4011
        syscall
`
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	up, err := isa.Assemble(user)
	if err != nil {
		t.Fatal(err)
	}
	bus := newRAM()
	bus.load(p)
	bus.load(up)
	c := New(bus)
	sawUser := false
	for i := 0; i < 500; i++ {
		info := c.Step(uint64(i))
		if !info.KernelMode {
			sawUser = true
		}
		if info.TookException && info.ExcCode == isa.ExcBreak {
			if !sawUser {
				t.Fatal("never entered user mode")
			}
			if c.GPR[isa.RegV0] != 4011 {
				t.Fatalf("v0 = %d", c.GPR[isa.RegV0])
			}
			return
		}
	}
	t.Fatalf("did not reach break; %s", c)
}

func TestInterruptDelivery(t *testing.T) {
	src := `
        .org 0x80000080
        mfc0 k0, $cause
        break
        .org 0x80020000
        # enable IE with IM3 (disk line)
        li   k0, 0x0801
        mtc0 k0, $status
spin:   b spin
`
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	bus := newRAM()
	bus.load(p)
	c := New(bus)
	for i := 0; i < 20; i++ {
		c.Step(uint64(i))
	}
	c.SetIRQ(isa.IntDisk, true)
	for i := 20; i < 40; i++ {
		info := c.Step(uint64(i))
		if info.Interrupt {
			if info.NextPC != isa.VecGeneral {
				t.Fatalf("interrupt vector %08x", info.NextPC)
			}
			continue
		}
		if info.TookException && info.ExcCode == isa.ExcBreak {
			cause := c.GPR[isa.RegK0]
			if cause>>isa.CauseIPShift&0xFF&(1<<isa.IntDisk) == 0 {
				t.Fatalf("cause.IP missing disk line: %08x", cause)
			}
			return
		}
	}
	t.Fatal("interrupt never delivered")
}

func TestInterruptMasked(t *testing.T) {
	src := `
        .org 0x80020000
        li   t0, 100
spin:   addiu t0, t0, -1
        bnez t0, spin
        break
`
	p, _ := isa.Assemble(src)
	bus := newRAM()
	bus.load(p)
	c := New(bus)
	c.SetIRQ(isa.IntDisk, true) // IE=0: must never deliver
	for i := 0; i < 1000; i++ {
		info := c.Step(uint64(i))
		if info.Interrupt {
			t.Fatal("masked interrupt delivered")
		}
		if info.TookException && info.ExcCode == isa.ExcBreak {
			return
		}
	}
	t.Fatal("did not finish")
}

func TestLLSC(t *testing.T) {
	c, _ := run(t, `
        .org 0x80020000
        la   t0, lock
        # successful LL/SC pair
        ll   t1, 0(t0)
        addiu t1, t1, 1
        sc   t1, 0(t0)
        move s0, t1          # 1 = success
        lw   s1, 0(t0)       # 1
        # failed SC: no LL link held (previous SC consumed it)
        addiu t1, s1, 1
        sc   t1, 0(t0)
        move s2, t1          # 0 = failure
        lw   s3, 0(t0)       # still 1
        break
        .align 4
lock:   .word 0, 0
`, 100)
	if c.GPR[isa.RegS0] != 1 || c.GPR[isa.RegS1] != 1 {
		t.Errorf("sc success path: s0=%d s1=%d", c.GPR[isa.RegS0], c.GPR[isa.RegS1])
	}
	if c.GPR[isa.RegS2] != 0 || c.GPR[isa.RegS3] != 1 {
		t.Errorf("sc failure path: s2=%d s3=%d", c.GPR[isa.RegS2], c.GPR[isa.RegS3])
	}
}

func TestSCFailsAfterException(t *testing.T) {
	// Any exception (here a syscall) between LL and SC clears the link bit,
	// so the SC must fail — the property spinlock code depends on.
	src := `
        .org 0x80000080
        mfc0 k0, $cause
        srl  k0, k0, 2
        andi k0, k0, 0x1f
        addiu k1, zero, 8
        bne  k0, k1, stop     # only syscall continues
        mfc0 k0, $epc
        addiu k0, k0, 4
        mtc0 k0, $epc
        eret
stop:   break
        .org 0x80020000
        la   t0, lock
        ll   t1, 0(t0)
        syscall
        addiu t1, t1, 1
        sc   t1, 0(t0)
        move s0, t1           # must be 0
        break
        .align 4
lock:   .word 7
`
	p, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	bus := newRAM()
	bus.load(p)
	c := New(bus)
	for i := 0; i < 200; i++ {
		info := c.Step(uint64(i))
		if info.TookException && info.ExcCode == isa.ExcBreak {
			if info.PC >= 0x80020000 { // break reached via stop: wrong path
				if c.GPR[isa.RegS0] != 0 {
					t.Fatalf("sc after exception succeeded: s0=%d", c.GPR[isa.RegS0])
				}
				return
			}
			if c.GPR[isa.RegS0] != 0 {
				t.Fatalf("sc after exception succeeded: s0=%d", c.GPR[isa.RegS0])
			}
			return
		}
	}
	t.Fatal("did not finish")
}

func TestInvalidPTECausesGeneralException(t *testing.T) {
	src := `
        .equ PTBASE, 0x80200000
        .org 0x80000000
        mfc0 k0, $context
        lw   k0, 0(k0)
        mtc0 k0, $entrylo
        tlbwr
        eret
        .org 0x80000080
        break                # general handler: stop
        .org 0x80020000
        li   k0, PTBASE
        mtc0 k0, $context
        li   t0, 0x00005000  # vpn 5: PTE invalid (V=0)
        lw   t1, 0(t0)
        nop
        nop
`
	p, _ := isa.Assemble(src)
	bus := newRAM()
	bus.load(p)
	// PTE for vpn 5 exists but V=0.
	binary.LittleEndian.PutUint32(bus.mem[0x80000+5*4:], PackEntryLo(0x105, false, false, false))
	c := New(bus)
	var excs []uint8
	for i := 0; i < 100; i++ {
		info := c.Step(uint64(i))
		if info.TookException {
			excs = append(excs, info.ExcCode)
			if info.ExcCode == isa.ExcBreak {
				// Expect: TLBL (refill, utlb vector), then TLBL again (hit
				// invalid -> general), then break from general handler.
				if len(excs) != 3 || excs[0] != isa.ExcTLBL || excs[1] != isa.ExcTLBL {
					t.Fatalf("exception sequence %v", excs)
				}
				return
			}
		}
	}
	t.Fatal("did not stop")
}

func TestWaitResumesOnInterrupt(t *testing.T) {
	src := `
        .org 0x80000080
        break
        .org 0x80020000
        li   k0, 0x8001       # IE | IM7
        mtc0 k0, $status
        wait
        nop
`
	p, _ := isa.Assemble(src)
	bus := newRAM()
	bus.load(p)
	c := New(bus)
	waits := 0
	for i := 0; i < 50; i++ {
		info := c.Step(uint64(i))
		if info.Waiting {
			waits++
			if waits == 5 {
				c.SetIRQ(isa.IntTimer, true)
			}
		}
		if info.TookException && info.ExcCode == isa.ExcBreak {
			if waits < 5 {
				t.Fatalf("waits = %d", waits)
			}
			return
		}
	}
	t.Fatal("wait never resumed")
}

func TestTLBLookupsCounted(t *testing.T) {
	src := utlbKernel + `
        .org 0x80020000
        li   k0, PTBASE
        mtc0 k0, $context
        li   t0, 0
        lw   t1, 0(t0)       # user address: fetch is kseg0 (no TLB), data mapped
        break
`
	p, _ := isa.Assemble(src)
	bus := newRAM()
	bus.load(p)
	buildPageTable(bus, 8)
	c := New(bus)
	total := 0
	for i := 0; i < 100; i++ {
		info := c.Step(uint64(i))
		total += info.TLBLookups
		if info.TookException && info.ExcCode == isa.ExcBreak {
			// Exactly 2 data lookups (miss then hit after refill); kernel
			// fetches are kseg0 and must not touch the TLB.
			if total != 2 {
				t.Fatalf("TLB lookups = %d, want 2", total)
			}
			return
		}
	}
	t.Fatal("did not finish")
}

func TestUserCannotTouchKernel(t *testing.T) {
	// User-mode access to kseg0 must raise an address error to the general
	// vector, not succeed.
	src := `
        .org 0x80000000
        break
        .org 0x80000080
        mfc0 k0, $cause
        break
        .org 0x80020000
        # map user page and jump to it
        li   k0, 0x00040000
        mtc0 k0, $entryhi
        li   k1, 0x00140000 + 6
        mtc0 k1, $entrylo
        li   k0, 1
        mtc0 k0, $index
        tlbwi
        li   k0, 0x40000
        mtc0 k0, $epc
        li   k0, 0x12
        mtc0 k0, $status
        eret
`
	user := `
        .org 0x00140000
        li   t0, 0x80020000
        lw   t1, 0(t0)        # illegal from user mode
`
	p, _ := isa.Assemble(src)
	up, _ := isa.Assemble(user)
	bus := newRAM()
	bus.load(p)
	bus.load(up)
	c := New(bus)
	for i := 0; i < 200; i++ {
		info := c.Step(uint64(i))
		if info.TookException && info.ExcCode == isa.ExcBreak {
			cause := c.GPR[isa.RegK0]
			code := cause >> isa.CauseExcShift & 0x1F
			if code != isa.ExcAdEL {
				t.Fatalf("exception code %d, want AdEL", code)
			}
			return
		}
	}
	t.Fatal("no exception")
}
