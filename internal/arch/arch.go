// Package arch implements the functional (architectural) model of the M32
// processor: register state, coprocessor 0, the software-managed TLB,
// exception and interrupt semantics, and single-instruction execution
// against a physical bus.
//
// The functional core is the single source of architectural truth. The
// timing models in internal/cpu/mipsy and internal/cpu/mxs follow the
// timing-first simulation methodology: they drive this core one committed
// instruction at a time and model pipelines, caches and speculation around
// the StepInfo records it produces. This mirrors the split in SimOS between
// its CPU models (Mipsy, MXS) and the underlying machine state.
package arch

import (
	"fmt"

	"softwatt/internal/isa"
)

// Bus is the physical address space seen by the CPU: RAM plus
// memory-mapped devices. Addresses are physical. Size is 1, 2, 4 or 8.
type Bus interface {
	ReadPhys(paddr uint32, size int) uint64
	WritePhys(paddr uint32, size int, v uint64)
}

// CycleSync is the machine's exact-time hook for timing cores that run
// many cycles per call: the core publishes the current cycle before any
// step that can reach MMIO, so device handlers that read or latch the
// machine cycle (timer arming, disk submission) see what a per-cycle loop
// would have shown them.
type CycleSync interface {
	SyncCycle(cycle uint64)
}

// NumTLB is the number of TLB entries (fully associative, unified), per the
// paper's Table 1.
const NumTLB = 64

// tlbWired is the number of low TLB entries never selected by TLBWR.
const tlbWired = 4

// TLBEntry is one entry of the software-managed unified TLB.
type TLBEntry struct {
	VPN   uint32 // virtual page number
	ASID  uint8
	PFN   uint32 // physical frame number
	V     bool   // valid
	D     bool   // dirty (writable)
	G     bool   // global (ignore ASID)
	InUse bool   // entry has been written at least once
}

// EntryLo flag bits.
const (
	EntryLoG = 1 << 0
	EntryLoV = 1 << 1
	EntryLoD = 1 << 2
)

// PackEntryLo builds an EntryLo register value.
func PackEntryLo(pfn uint32, v, d, g bool) uint32 {
	e := pfn << 12
	if g {
		e |= EntryLoG
	}
	if v {
		e |= EntryLoV
	}
	if d {
		e |= EntryLoD
	}
	return e
}

// MemKind classifies a memory access for the timing models.
type MemKind uint8

// Memory access kinds.
const (
	MemNone MemKind = iota
	MemLoad
	MemStore
)

// StepInfo reports everything a timing model needs to know about one
// architecturally executed instruction (or taken exception/interrupt).
type StepInfo struct {
	PC      uint32
	NextPC  uint32
	PhysPC  uint32 // physical address of the instruction (valid when Fetched)
	Fetched bool   // instruction bytes were read (false for interrupts and fetch faults)
	Inst    isa.Inst

	Mem         MemKind
	MemVaddr    uint32
	MemPaddr    uint32
	MemSize     uint8
	MemUncached bool

	TookException bool
	ExcCode       uint8
	Interrupt     bool
	// NestedExc is set when the exception was taken with EXL already set:
	// EPC is not updated, so the interrupted handler is abandoned and will
	// be re-entered from scratch after ERET (the MIPS double-fault dance
	// of a TLB miss inside the utlb refill handler).
	NestedExc bool

	TLBLookups int // hardware TLB lookups performed (fetch + data)

	Branch      bool // conditional branch executed
	BranchTaken bool
	CacheOp     bool
	CacheVaddr  uint32
	CachePaddr  uint32
	CacheMapped bool // cache-op address translated successfully
	SCFailed    bool
	KernelMode  bool // mode the instruction executed in
	Waiting     bool // WAIT executed with no pending interrupt
	Halted      bool
}

// CPU is the architectural state of one M32 processor.
type CPU struct {
	GPR [32]uint32
	FPR [32]float64
	FCC bool
	PC  uint32

	COP0 [32]uint32
	TLB  [NumTLB]TLBEntry

	llBit  bool
	llAddr uint32
	random uint8

	// IP is the external interrupt request lines (bit i = line i).
	IP uint8

	// Halted is set by the platform HALT device (via Halt).
	Halted bool

	bus Bus

	waiting bool

	// code is the superblock cache and its host translation caches (see
	// blocks.go). Never architecturally visible.
	code codeCache
}

// New creates a CPU in the post-reset state: kernel mode, exceptions off,
// PC at the reset vector.
func New(bus Bus) *CPU {
	c := &CPU{bus: bus, random: NumTLB - 1}
	c.Reset()
	return c
}

// Reset restores the power-on architectural state.
func (c *CPU) Reset() {
	c.GPR = [32]uint32{}
	c.FPR = [32]float64{}
	c.FCC = false
	c.PC = isa.VecReset
	c.COP0 = [32]uint32{}
	c.COP0[isa.C0Status] = 0 // kernel mode, interrupts disabled
	c.COP0[isa.C0PRId] = 0x0A10
	c.TLB = [NumTLB]TLBEntry{}
	c.llBit = false
	c.random = NumTLB - 1
	c.IP = 0
	c.Halted = false
	c.waiting = false
	c.resetCode()
}

// Halt stops the processor (platform power-off).
func (c *CPU) Halt() { c.Halted = true }

// SetIRQ asserts (on=true) or deasserts external interrupt line.
func (c *CPU) SetIRQ(line uint8, on bool) {
	if on {
		c.IP |= 1 << line
	} else {
		c.IP &^= 1 << line
	}
}

// UserMode reports whether the CPU currently executes user code.
func (c *CPU) UserMode() bool {
	st := c.COP0[isa.C0Status]
	return st&isa.StatusUM != 0 && st&isa.StatusEXL == 0
}

// ASID returns the current address-space id from EntryHi.
func (c *CPU) ASID() uint8 { return uint8(c.COP0[isa.C0EntryHi]) }

// translate result codes.
type xlat uint8

const (
	xlatOK xlat = iota
	xlatMiss
	xlatInvalid
	xlatMod
	xlatAddrErr
	xlatUncached
)

// translate maps a virtual address to physical. write selects the
// store-permission check. Successful translations are served from (and
// fill) the host translation caches. Returns the physical address, a
// result code, and whether the hardware performed a TLB lookup.
func (c *CPU) translate(va uint32, write bool) (uint32, xlat, bool) {
	x := &c.code.rx
	if write {
		x = &c.code.wx
	}
	if pa, ok := c.xlat(x, va); ok {
		return pa, xlatOK, tlbRegion(va)
	}
	return c.translateSlow(va, write)
}

// translateSlow is translate without the host-cache lookup: the segment
// rules and the full TLB scan. A successful translation fills the cache.
func (c *CPU) translateSlow(va uint32, write bool) (uint32, xlat, bool) {
	var pa uint32
	var r xlat
	switch {
	case va < isa.KUSEGTop: // useg: TLB-mapped, accessible from both modes
		pa, r = c.tlbLookup(va, write)
	case va < isa.KSEG1Base: // kseg0
		if c.UserMode() {
			return 0, xlatAddrErr, false
		}
		pa, r = va-isa.KSEG0Base, xlatOK
	case va < isa.KSEG2Base: // kseg1 (uncached)
		if c.UserMode() {
			return 0, xlatAddrErr, false
		}
		return va - isa.KSEG1Base, xlatUncached, false
	default: // kseg2
		if c.UserMode() {
			return 0, xlatAddrErr, false
		}
		pa, r = c.tlbLookup(va, write)
	}
	if r == xlatOK {
		if write {
			c.xfill(&c.code.wx, va, pa)
		} else {
			c.xfill(&c.code.rx, va, pa)
		}
	}
	return pa, r, tlbRegion(va)
}

// tlbLookup scans the TLB for va in the current address space.
func (c *CPU) tlbLookup(va uint32, write bool) (uint32, xlat) {
	vpn := va >> isa.PageShift
	asid := c.ASID()
	for i := range c.TLB {
		e := &c.TLB[i]
		if !e.InUse || e.VPN != vpn || (!e.G && e.ASID != asid) {
			continue
		}
		if !e.V {
			return 0, xlatInvalid
		}
		if write && !e.D {
			return 0, xlatMod
		}
		return e.PFN<<isa.PageShift | va&(isa.PageSize-1), xlatOK
	}
	return 0, xlatMiss
}

// ProbeTLB performs a lookup without permission checks; used by debug tools
// and the out-of-order core's wrong-path fetch. A useg probe is exactly a
// read translation, so it shares the host translation cache.
func (c *CPU) ProbeTLB(va uint32) (uint32, bool) {
	var pa uint32
	var r xlat
	if va < isa.KUSEGTop {
		pa, r, _ = c.translate(va, false)
	} else {
		pa, r = c.tlbLookup(va, false)
	}
	return pa, r == xlatOK
}

// raise vectors the CPU into an exception handler.
func (c *CPU) raise(info *StepInfo, code uint8, badva uint32, isRefillCandidate bool) {
	st := c.COP0[isa.C0Status]
	vector := uint32(isa.VecGeneral)
	if isRefillCandidate && st&isa.StatusEXL == 0 {
		vector = isa.VecUTLB
	}
	if st&isa.StatusEXL == 0 {
		c.COP0[isa.C0EPC] = info.PC
	} else {
		info.NestedExc = true
	}
	c.COP0[isa.C0Status] = st | isa.StatusEXL
	cause := c.COP0[isa.C0Cause] &^ isa.CauseExcMask
	cause |= uint32(code) << isa.CauseExcShift
	c.COP0[isa.C0Cause] = cause
	if code == isa.ExcTLBL || code == isa.ExcTLBS || code == isa.ExcTLBMod ||
		code == isa.ExcAdEL || code == isa.ExcAdES {
		c.COP0[isa.C0BadVAddr] = badva
		c.COP0[isa.C0EntryHi] = badva&^(isa.PageSize-1) | uint32(c.ASID())
		ctx := c.COP0[isa.C0Context]
		c.COP0[isa.C0Context] = ctx&0xFFE0_0000 | (badva>>10)&0x001F_FFFC
	}
	c.llBit = false
	c.PC = vector
	c.code.cur = nil
	info.TookException = true
	info.ExcCode = code
	info.NextPC = vector
}

// pendingInterrupt reports whether an enabled interrupt is pending.
func (c *CPU) pendingInterrupt() bool {
	st := c.COP0[isa.C0Status]
	if st&isa.StatusIE == 0 || st&isa.StatusEXL != 0 {
		return false
	}
	mask := uint8(st >> 8)
	return c.IP&mask != 0
}

// Step architecturally executes one instruction (or takes a pending
// interrupt) and returns its StepInfo. cycle is the timing model's current
// cycle, exposed to software through the COUNT register.
func (c *CPU) Step(cycle uint64) StepInfo {
	var info StepInfo
	c.StepInto(cycle, &info)
	return info
}

// StepInto is Step writing its result through out, so hot callers that
// store the StepInfo anyway avoid two ~100-byte copies per instruction.
//
// With the code cache enabled (EnableBlocks), the instruction comes from
// the current superblock: no fetch translation and no decode, and its
// loads and stores use the host translation caches and RAM directly.
// Everything the block cannot serve — interrupts, fetches that fault or
// are uncached, instructions off the fast list, exceptions — is a slow
// step: it takes the exact interpreter path and drops the cursor, since
// only a slow step can change a translation or the mode. Either way the
// StepInfo and the architectural state are exactly the interpreter's.
func (c *CPU) StepInto(cycle uint64, out *StepInfo) {
	info := out
	*info = StepInfo{PC: c.PC, KernelMode: !c.UserMode()}
	cc := &c.code
	cc.meta = nil
	if c.Halted {
		info.Halted = true
		info.NextPC = c.PC
		return
	}
	c.COP0[isa.C0Count] = uint32(cycle)

	// Deliver pending interrupts before fetch.
	if c.pendingInterrupt() {
		cc.stats.SlowSteps++
		c.waiting = false
		c.COP0[isa.C0Cause] = c.COP0[isa.C0Cause]&^0xFF00 | uint32(c.IP)<<isa.CauseIPShift
		c.raise(info, isa.ExcInt, 0, false)
		info.Interrupt = true
		return
	}
	if c.waiting {
		info.Waiting = true
		info.NextPC = c.PC
		return
	}

	// Fetch from the cursor's block while it is still at PC, else look the
	// block up (or build it).
	b, i := cc.cur, cc.curIdx
	if b == nil || c.PC != cc.curPC {
		if b = c.BlockAt(blockMaxOps); b == nil {
			cc.stats.SlowSteps++
			cc.cur = nil
			c.stepExact(info)
			return
		}
		i = 0
		cc.cur, cc.curIdx, cc.curPC = b, 0, c.PC
	}
	op := c.fetched(info, b, i)
	if i < b.NFast {
		if i+1 < len(b.Ops) {
			cc.curIdx++
			cc.curPC += 4
		} else {
			cc.cur = nil
		}
		c.execute(info, &op.In)
		if info.TookException {
			cc.stats.SlowSteps++
		}
		return
	}
	cc.stats.SlowSteps++
	cc.cur = nil
	c.execute(info, &op.In)
}

// StepBlock is a slow step for the swift core's hand-offs to the
// interpreter, which already hold the block: b.Ops[i] is the instruction
// at PC, or b is nil when BlockAt could not serve PC. It runs that
// instruction exactly as StepInto would, with no second block lookup.
// The caller has already ruled out halt, a pending interrupt and WAIT
// (StepInto handles those).
func (c *CPU) StepBlock(cycle uint64, info *StepInfo, b *Block, i int) {
	*info = StepInfo{PC: c.PC, KernelMode: !c.UserMode()}
	cc := &c.code
	cc.meta = nil
	cc.cur = nil
	cc.stats.SlowSteps++
	c.COP0[isa.C0Count] = uint32(cycle)
	if b == nil {
		c.stepExact(info)
		return
	}
	c.execute(info, &c.fetched(info, b, i).In)
}

// fetched reports the fetch of b.Ops[i], the instruction at PC, that the
// block already did: the physical PC, the instruction and the
// architected fetch TLB lookup. It returns the op.
func (c *CPU) fetched(info *StepInfo, b *Block, i int) *Op {
	op := &b.Ops[i]
	info.PhysPC = b.PPC + uint32(i)*4
	info.Fetched = true
	info.Inst = op.In
	if tlbRegion(c.PC) {
		info.TLBLookups = 1
	}
	c.code.meta = &op.Meta
	return op
}

// stepExact fetches and executes one instruction with no code cache: the
// exact translation, raising any fetch fault, and a decode of the word.
func (c *CPU) stepExact(info *StepInfo) {
	if c.PC&3 != 0 {
		c.raise(info, isa.ExcAdEL, c.PC, false)
		return
	}
	ppc, xr, tlbed := c.translate(c.PC, false)
	if tlbed {
		info.TLBLookups++
	}
	switch xr {
	case xlatOK, xlatUncached:
	case xlatMiss:
		c.raise(info, isa.ExcTLBL, c.PC, c.PC < isa.KUSEGTop)
		return
	case xlatInvalid:
		c.raise(info, isa.ExcTLBL, c.PC, false)
		return
	default:
		c.raise(info, isa.ExcAdEL, c.PC, false)
		return
	}
	info.PhysPC = ppc
	info.Fetched = true
	in := c.DecodeAt(ppc)
	info.Inst = in
	c.execute(info, &in)
}

// execute runs the fetched instruction in: the interpreter body shared by
// block and exact fetches.
func (c *CPU) execute(info *StepInfo, in *isa.Inst) {
	nextPC := c.PC + 4

	// TLBWR replacement pointer decays every instruction, MIPS-style.
	if c.random == tlbWired {
		c.random = NumTLB - 1
	} else {
		c.random--
	}

	g := &c.GPR
	switch in.Op {
	case isa.OpInvalid:
		c.raise(info, isa.ExcRI, 0, false)
		return

	case isa.OpSLL:
		g[in.Rd] = g[in.Rt] << in.Shamt
	case isa.OpSRL:
		g[in.Rd] = g[in.Rt] >> in.Shamt
	case isa.OpSRA:
		g[in.Rd] = uint32(int32(g[in.Rt]) >> in.Shamt)
	case isa.OpSLLV:
		g[in.Rd] = g[in.Rt] << (g[in.Rs] & 31)
	case isa.OpSRLV:
		g[in.Rd] = g[in.Rt] >> (g[in.Rs] & 31)
	case isa.OpSRAV:
		g[in.Rd] = uint32(int32(g[in.Rt]) >> (g[in.Rs] & 31))

	case isa.OpJR:
		nextPC = g[in.Rs]
	case isa.OpJALR:
		g[in.Rd] = c.PC + 4
		nextPC = g[in.Rs]
	case isa.OpJ:
		nextPC = c.PC&0xF000_0000 | in.Target
	case isa.OpJAL:
		g[isa.RegRA] = c.PC + 4
		nextPC = c.PC&0xF000_0000 | in.Target

	case isa.OpSYSCALL:
		c.raise(info, isa.ExcSyscall, 0, false)
		return
	case isa.OpBREAK:
		c.raise(info, isa.ExcBreak, 0, false)
		return

	case isa.OpMUL:
		g[in.Rd] = uint32(int32(g[in.Rs]) * int32(g[in.Rt]))
	case isa.OpDIV:
		if g[in.Rt] == 0 {
			g[in.Rd] = ^uint32(0)
		} else {
			g[in.Rd] = uint32(int32(g[in.Rs]) / int32(g[in.Rt]))
		}
	case isa.OpREM:
		if g[in.Rt] == 0 {
			g[in.Rd] = g[in.Rs]
		} else {
			g[in.Rd] = uint32(int32(g[in.Rs]) % int32(g[in.Rt]))
		}
	case isa.OpDIVU:
		if g[in.Rt] == 0 {
			g[in.Rd] = ^uint32(0)
		} else {
			g[in.Rd] = g[in.Rs] / g[in.Rt]
		}
	case isa.OpREMU:
		if g[in.Rt] == 0 {
			g[in.Rd] = g[in.Rs]
		} else {
			g[in.Rd] = g[in.Rs] % g[in.Rt]
		}

	case isa.OpADD, isa.OpADDU:
		g[in.Rd] = g[in.Rs] + g[in.Rt]
	case isa.OpSUB, isa.OpSUBU:
		g[in.Rd] = g[in.Rs] - g[in.Rt]
	case isa.OpAND:
		g[in.Rd] = g[in.Rs] & g[in.Rt]
	case isa.OpOR:
		g[in.Rd] = g[in.Rs] | g[in.Rt]
	case isa.OpXOR:
		g[in.Rd] = g[in.Rs] ^ g[in.Rt]
	case isa.OpNOR:
		g[in.Rd] = ^(g[in.Rs] | g[in.Rt])
	case isa.OpSLT:
		g[in.Rd] = b2u(int32(g[in.Rs]) < int32(g[in.Rt]))
	case isa.OpSLTU:
		g[in.Rd] = b2u(g[in.Rs] < g[in.Rt])

	case isa.OpBLTZ:
		c.branch(info, &nextPC, int32(g[in.Rs]) < 0, in.Imm)
	case isa.OpBGEZ:
		c.branch(info, &nextPC, int32(g[in.Rs]) >= 0, in.Imm)
	case isa.OpBEQ:
		c.branch(info, &nextPC, g[in.Rs] == g[in.Rt], in.Imm)
	case isa.OpBNE:
		c.branch(info, &nextPC, g[in.Rs] != g[in.Rt], in.Imm)
	case isa.OpBLEZ:
		c.branch(info, &nextPC, int32(g[in.Rs]) <= 0, in.Imm)
	case isa.OpBGTZ:
		c.branch(info, &nextPC, int32(g[in.Rs]) > 0, in.Imm)

	case isa.OpADDI, isa.OpADDIU:
		g[in.Rt] = g[in.Rs] + uint32(in.Imm)
	case isa.OpSLTI:
		g[in.Rt] = b2u(int32(g[in.Rs]) < in.Imm)
	case isa.OpSLTIU:
		g[in.Rt] = b2u(g[in.Rs] < uint32(in.Imm))
	case isa.OpANDI:
		g[in.Rt] = g[in.Rs] & uint32(uint16(in.Imm))
	case isa.OpORI:
		g[in.Rt] = g[in.Rs] | uint32(uint16(in.Imm))
	case isa.OpXORI:
		g[in.Rt] = g[in.Rs] ^ uint32(uint16(in.Imm))
	case isa.OpLUI:
		g[in.Rt] = uint32(uint16(in.Imm)) << 16

	case isa.OpMFC0:
		if c.UserMode() {
			c.raise(info, isa.ExcRI, 0, false)
			return
		}
		if in.Rd == isa.C0Random {
			g[in.Rt] = uint32(c.random)
		} else {
			g[in.Rt] = c.COP0[in.Rd]
		}
	case isa.OpMTC0:
		if c.UserMode() {
			c.raise(info, isa.ExcRI, 0, false)
			return
		}
		if in.Rd == isa.C0EntryHi {
			c.setEntryHi(g[in.Rt])
		} else {
			c.COP0[in.Rd] = g[in.Rt]
		}
	case isa.OpTLBR:
		i := c.COP0[isa.C0Index] % NumTLB
		e := c.TLB[i]
		c.setEntryHi(e.VPN<<isa.PageShift | uint32(e.ASID))
		c.COP0[isa.C0EntryLo] = PackEntryLo(e.PFN, e.V, e.D, e.G)
	case isa.OpTLBWI:
		c.tlbWrite(c.COP0[isa.C0Index] % NumTLB)
	case isa.OpTLBWR:
		c.tlbWrite(uint32(c.random))
	case isa.OpTLBP:
		hi := c.COP0[isa.C0EntryHi]
		vpn := hi >> isa.PageShift
		asid := uint8(hi)
		c.COP0[isa.C0Index] = 0x8000_0000
		for i := range c.TLB {
			e := &c.TLB[i]
			if e.InUse && e.VPN == vpn && (e.G || e.ASID == asid) {
				c.COP0[isa.C0Index] = uint32(i)
				break
			}
		}
	case isa.OpERET:
		if c.UserMode() {
			c.raise(info, isa.ExcRI, 0, false)
			return
		}
		c.COP0[isa.C0Status] &^= isa.StatusEXL
		nextPC = c.COP0[isa.C0EPC]
		c.llBit = false
	case isa.OpWAIT:
		if c.UserMode() {
			c.raise(info, isa.ExcRI, 0, false)
			return
		}
		c.waiting = true
		info.Waiting = true

	case isa.OpMFC1:
		g[in.Rt] = uint32(f64bits(c.FPR[in.Rs]))
	case isa.OpMTC1:
		c.FPR[in.Rs] = f64frombits(uint64(g[in.Rt]))
	case isa.OpBC1F:
		c.branch(info, &nextPC, !c.FCC, in.Imm)
	case isa.OpBC1T:
		c.branch(info, &nextPC, c.FCC, in.Imm)
	case isa.OpFADD:
		c.FPR[in.Rd] = c.FPR[in.Rs] + c.FPR[in.Rt]
	case isa.OpFSUB:
		c.FPR[in.Rd] = c.FPR[in.Rs] - c.FPR[in.Rt]
	case isa.OpFMUL:
		c.FPR[in.Rd] = c.FPR[in.Rs] * c.FPR[in.Rt]
	case isa.OpFDIV:
		c.FPR[in.Rd] = c.FPR[in.Rs] / c.FPR[in.Rt]
	case isa.OpFSQRT:
		c.FPR[in.Rd] = fsqrt(c.FPR[in.Rs])
	case isa.OpFABS:
		v := c.FPR[in.Rs]
		if v < 0 {
			v = -v
		}
		c.FPR[in.Rd] = v
	case isa.OpFMOV:
		c.FPR[in.Rd] = c.FPR[in.Rs]
	case isa.OpFNEG:
		c.FPR[in.Rd] = -c.FPR[in.Rs]
	case isa.OpCVTDW:
		c.FPR[in.Rd] = float64(int32(f64bits(c.FPR[in.Rs])))
	case isa.OpCVTWD:
		c.FPR[in.Rd] = f64frombits(uint64(uint32(int32(c.FPR[in.Rs]))))
	case isa.OpFCEQ:
		c.FCC = c.FPR[in.Rs] == c.FPR[in.Rt]
	case isa.OpFCLT:
		c.FCC = c.FPR[in.Rs] < c.FPR[in.Rt]
	case isa.OpFCLE:
		c.FCC = c.FPR[in.Rs] <= c.FPR[in.Rt]

	case isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLBU, isa.OpLHU, isa.OpLL, isa.OpFLD:
		if !c.dataAccess(info, in, false) {
			return
		}
		v := c.readPhys(info.MemPaddr, int(info.MemSize))
		switch in.Op {
		case isa.OpLB:
			g[in.Rt] = uint32(int8(v))
		case isa.OpLH:
			g[in.Rt] = uint32(int16(v))
		case isa.OpLW:
			g[in.Rt] = uint32(v)
		case isa.OpLBU:
			g[in.Rt] = uint32(uint8(v))
		case isa.OpLHU:
			g[in.Rt] = uint32(uint16(v))
		case isa.OpLL:
			g[in.Rt] = uint32(v)
			c.llBit = true
			c.llAddr = info.MemPaddr
		case isa.OpFLD:
			c.FPR[in.Rt] = f64frombits(v)
		}

	case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpFSD:
		if !c.dataAccess(info, in, true) {
			return
		}
		var v uint64
		switch in.Op {
		case isa.OpSB:
			v = uint64(uint8(g[in.Rt]))
		case isa.OpSH:
			v = uint64(uint16(g[in.Rt]))
		case isa.OpSW:
			v = uint64(g[in.Rt])
		case isa.OpFSD:
			v = f64bits(c.FPR[in.Rt])
		}
		c.writePhys(info.MemPaddr, int(info.MemSize), v)

	case isa.OpSC:
		if !c.dataAccess(info, in, true) {
			return
		}
		if c.llBit && c.llAddr == info.MemPaddr {
			c.writePhys(info.MemPaddr, 4, uint64(g[in.Rt]))
			g[in.Rt] = 1
		} else {
			g[in.Rt] = 0
			info.SCFailed = true
			info.Mem = MemNone // no memory write happened
		}
		c.llBit = false

	case isa.OpCACHE:
		// Cache maintenance: translate for counting, no architectural effect
		// on data (caches are tag-only in this simulator). The timing models
		// perform the actual tag invalidation.
		va := g[in.Rs] + uint32(in.Imm)
		info.CacheOp = true
		info.CacheVaddr = va
		pa, xr, tlbed := c.translate(va&^3, false)
		if tlbed {
			info.TLBLookups++
		}
		switch xr {
		case xlatOK, xlatUncached:
			info.CachePaddr = pa
			info.CacheMapped = true
		case xlatMiss:
			c.raise(info, isa.ExcTLBL, va, va < isa.KUSEGTop)
			return
		}

	default:
		c.raise(info, isa.ExcRI, 0, false)
		return
	}

	g[0] = 0
	c.PC = nextPC
	info.NextPC = nextPC
}

// branch records a conditional branch outcome and updates nextPC.
func (c *CPU) branch(info *StepInfo, nextPC *uint32, taken bool, imm int32) {
	info.Branch = true
	info.BranchTaken = taken
	if taken {
		*nextPC = isa.BranchTarget(c.PC, imm)
	}
}

// dataAccess translates a load/store address, raising exceptions as needed.
// It returns false if an exception was taken.
func (c *CPU) dataAccess(info *StepInfo, in *isa.Inst, write bool) bool {
	va := c.GPR[in.Rs] + uint32(in.Imm)
	size := in.MemSize()
	info.MemVaddr = va
	info.MemSize = uint8(size)
	if va&(uint32(size)-1) != 0 {
		code := uint8(isa.ExcAdEL)
		if write {
			code = isa.ExcAdES
		}
		c.raise(info, code, va, false)
		return false
	}
	pa, xr, tlbed := c.translate(va, write)
	if tlbed {
		info.TLBLookups++
	}
	switch xr {
	case xlatOK:
	case xlatUncached:
		info.MemUncached = true
	case xlatMiss:
		code := uint8(isa.ExcTLBL)
		if write {
			code = isa.ExcTLBS
		}
		c.raise(info, code, va, va < isa.KUSEGTop)
		return false
	case xlatInvalid:
		code := uint8(isa.ExcTLBL)
		if write {
			code = isa.ExcTLBS
		}
		c.raise(info, code, va, false)
		return false
	case xlatMod:
		c.raise(info, isa.ExcTLBMod, va, false)
		return false
	default:
		code := uint8(isa.ExcAdEL)
		if write {
			code = isa.ExcAdES
		}
		c.raise(info, code, va, false)
		return false
	}
	info.MemPaddr = pa
	if write {
		info.Mem = MemStore
	} else {
		info.Mem = MemLoad
	}
	return true
}

// readPhys loads size bytes at physical address pa: straight from RAM
// below the code cache's limit (exactly what the bus returns there), else
// through the bus.
func (c *CPU) readPhys(pa uint32, size int) uint64 {
	if pa < c.code.limit {
		return c.code.ram.Read(pa, size)
	}
	return c.bus.ReadPhys(pa, size)
}

// writePhys stores size bytes at physical address pa: straight into RAM
// below the limit, reporting the store to the self-modifying-code
// tracking (NoteStore), else through the bus.
func (c *CPU) writePhys(pa uint32, size int, v uint64) {
	if pa < c.code.limit {
		c.code.ram.Write(pa, size, v)
		c.NoteStore(pa)
		return
	}
	c.bus.WritePhys(pa, size, v)
}

func (c *CPU) tlbWrite(idx uint32) {
	hi := c.COP0[isa.C0EntryHi]
	lo := c.COP0[isa.C0EntryLo]
	if c.TLB[idx].InUse {
		c.dropXlat(c.TLB[idx].VPN)
	}
	c.dropXlat(hi >> isa.PageShift)
	c.TLB[idx] = TLBEntry{
		VPN:   hi >> isa.PageShift,
		ASID:  uint8(hi),
		PFN:   lo >> 12,
		V:     lo&EntryLoV != 0,
		D:     lo&EntryLoD != 0,
		G:     lo&EntryLoG != 0,
		InUse: true,
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// String summarises CPU state for debugging.
func (c *CPU) String() string {
	return fmt.Sprintf("pc=%08x status=%08x cause=%08x epc=%08x",
		c.PC, c.COP0[isa.C0Status], c.COP0[isa.C0Cause], c.COP0[isa.C0EPC])
}
