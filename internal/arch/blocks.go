package arch

// The superblock code cache: the host-time structures that let StepInto
// and the swift fast-forward core (internal/cpu/swift) execute decoded
// instructions without re-translating, re-decoding, or calling through the
// bus. They change how fast the simulator reaches an answer, never the
// answer itself. The invariance contract (DESIGN.md §9) is that every
// architected count (TLB lookups, cache accesses, cycles, per-mode
// buckets) is produced exactly as without them; FuzzStepFastVsExact
// compares every StepInfo against a CPU with the cache off, and the golden
// tests at the repository root enforce it byte for byte.
//
// A superblock is a run of decoded instructions starting at one virtual PC
// and ending at the first control-flow instruction, the first instruction
// off the fast list (which is kept as the block's terminator), the page
// end, or a size cap. Blocks live in a direct-mapped table keyed by
// (virtual PC, physical PC) and are valid while their key matches the
// page's generation plus the cache epoch: a store or DMA into a page that
// holds code bumps that page's generation, and Reset/Restore bump the
// epoch, each an O(1) invalidation of every block it covers.

import (
	"softwatt/internal/isa"
	"softwatt/internal/mem"
)

const (
	// blockCount is the direct-mapped superblock table size (entries).
	blockCount = 8192
	// blockMaxOps caps a superblock's length; a 4 KB page bounds it anyway.
	blockMaxOps = 128
	// xCount is the size of each direct-mapped host translation cache.
	xCount = 64
)

// Op is one decoded instruction of a superblock: the decoded form and its
// dispatch metadata (the timing models read it instead of re-deriving it
// per instruction).
type Op struct {
	In   isa.Inst
	Meta isa.Meta
}

// Block is one cached superblock at (VPC, PPC). Ops[:NFast] are on the
// fast list (fastOp); when the block ended at an instruction off the list,
// that instruction follows as Ops[NFast], so a StepInto at it still skips
// translation and decode. Every block holds at least one op.
type Block struct {
	VPC   uint32
	PPC   uint32
	Ops   []Op
	NFast int
	key   uint32 // page generation + epoch when built
}

// BlockStats are the code cache's telemetry counters. Pure host-side
// telemetry: they never feed the power model.
type BlockStats struct {
	Hits          uint64 // block lookups served from the cache
	Misses        uint64 // lookups that (re)built a block
	Invalidations uint64 // page generation bumps (stores into code, DMA)
	SlowSteps     uint64 // steps through the exact interpreter (StepInto, StepBlock)
}

// xentry is one host-translation-cache slot: virtual page → physical page
// base (always below the fast-path limit), valid while gen matches xgen.
type xentry struct {
	vpn  uint32
	base uint32
	gen  uint32
}

// codeCache is the CPU's superblock cache, its page-generation/code-page
// invalidation state, and the direct-mapped host translation caches.
type codeCache struct {
	ram *mem.RAM // the bus's backing store below limit
	// limit bounds every direct path: page-aligned, at or below both the
	// end of RAM and any MMIO window. Zero switches the cache off and
	// leaves the plain interpreter.
	limit uint32

	blocks []Block
	// pageGen is the invalidation generation of each physical page below
	// limit; epoch is added to it to form a block's key.
	pageGen []uint32
	epoch   uint32
	// codePage marks pages that hold decoded instructions; only stores
	// into marked pages pay invalidation work.
	codePage []uint64

	// Host translation caches: successful translations of reads
	// (instruction fetches and loads: rx) and of stores that passed the
	// TLB dirty-bit check (wx), keyed by VPN alone, so valid for the
	// current ASID. A hit on a kernel segment address still requires
	// kernel mode, so mode switches need no flush. A TLB write drops the
	// slots of the two VPNs it replaces and installs (no other
	// translation depends on that entry); an ASID change or a reset
	// flushes everything by bumping xgen.
	rx   [xCount]xentry
	wx   [xCount]xentry
	xgen uint32

	// StepInto's cursor: the block and op index of the instruction at
	// curPC. Anything that could make it stale (a slow step — the only
	// place a translation or the mode can change —, a store or DMA into
	// code, a rebuild of its slot, a reset) drops it.
	cur    *Block
	curIdx int
	curPC  uint32

	// peek is the block the last PeekOp served from.
	peek *Block

	// meta is the dispatch metadata of the op the last StepInto executed,
	// nil when it did not come from a block (see StepMeta).
	meta     *isa.Meta
	mscratch isa.Meta

	stats BlockStats
}

// EnableBlocks switches on the superblock cache and the direct RAM paths
// for physical addresses below limit. ram must be the bus's backing store
// there, and limit must lie below any MMIO window: block builds, loads and
// stores below it bypass the bus. limit is clamped to the RAM size and
// rounded down to a page.
func (c *CPU) EnableBlocks(ram *mem.RAM, limit uint32) {
	if uint64(limit) > uint64(ram.Size()) {
		limit = uint32(ram.Size())
	}
	limit &^= isa.PageSize - 1
	cc := &c.code
	pages := limit >> isa.PageShift
	*cc = codeCache{
		ram:      ram,
		limit:    limit,
		blocks:   make([]Block, blockCount),
		pageGen:  make([]uint32, pages),
		codePage: make([]uint64, (pages+63)/64),
		epoch:    1, // zero-value blocks (key 0) never match
		xgen:     1, // zero-value xentries never match
	}
}

// resetCode invalidates every block and translation (CPU reset and
// checkpoint restore): an epoch and a generation bump, plus clearing the
// code-page bitmap (one bit per page).
func (c *CPU) resetCode() {
	cc := &c.code
	cc.epoch++
	clear(cc.codePage)
	cc.cur = nil
	c.flushXlat()
}

// flushXlat empties the host translation caches in O(1). The zero-value
// entries never match because xgen starts at 1 and skips 0 on wrap.
func (c *CPU) flushXlat() {
	cc := &c.code
	if cc.xgen++; cc.xgen == 0 {
		cc.rx, cc.wx = [xCount]xentry{}, [xCount]xentry{}
		cc.xgen = 1
	}
}

// dropXlat drops any cached translation of virtual page vpn.
func (c *CPU) dropXlat(vpn uint32) {
	c.code.rx[vpn&(xCount-1)].gen = 0
	c.code.wx[vpn&(xCount-1)].gen = 0
}

// setEntryHi writes EntryHi, flushing the host translation caches when the
// ASID changes: every cached translation belongs to the old space.
func (c *CPU) setEntryHi(v uint32) {
	if uint8(v) != c.ASID() {
		c.flushXlat()
	}
	c.COP0[isa.C0EntryHi] = v
}

// BlockStats returns the code cache's counters.
func (c *CPU) BlockStats() BlockStats { return c.code.stats }

// SetBlockStats restores counters saved with a checkpoint.
func (c *CPU) SetBlockStats(s BlockStats) { c.code.stats = s }

// StepMeta returns the dispatch metadata of in, the instruction the last
// StepInto reported: the block op's own copy when the step came from a
// block, else metadata computed from in. Timing models call it right after
// StepInto; the pointer is valid until the next step.
func (c *CPU) StepMeta(in isa.Inst) *isa.Meta {
	if m := c.code.meta; m != nil {
		return m
	}
	return c.fillMeta(in)
}

// fillMeta is StepMeta's fallback, kept out of line so StepMeta inlines.
//
//go:noinline
func (c *CPU) fillMeta(in isa.Inst) *isa.Meta {
	in.Fill(&c.code.mscratch)
	return &c.code.mscratch
}

// PeekOp returns the op at virtual PC vpc, physical ppc, for a fetch that
// never executes (the out-of-order core's wrong path) when a valid block
// already holds it: the block starting at vpc, or the one the last PeekOp
// served, which covers a sequential wrong path. Otherwise it returns nil
// and the caller decodes the word (DecodeAt); a valid block's op is
// exactly that decode and its metadata. PeekOp builds nothing and changes
// no architectural state or counter.
func (c *CPU) PeekOp(vpc, ppc uint32) *Op {
	cc := &c.code
	if vpc&3 != 0 || ppc >= cc.limit {
		return nil
	}
	key := cc.pageGen[ppc>>isa.PageShift] + cc.epoch
	if b := cc.peek; b != nil && b.key == key {
		if off := vpc - b.VPC; off < 4*uint32(len(b.Ops)) && ppc == b.PPC+off {
			return &b.Ops[off/4]
		}
	}
	b := &cc.blocks[blockIndex(vpc)]
	if b.VPC != vpc || b.PPC != ppc || b.key != key || len(b.Ops) == 0 {
		return nil
	}
	cc.peek = b
	return &b.Ops[0]
}

// DecodeAt returns the decoded instruction at physical address paddr.
// Used for wrong-path (speculative) fetches, which never execute.
func (c *CPU) DecodeAt(paddr uint32) isa.Inst {
	return isa.Decode(uint32(c.readPhys(paddr, 4)))
}

// tlbRegion reports whether an access to va performs a hardware TLB lookup
// when it translates successfully: useg and kseg2 are mapped, kseg0 and
// kseg1 are not.
func tlbRegion(va uint32) bool { return va < isa.KUSEGTop || va >= isa.KSEG2Base }

// xlat looks va up in host translation cache x. A kernel-segment entry
// hits only in kernel mode.
func (c *CPU) xlat(x *[xCount]xentry, va uint32) (uint32, bool) {
	vpn := va >> isa.PageShift
	e := &x[vpn&(xCount-1)]
	if e.vpn == vpn && e.gen == c.code.xgen && (va < isa.KUSEGTop || !c.UserMode()) {
		return e.base | va&(isa.PageSize-1), true
	}
	return 0, false
}

// xfill records a successful translation of va to pa in x when pa is
// below the fast-path limit.
func (c *CPU) xfill(x *[xCount]xentry, va, pa uint32) {
	if pa < c.code.limit {
		vpn := va >> isa.PageShift
		x[vpn&(xCount-1)] = xentry{vpn: vpn, base: pa &^ (isa.PageSize - 1), gen: c.code.xgen}
	}
}

// XlatData translates a load (write false) or store (write true) for the
// fast path: ok is true exactly when StepInto's data access would be a
// plain cached access to RAM below the limit, and it changes no
// architectural state. Anything else (misses, faults, TLBMod, uncached or
// MMIO addresses) must go through StepInto.
func (c *CPU) XlatData(va uint32, write bool) (uint32, bool) {
	pa, r, _ := c.translate(va, write)
	return pa, r == xlatOK && pa < c.code.limit
}

// blockIndex maps a virtual PC to its direct-mapped slot.
func blockIndex(vpc uint32) uint32 {
	h := vpc >> 2
	return (h ^ h>>13) & (blockCount - 1)
}

// BlockAt returns the superblock starting at the current PC, building it
// (at most max ops) on a miss, or nil when the fetch cannot be served from
// a block: a misaligned, unmapped, faulting or uncached PC, or code at or
// above the limit. The caller executes it; BlockAt itself changes no
// architectural state.
func (c *CPU) BlockAt(max uint64) *Block {
	vpc := c.PC
	if c.code.limit == 0 || vpc&3 != 0 {
		return nil
	}
	cc := &c.code
	// A fetch translates like a read; the host-cache hit is inlined here,
	// since swift comes through once per block.
	ppc, ok := c.xlat(&cc.rx, vpc)
	if !ok {
		var r xlat
		if ppc, r, _ = c.translateSlow(vpc, false); r != xlatOK {
			return nil
		}
	}
	if ppc >= cc.limit {
		return nil
	}
	b := &cc.blocks[blockIndex(vpc)]
	if b.VPC == vpc && b.PPC == ppc && b.key == cc.pageGen[ppc>>isa.PageShift]+cc.epoch {
		cc.stats.Hits++
		return b
	}
	c.build(b, vpc, ppc, max)
	return b
}

// build decodes a new superblock at (vpc, ppc) into slot b. Blocks never
// cross a page (one generation check validates the whole block) and stop
// at the first control-flow instruction or the first one off the fast
// list. max caps the length so tiny batch tails do not pay for decoding
// instructions they cannot execute.
func (c *CPU) build(b *Block, vpc, ppc uint32, max uint64) {
	cc := &c.code
	cc.stats.Misses++
	if cc.cur == b {
		cc.cur = nil
	}
	p := ppc >> isa.PageShift
	cc.codePage[p>>6] |= 1 << (p & 63)
	b.VPC, b.PPC, b.key = vpc, ppc, cc.pageGen[p]+cc.epoch
	b.Ops, b.NFast = b.Ops[:0], 0

	n := uint64(isa.PageSize-ppc&(isa.PageSize-1)) / 4
	n = min(n, blockMaxOps, max)
	for i := uint32(0); uint64(i) < n; i++ {
		in := isa.Decode(uint32(cc.ram.Read(ppc+4*i, 4)))
		b.Ops = append(b.Ops, Op{In: in})
		in.Fill(&b.Ops[len(b.Ops)-1].Meta)
		if !fastOp(in.Op) {
			break
		}
		b.NFast++
		if controlOp(in.Op) {
			break
		}
	}
}

// NoteStore is the write side of self-modifying-code tracking, called for
// every store to RAM below the limit: a store into a page that holds code
// bumps the page's generation, killing every block built from it, and
// drops StepInto's cursor. It reports whether code was invalidated (a
// running block must stop: it may hold the very instruction just
// overwritten).
func (c *CPU) NoteStore(pa uint32) bool {
	cc := &c.code
	p := pa >> isa.PageShift
	if cc.codePage[p>>6]&(1<<(p&63)) == 0 {
		return false
	}
	cc.pageGen[p]++
	cc.stats.Invalidations++
	cc.cur = nil
	return true
}

// InvalidateCode drops every block overlapping [pa, pa+n). The machine
// calls it for writes that bypass the CPU: disk DMA into RAM.
func (c *CPU) InvalidateCode(pa uint32, n int) {
	cc := &c.code
	if n <= 0 || cc.limit == 0 {
		return
	}
	end := min(uint64(pa)+uint64(n), uint64(cc.limit))
	for p := uint64(pa) >> isa.PageShift; p<<isa.PageShift < end; p++ {
		c.NoteStore(uint32(p << isa.PageShift))
	}
}

// fastOp reports whether op is on the fast list: the instructions a block
// executes without the exact interpreter's fallbacks (swift's exec loop
// implements exactly these). Everything else — exceptions, privileged
// state, TLB management, LL/SC, CACHE, WAIT — is a slow step. The set is
// an explicit allow-list so an ISA extension defaults to slow.
func fastOp(op isa.Op) bool {
	switch op {
	case isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpSLLV, isa.OpSRLV, isa.OpSRAV,
		isa.OpJR, isa.OpJALR, isa.OpJ, isa.OpJAL,
		isa.OpMUL, isa.OpDIV, isa.OpREM, isa.OpDIVU, isa.OpREMU,
		isa.OpADD, isa.OpADDU, isa.OpSUB, isa.OpSUBU,
		isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpNOR, isa.OpSLT, isa.OpSLTU,
		isa.OpBLTZ, isa.OpBGEZ, isa.OpBEQ, isa.OpBNE, isa.OpBLEZ, isa.OpBGTZ,
		isa.OpADDI, isa.OpADDIU, isa.OpSLTI, isa.OpSLTIU,
		isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpLUI,
		isa.OpMFC1, isa.OpMTC1, isa.OpBC1F, isa.OpBC1T,
		isa.OpFADD, isa.OpFSUB, isa.OpFMUL, isa.OpFDIV, isa.OpFSQRT,
		isa.OpFABS, isa.OpFMOV, isa.OpFNEG, isa.OpCVTDW, isa.OpCVTWD,
		isa.OpFCEQ, isa.OpFCLT, isa.OpFCLE,
		isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLBU, isa.OpLHU,
		isa.OpSB, isa.OpSH, isa.OpSW, isa.OpFLD, isa.OpFSD:
		return true
	}
	return false
}

// controlOp reports whether op rewrites PC: superblock terminators.
func controlOp(op isa.Op) bool {
	switch op {
	case isa.OpJR, isa.OpJALR, isa.OpJ, isa.OpJAL,
		isa.OpBLTZ, isa.OpBGEZ, isa.OpBEQ, isa.OpBNE, isa.OpBLEZ,
		isa.OpBGTZ, isa.OpBC1F, isa.OpBC1T:
		return true
	}
	return false
}
