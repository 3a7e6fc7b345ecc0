// Package isa defines the M32 instruction set architecture simulated by
// SoftWatt-Go: a 32-bit MIPS-like RISC with 32 general-purpose registers, 32
// double-precision floating point registers, a coprocessor-0 system control
// unit with a software-managed TLB (the architecture feature that gives rise
// to the paper's utlb kernel service), LL/SC synchronization, and CACHE
// maintenance operations. Unlike classic MIPS, M32 has no branch delay
// slots; this is a documented simplification that does not affect any
// quantity the paper measures.
//
// The package provides instruction encoding and decoding, a two-pass
// assembler with labels, expressions and the usual data directives, and a
// disassembler.
package isa

// Word is the architectural word size in bytes.
const Word = 4

// General purpose register numbers, following MIPS ABI naming.
const (
	RegZero = 0 // hardwired zero
	RegAT   = 1 // assembler temporary
	RegV0   = 2 // results / syscall number
	RegV1   = 3
	RegA0   = 4 // arguments
	RegA1   = 5
	RegA2   = 6
	RegA3   = 7
	RegT0   = 8 // caller-saved temporaries
	RegT1   = 9
	RegT2   = 10
	RegT3   = 11
	RegT4   = 12
	RegT5   = 13
	RegT6   = 14
	RegT7   = 15
	RegS0   = 16 // callee-saved
	RegS1   = 17
	RegS2   = 18
	RegS3   = 19
	RegS4   = 20
	RegS5   = 21
	RegS6   = 22
	RegS7   = 23
	RegT8   = 24
	RegT9   = 25
	RegK0   = 26 // kernel scratch (never user-visible across exceptions)
	RegK1   = 27
	RegGP   = 28
	RegSP   = 29
	RegFP   = 30
	RegRA   = 31
)

// GPRName maps register numbers to their ABI names.
var GPRName = [32]string{
	"zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
	"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
	"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
	"t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
}

// Coprocessor-0 register indices.
const (
	C0Index    = 0  // TLB index for TLBWI/TLBP
	C0Random   = 1  // pseudo-random TLB replacement pointer
	C0EntryLo  = 2  // TLB entry: PFN | flags
	C0Context  = 4  // pre-shifted faulting VPN for fast refill
	C0BadVAddr = 8  // faulting virtual address
	C0Count    = 9  // cycle counter (read-only)
	C0EntryHi  = 10 // TLB entry: VPN | ASID
	C0Compare  = 11 // timer compare; match raises IP7
	C0Status   = 12
	C0Cause    = 13
	C0EPC      = 14
	C0PRId     = 15
)

// Status register bits.
const (
	StatusIE  = 1 << 0 // interrupt enable
	StatusEXL = 1 << 1 // exception level (in handler)
	StatusUM  = 1 << 4 // user mode
	StatusIM0 = 1 << 8 // interrupt mask base (IM0..IM7 = bits 8..15)
)

// Cause register fields.
const (
	CauseExcShift = 2
	CauseExcMask  = 0x1F << CauseExcShift
	CauseIPShift  = 8 // pending interrupts IP0..IP7 = bits 8..15
)

// Exception codes (Cause.ExcCode).
const (
	ExcInt      = 0 // interrupt
	ExcTLBL     = 2 // TLB miss on load/fetch
	ExcTLBS     = 3 // TLB miss on store
	ExcAdEL     = 4 // address error on load/fetch
	ExcAdES     = 5 // address error on store
	ExcSyscall  = 8
	ExcBreak    = 9
	ExcRI       = 10 // reserved instruction
	ExcTLBMod   = 1  // write to clean (read-only) page
	ExcOverflow = 12
)

// Interrupt lines (index into Cause.IP / Status.IM).
const (
	IntDisk  = 3 // disk controller completion
	IntTimer = 7 // COUNT/COMPARE timer
)

// Exception vectors (virtual addresses in kseg0).
const (
	VecUTLB    = 0x8000_0000 // fast user TLB refill ("utlb" service)
	VecGeneral = 0x8000_0080 // everything else
	VecReset   = 0x8002_0000 // power-on entry (kernel text base)
)

// Address space segments.
const (
	KUSEGTop  = 0x8000_0000 // [0, KUSEGTop): user, TLB-mapped, cached
	KSEG0Base = 0x8000_0000 // [KSEG0, KSEG1): kernel, direct-map, cached
	KSEG1Base = 0xA000_0000 // [KSEG1, KSEG2): kernel, direct-map, uncached
	KSEG2Base = 0xC000_0000 // [KSEG2, ...): kernel, TLB-mapped, cached
)

// PageShift is log2 of the page size (4 KB pages).
const PageShift = 12

// PageSize is the virtual memory page size in bytes.
const PageSize = 1 << PageShift

// Op identifies an M32 operation (a decoded mnemonic).
type Op uint8

// All M32 operations.
const (
	OpInvalid Op = iota
	// Shifts
	OpSLL
	OpSRL
	OpSRA
	OpSLLV
	OpSRLV
	OpSRAV
	// Jumps through registers
	OpJR
	OpJALR
	// Traps
	OpSYSCALL
	OpBREAK
	// Integer multiply/divide (3-operand, write rd)
	OpMUL
	OpDIV
	OpREM
	OpDIVU
	OpREMU
	// Integer ALU, register forms
	OpADD
	OpADDU
	OpSUB
	OpSUBU
	OpAND
	OpOR
	OpXOR
	OpNOR
	OpSLT
	OpSLTU
	// Branches
	OpBLTZ
	OpBGEZ
	OpBEQ
	OpBNE
	OpBLEZ
	OpBGTZ
	// Jumps
	OpJ
	OpJAL
	// Integer ALU, immediate forms
	OpADDI
	OpADDIU
	OpSLTI
	OpSLTIU
	OpANDI
	OpORI
	OpXORI
	OpLUI
	// COP0
	OpMFC0
	OpMTC0
	OpTLBR
	OpTLBWI
	OpTLBWR
	OpTLBP
	OpERET
	OpWAIT
	// COP1 (floating point, double precision)
	OpMFC1
	OpMTC1
	OpBC1F
	OpBC1T
	OpFADD
	OpFSUB
	OpFMUL
	OpFDIV
	OpFSQRT
	OpFABS
	OpFMOV
	OpFNEG
	OpCVTDW // int32 bits in FPR -> double
	OpCVTWD // double -> int32 bits (truncate)
	OpFCEQ
	OpFCLT
	OpFCLE
	// Memory
	OpLB
	OpLH
	OpLW
	OpLBU
	OpLHU
	OpSB
	OpSH
	OpSW
	OpLL
	OpSC
	OpCACHE
	OpFLD // load double to FPR
	OpFSD // store double from FPR
	opCount
)

// Class groups operations for timing models and functional-unit binding.
type Class uint8

// Operation classes.
const (
	ClassNone  Class = iota
	ClassALU         // 1-cycle integer
	ClassShift       // 1-cycle integer shift
	ClassMul         // pipelined integer multiply
	ClassDiv         // unpipelined integer divide
	ClassBranch
	ClassJump
	ClassLoad
	ClassStore
	ClassFP    // pipelined FP add/mul class
	ClassFPDiv // unpipelined FP divide/sqrt
	ClassSys   // syscall/break: serializing trap
	ClassCop0  // serializing system-control op
	ClassCache // cache maintenance (serializing)
)

// Info describes static properties of an operation.
type Info struct {
	Name        string
	Class       Class
	Latency     int  // execute latency in cycles for timing models
	Serializing bool // must issue alone with pipeline drained (MXS)
}

var opInfo = [opCount]Info{
	OpInvalid: {"invalid", ClassNone, 1, true},
	OpSLL:     {"sll", ClassShift, 1, false},
	OpSRL:     {"srl", ClassShift, 1, false},
	OpSRA:     {"sra", ClassShift, 1, false},
	OpSLLV:    {"sllv", ClassShift, 1, false},
	OpSRLV:    {"srlv", ClassShift, 1, false},
	OpSRAV:    {"srav", ClassShift, 1, false},
	OpJR:      {"jr", ClassJump, 1, false},
	OpJALR:    {"jalr", ClassJump, 1, false},
	OpSYSCALL: {"syscall", ClassSys, 1, true},
	OpBREAK:   {"break", ClassSys, 1, true},
	OpMUL:     {"mul", ClassMul, 4, false},
	OpDIV:     {"div", ClassDiv, 20, false},
	OpREM:     {"rem", ClassDiv, 20, false},
	OpDIVU:    {"divu", ClassDiv, 20, false},
	OpREMU:    {"remu", ClassDiv, 20, false},
	OpADD:     {"add", ClassALU, 1, false},
	OpADDU:    {"addu", ClassALU, 1, false},
	OpSUB:     {"sub", ClassALU, 1, false},
	OpSUBU:    {"subu", ClassALU, 1, false},
	OpAND:     {"and", ClassALU, 1, false},
	OpOR:      {"or", ClassALU, 1, false},
	OpXOR:     {"xor", ClassALU, 1, false},
	OpNOR:     {"nor", ClassALU, 1, false},
	OpSLT:     {"slt", ClassALU, 1, false},
	OpSLTU:    {"sltu", ClassALU, 1, false},
	OpBLTZ:    {"bltz", ClassBranch, 1, false},
	OpBGEZ:    {"bgez", ClassBranch, 1, false},
	OpBEQ:     {"beq", ClassBranch, 1, false},
	OpBNE:     {"bne", ClassBranch, 1, false},
	OpBLEZ:    {"blez", ClassBranch, 1, false},
	OpBGTZ:    {"bgtz", ClassBranch, 1, false},
	OpJ:       {"j", ClassJump, 1, false},
	OpJAL:     {"jal", ClassJump, 1, false},
	OpADDI:    {"addi", ClassALU, 1, false},
	OpADDIU:   {"addiu", ClassALU, 1, false},
	OpSLTI:    {"slti", ClassALU, 1, false},
	OpSLTIU:   {"sltiu", ClassALU, 1, false},
	OpANDI:    {"andi", ClassALU, 1, false},
	OpORI:     {"ori", ClassALU, 1, false},
	OpXORI:    {"xori", ClassALU, 1, false},
	OpLUI:     {"lui", ClassALU, 1, false},
	OpMFC0:    {"mfc0", ClassCop0, 1, true},
	OpMTC0:    {"mtc0", ClassCop0, 1, true},
	OpTLBR:    {"tlbr", ClassCop0, 1, true},
	OpTLBWI:   {"tlbwi", ClassCop0, 1, true},
	OpTLBWR:   {"tlbwr", ClassCop0, 1, true},
	OpTLBP:    {"tlbp", ClassCop0, 1, true},
	OpERET:    {"eret", ClassCop0, 1, true},
	OpWAIT:    {"wait", ClassCop0, 1, true},
	OpMFC1:    {"mfc1", ClassFP, 1, false},
	OpMTC1:    {"mtc1", ClassFP, 1, false},
	OpBC1F:    {"bc1f", ClassBranch, 1, false},
	OpBC1T:    {"bc1t", ClassBranch, 1, false},
	OpFADD:    {"fadd", ClassFP, 3, false},
	OpFSUB:    {"fsub", ClassFP, 3, false},
	OpFMUL:    {"fmul", ClassFP, 4, false},
	OpFDIV:    {"fdiv", ClassFPDiv, 18, false},
	OpFSQRT:   {"fsqrt", ClassFPDiv, 22, false},
	OpFABS:    {"fabs", ClassFP, 1, false},
	OpFMOV:    {"fmov", ClassFP, 1, false},
	OpFNEG:    {"fneg", ClassFP, 1, false},
	OpCVTDW:   {"cvt.d.w", ClassFP, 3, false},
	OpCVTWD:   {"cvt.w.d", ClassFP, 3, false},
	OpFCEQ:    {"c.eq", ClassFP, 1, false},
	OpFCLT:    {"c.lt", ClassFP, 1, false},
	OpFCLE:    {"c.le", ClassFP, 1, false},
	OpLB:      {"lb", ClassLoad, 1, false},
	OpLH:      {"lh", ClassLoad, 1, false},
	OpLW:      {"lw", ClassLoad, 1, false},
	OpLBU:     {"lbu", ClassLoad, 1, false},
	OpLHU:     {"lhu", ClassLoad, 1, false},
	OpSB:      {"sb", ClassStore, 1, false},
	OpSH:      {"sh", ClassStore, 1, false},
	OpSW:      {"sw", ClassStore, 1, false},
	OpLL:      {"ll", ClassLoad, 1, true},
	OpSC:      {"sc", ClassStore, 1, true},
	OpCACHE:   {"cache", ClassCache, 1, true},
	OpFLD:     {"fld", ClassLoad, 1, false},
	OpFSD:     {"fsd", ClassStore, 1, false},
}

// InfoOf returns the static description of op.
func InfoOf(op Op) Info { return opInfo[op] }

// Dense per-op copies of opInfo's scheduler-hot fields. Info() copies a
// 40-byte struct per call, which is too costly on per-instruction timing
// paths; these are single-byte loads.
var (
	opClass  [opCount]Class
	opLat    [opCount]uint8
	opSerial [opCount]bool
)

func init() {
	for op := range opInfo {
		opClass[op] = opInfo[op].Class
		opLat[op] = uint8(opInfo[op].Latency)
		opSerial[op] = opInfo[op].Serializing
	}
}

// Class returns the operation class of the instruction.
func (in Inst) Class() Class { return opClass[in.Op] }

// Latency returns the execute latency of the instruction in cycles.
func (in Inst) Latency() uint8 { return opLat[in.Op] }

// Serializing reports whether the operation serializes the pipeline.
func (in Inst) Serializing() bool { return opSerial[in.Op] }

// String returns the mnemonic of op.
func (op Op) String() string { return opInfo[op].Name }

// Inst is a decoded instruction. Register fields hold GPR or FPR numbers
// depending on the operation; Imm is sign- or zero-extended per the op.
type Inst struct {
	Op     Op
	Rs     uint8
	Rt     uint8
	Rd     uint8
	Shamt  uint8
	Imm    int32  // sign-extended (or zero-extended for logical immediates)
	Target uint32 // absolute target for J/JAL
	Raw    uint32
}

// Info returns the static description of the instruction's operation.
func (in Inst) Info() Info { return opInfo[in.Op] }

// fprBase offsets FPR numbers in the unified dependency namespace.
const fprBase = 32

// depFCC is the dependency-namespace id of the FP condition flag.
const depFCC = 64

// NumDepRegs is the size of the unified dependency register namespace used
// by Uses/Defs (GPRs 0-31, FPRs 32-63, FP condition flag 64).
const NumDepRegs = 65

// Uses appends the dependency-namespace ids of registers read by the
// instruction to dst and returns it. GPR 0 is never reported.
func (in Inst) Uses(dst []uint8) []uint8 {
	gpr := func(r uint8) {
		if r != 0 {
			dst = append(dst, r)
		}
	}
	fpr := func(r uint8) { dst = append(dst, r+fprBase) }
	switch in.Op {
	case OpSLL, OpSRL, OpSRA:
		gpr(in.Rt)
	case OpSLLV, OpSRLV, OpSRAV,
		OpADD, OpADDU, OpSUB, OpSUBU, OpAND, OpOR, OpXOR, OpNOR,
		OpSLT, OpSLTU, OpMUL, OpDIV, OpREM, OpDIVU, OpREMU,
		OpBEQ, OpBNE:
		gpr(in.Rs)
		gpr(in.Rt)
	case OpJR, OpJALR, OpBLTZ, OpBGEZ, OpBLEZ, OpBGTZ,
		OpADDI, OpADDIU, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI,
		OpLB, OpLH, OpLW, OpLBU, OpLHU, OpLL, OpCACHE:
		gpr(in.Rs)
	case OpMTC0:
		gpr(in.Rt)
	case OpSB, OpSH, OpSW, OpSC:
		gpr(in.Rs)
		gpr(in.Rt)
	case OpLUI, OpJ, OpJAL, OpSYSCALL, OpBREAK, OpERET, OpWAIT,
		OpTLBR, OpTLBWI, OpTLBWR, OpTLBP, OpMFC0:
		// no GPR/FPR sources tracked (COP0 state is serialized)
	case OpMTC1:
		gpr(in.Rt)
	case OpMFC1:
		fpr(in.Rs)
	case OpFADD, OpFSUB, OpFMUL, OpFDIV, OpFCEQ, OpFCLT, OpFCLE:
		fpr(in.Rs)
		fpr(in.Rt)
	case OpFSQRT, OpFABS, OpFMOV, OpFNEG, OpCVTDW, OpCVTWD:
		fpr(in.Rs)
	case OpBC1F, OpBC1T:
		dst = append(dst, depFCC)
	case OpFLD:
		gpr(in.Rs)
	case OpFSD:
		gpr(in.Rs)
		fpr(in.Rt)
	}
	return dst
}

// Defs appends the dependency-namespace ids of registers written by the
// instruction to dst and returns it. GPR 0 is never reported.
func (in Inst) Defs(dst []uint8) []uint8 {
	gpr := func(r uint8) {
		if r != 0 {
			dst = append(dst, r)
		}
	}
	fpr := func(r uint8) { dst = append(dst, r+fprBase) }
	switch in.Op {
	case OpSLL, OpSRL, OpSRA, OpSLLV, OpSRLV, OpSRAV,
		OpADD, OpADDU, OpSUB, OpSUBU, OpAND, OpOR, OpXOR, OpNOR,
		OpSLT, OpSLTU, OpMUL, OpDIV, OpREM, OpDIVU, OpREMU:
		gpr(in.Rd)
	case OpJALR:
		gpr(in.Rd)
	case OpJAL:
		gpr(RegRA)
	case OpADDI, OpADDIU, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI, OpLUI,
		OpLB, OpLH, OpLW, OpLBU, OpLHU, OpLL, OpSC, OpMFC0:
		gpr(in.Rt)
	case OpMFC1:
		gpr(in.Rt)
	case OpMTC1:
		fpr(in.Rs)
	case OpFADD, OpFSUB, OpFMUL, OpFDIV, OpFSQRT, OpFABS, OpFMOV, OpFNEG,
		OpCVTDW, OpCVTWD:
		fpr(in.Rd)
	case OpFCEQ, OpFCLT, OpFCLE:
		dst = append(dst, depFCC)
	case OpFLD:
		fpr(in.Rt)
	}
	return dst
}

// Dependency recipes: Uses/Defs compressed into per-op selector pairs so
// the per-instruction timing paths can expand them without closures or
// append machinery. The tables are derived in init from the canonical
// switches above (via probe instructions with distinct register numbers),
// so the two representations can never diverge.
const (
	depSelNone uint8 = iota
	depSelRs
	depSelRt
	depSelRd
	depSelRA // constant RegRA (JAL link register)
	depSelFRs
	depSelFRt
	depSelFRd
	depSelFCC
)

var opUses, opDefs [opCount][2]uint8

func init() {
	sel := func(id uint8) uint8 {
		switch id {
		case 1:
			return depSelRs
		case 2:
			return depSelRt
		case 3:
			return depSelRd
		case RegRA:
			return depSelRA
		case fprBase + 1:
			return depSelFRs
		case fprBase + 2:
			return depSelFRt
		case fprBase + 3:
			return depSelFRd
		case depFCC:
			return depSelFCC
		}
		panic("isa: unmapped dependency id in recipe derivation")
	}
	probe := Inst{Rs: 1, Rt: 2, Rd: 3}
	var buf [4]uint8
	for op := range opInfo {
		probe.Op = Op(op)
		for i, id := range probe.Uses(buf[:0]) {
			opUses[op][i] = sel(id)
		}
		for i, id := range probe.Defs(buf[:0]) {
			opDefs[op][i] = sel(id)
		}
	}
}

// depExpand materializes a selector recipe for in, honoring the "GPR 0 is
// never reported" rule exactly as the switch-based Uses/Defs do.
func depExpand(sels *[2]uint8, in Inst, dst []uint8) int {
	n := 0
	for _, s := range sels {
		var id uint8
		switch s {
		case depSelNone:
			return n
		case depSelRs:
			if in.Rs == 0 {
				continue
			}
			id = in.Rs
		case depSelRt:
			if in.Rt == 0 {
				continue
			}
			id = in.Rt
		case depSelRd:
			if in.Rd == 0 {
				continue
			}
			id = in.Rd
		case depSelRA:
			id = RegRA
		case depSelFRs:
			id = in.Rs + fprBase
		case depSelFRt:
			id = in.Rt + fprBase
		case depSelFRd:
			id = in.Rd + fprBase
		case depSelFCC:
			id = depFCC
		}
		dst[n] = id
		n++
	}
	return n
}

// UsesInto writes the instruction's source dependency ids into dst and
// returns the count. Identical results to Uses, allocation-free.
func (in Inst) UsesInto(dst *[4]uint8) int { return depExpand(&opUses[in.Op], in, dst[:]) }

// DefsInto writes the instruction's destination dependency ids into dst
// and returns the count. Identical results to Defs, allocation-free.
func (in Inst) DefsInto(dst *[2]uint8) int { return depExpand(&opDefs[in.Op], in, dst[:]) }

// Meta is the precomputed dispatch metadata of one decoded instruction:
// everything a timing model's dispatch stage derives from the static
// encoding (dependency ids, operation class, execute latency, serialization)
// packed into one cache-line-friendly struct. A predecode line carries one
// Meta per instruction word (arch.CPU.MetaAt), so the hot dispatch path
// replaces the Deps switch plus three table lookups with a single indexed
// load. TestMetaMatchesTables asserts exact equivalence with the canonical
// accessors over every opcode and register pattern.
type Meta struct {
	Uses   [4]uint8
	Defs   [2]uint8
	NUses  uint8
	NDefs  uint8
	Class  Class
	Lat    uint8
	Serial bool
}

// Fill populates m with in's dispatch metadata, producing exactly what
// Deps, Class, Latency and Serializing return individually.
func (in Inst) Fill(m *Meta) {
	nu, nd := in.Deps(&m.Uses, &m.Defs)
	m.NUses = uint8(nu)
	m.NDefs = uint8(nd)
	m.Class = opClass[in.Op]
	m.Lat = opLat[in.Op]
	m.Serial = opSerial[in.Op]
}

// Deps writes the instruction's source and destination dependency ids and
// returns both counts: one dispatch-path call replacing Uses+Defs. The
// grouping mirrors the canonical switches above; TestDepsMatchesUsesDefs
// asserts exact equivalence over every opcode and register pattern.
func (in Inst) Deps(uses *[4]uint8, defs *[2]uint8) (nu, nd int) {
	gu := func(r uint8) {
		if r != 0 {
			uses[nu] = r
			nu++
		}
	}
	switch in.Op {
	case OpSLL, OpSRL, OpSRA:
		gu(in.Rt)
		if in.Rd != 0 {
			defs[0], nd = in.Rd, 1
		}
	case OpSLLV, OpSRLV, OpSRAV,
		OpADD, OpADDU, OpSUB, OpSUBU, OpAND, OpOR, OpXOR, OpNOR,
		OpSLT, OpSLTU, OpMUL, OpDIV, OpREM, OpDIVU, OpREMU:
		gu(in.Rs)
		gu(in.Rt)
		if in.Rd != 0 {
			defs[0], nd = in.Rd, 1
		}
	case OpBEQ, OpBNE:
		gu(in.Rs)
		gu(in.Rt)
	case OpJR, OpBLTZ, OpBGEZ, OpBLEZ, OpBGTZ, OpCACHE:
		gu(in.Rs)
	case OpJALR:
		gu(in.Rs)
		if in.Rd != 0 {
			defs[0], nd = in.Rd, 1
		}
	case OpADDI, OpADDIU, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI,
		OpLB, OpLH, OpLW, OpLBU, OpLHU, OpLL:
		gu(in.Rs)
		if in.Rt != 0 {
			defs[0], nd = in.Rt, 1
		}
	case OpMTC0:
		gu(in.Rt)
	case OpSB, OpSH, OpSW:
		gu(in.Rs)
		gu(in.Rt)
	case OpSC:
		gu(in.Rs)
		gu(in.Rt)
		if in.Rt != 0 {
			defs[0], nd = in.Rt, 1
		}
	case OpLUI, OpMFC0:
		if in.Rt != 0 {
			defs[0], nd = in.Rt, 1
		}
	case OpJAL:
		defs[0], nd = RegRA, 1
	case OpJ, OpSYSCALL, OpBREAK, OpERET, OpWAIT,
		OpTLBR, OpTLBWI, OpTLBWR, OpTLBP:
		// no tracked sources or destinations
	case OpMTC1:
		gu(in.Rt)
		defs[0], nd = in.Rs+fprBase, 1
	case OpMFC1:
		uses[0], nu = in.Rs+fprBase, 1
		if in.Rt != 0 {
			defs[0], nd = in.Rt, 1
		}
	case OpFADD, OpFSUB, OpFMUL, OpFDIV:
		uses[0] = in.Rs + fprBase
		uses[1] = in.Rt + fprBase
		nu = 2
		defs[0], nd = in.Rd+fprBase, 1
	case OpFCEQ, OpFCLT, OpFCLE:
		uses[0] = in.Rs + fprBase
		uses[1] = in.Rt + fprBase
		nu = 2
		defs[0], nd = depFCC, 1
	case OpFSQRT, OpFABS, OpFMOV, OpFNEG, OpCVTDW, OpCVTWD:
		uses[0], nu = in.Rs+fprBase, 1
		defs[0], nd = in.Rd+fprBase, 1
	case OpBC1F, OpBC1T:
		uses[0], nu = depFCC, 1
	case OpFLD:
		gu(in.Rs)
		defs[0], nd = in.Rt+fprBase, 1
	case OpFSD:
		gu(in.Rs)
		uses[nu] = in.Rt + fprBase
		nu++
	}
	return nu, nd
}

// MemSize returns the access width in bytes for loads/stores, 0 otherwise.
func (in Inst) MemSize() int {
	switch in.Op {
	case OpLB, OpLBU, OpSB:
		return 1
	case OpLH, OpLHU, OpSH:
		return 2
	case OpLW, OpSW, OpLL, OpSC:
		return 4
	case OpFLD, OpFSD:
		return 8
	}
	return 0
}

// IsLoad reports whether the instruction reads data memory.
func (in Inst) IsLoad() bool {
	switch in.Op {
	case OpLB, OpLH, OpLW, OpLBU, OpLHU, OpLL, OpFLD:
		return true
	}
	return false
}

// IsStore reports whether the instruction writes data memory.
func (in Inst) IsStore() bool {
	switch in.Op {
	case OpSB, OpSH, OpSW, OpSC, OpFSD:
		return true
	}
	return false
}

// IsBranch reports whether the instruction is a conditional branch.
func (in Inst) IsBranch() bool { return in.Info().Class == ClassBranch }

// IsControl reports whether the instruction can redirect the PC.
func (in Inst) IsControl() bool {
	c := in.Info().Class
	return c == ClassBranch || c == ClassJump ||
		in.Op == OpERET || in.Op == OpSYSCALL || in.Op == OpBREAK
}

func (in Inst) String() string { return Disassemble(in, 0) }
