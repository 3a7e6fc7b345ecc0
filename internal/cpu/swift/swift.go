// Package swift is the functional fast-forward core: it retires
// instructions with no cache, power, or attribution bookkeeping, as fast
// as the host allows, while keeping architectural state bit-identical to
// the exact interpreter (internal/arch.StepInto) at every instruction
// boundary. It exists for positioning runs — skipping billions of cycles
// to a region of interest before switching to a detailed timing model —
// which is how complete-machine simulators make whole-OS workloads
// tractable (SimOS's "Embra" mode; DESIGN.md §12).
//
// The execution unit is the superblock: a run of decoded instructions
// starting at one virtual PC and ending at the first control-flow
// instruction, privileged/exceptional operation, page boundary, or size
// cap. The superblocks, their page-generation invalidation and the host
// translation caches belong to the functional CPU (internal/arch), which
// serves the detailed cores' StepInto from the same blocks; this package
// is a thin loop over them. Within a block, dispatch is a dense switch
// over internal/isa opcodes — no StepInfo, no per-instruction translation
// (host-cache checked loads/stores go straight to RAM bytes), no COUNT
// maintenance.
//
// Anything the fast path cannot reproduce exactly — exceptions, syscalls,
// TLB management, LL/SC, uncached/MMIO access, interrupt delivery — is
// delegated to the exact interpreter at the precise cycle (arch.StepBlock
// with the block in hand; interrupt delivery through arch.StepInto), so
// software-visible state (including the TLBWR replacement pointer, which
// DecayRandom advances for fast instructions) matches the mipsy
// functional stream instruction for instruction. The machine layer
// drives the core in batches bounded by the next device event; the core
// ends a batch early after any uncached access so device timing (timer
// arming, disk DMA) is evaluated against an exact cycle counter.
package swift

import (
	"encoding/binary"
	"math"

	"softwatt/internal/arch"
	"softwatt/internal/isa"
	"softwatt/internal/mem"
	"softwatt/internal/obs"
	"softwatt/internal/trace"
)

// Stats are the superblock cache telemetry counters (the CPU's).
type Stats = arch.BlockStats

// Core is the fast-forward execution engine behind the machine's Core
// interface (RunBatch, and Counters for telemetry).
type Core struct {
	cpu  *arch.CPU
	ram  *mem.RAM
	mem  []byte
	col  *trace.Collector
	sync arch.CycleSync // required: slow steps may reach MMIO

	scratch   arch.StepInfo
	committed uint64
}

// New builds a fast-forward core over the shared functional CPU. The
// CPU's code cache must be enabled over ram (arch.CPU.EnableBlocks): the
// core executes its blocks, and its loads and stores below the cache's
// limit go straight to ram. Each batch charges its cycles and retired
// instructions to col in bulk: swift performs no per-instruction
// attribution.
func New(cpu *arch.CPU, ram *mem.RAM, col *trace.Collector, sync arch.CycleSync) *Core {
	return &Core{cpu: cpu, ram: ram, mem: ram.Bytes(), col: col, sync: sync}
}

// Stats returns the superblock cache counters.
func (c *Core) Stats() Stats { return c.cpu.BlockStats() }

// Counters implements the machine Core interface.
func (c *Core) Counters() obs.CoreCounters {
	return obs.CoreCounters{Committed: c.committed}
}

// RunBatch executes up to budget cycles starting at cycle start, charges
// them to the collector, and returns the cycles consumed (ran) and
// instructions retired (excluding WAIT idling, matching mipsy's
// committed-instruction accounting); swift elides no cycles (skipped is
// always 0) and calls no commit: the fast path maintains no StepInfo. It
// consumes at least one cycle when budget >= 1 and the CPU is not halted.
// The batch ends early after any uncached (MMIO) access or halt so the
// machine re-evaluates device timing; interrupt and WAIT state are
// checked exactly where per-cycle stepping would check them.
func (c *Core) RunBatch(start, budget uint64, _ func(*arch.StepInfo)) (ran, retired, skipped uint64) {
	cpu := c.cpu
	for ran < budget {
		if cpu.Halted {
			break
		}
		if cpu.PendingInterrupt() {
			// Delivery rewrites PC/Cause/EPC exactly like per-cycle
			// execution: interrupts are only raised between batches or at
			// uncached-access batch ends, so checking here is exact. It
			// is one counted step that neither halts nor touches a
			// device, so the batch goes on.
			c.sync.SyncCycle(start + ran)
			cpu.StepInto(start+ran, &c.scratch)
			ran++
			retired++
			continue
		}
		if cpu.Waiting() {
			// No enabled interrupt is pending, and none can arrive before
			// the next machine event, which bounds this batch: the rest of
			// the budget is pure idle time.
			ran = budget
			break
		}
		b := cpu.BlockAt(budget - ran)
		if b == nil || b.NFast == 0 {
			// Unaligned/unmapped/uncached PC or a slow first instruction.
			stop, counted := c.slowStep(start+ran, b, 0)
			ran++
			if counted {
				retired++
			}
			if stop {
				break
			}
			continue
		}
		n := b.NFast
		if rem := budget - ran; uint64(n) > rem {
			n = int(rem)
		}
		done, flag := c.exec(b, n)
		ran += uint64(done)
		retired += uint64(done)
		if flag == execSlow && ran < budget {
			stop, counted := c.slowStep(start+ran, b, done)
			ran++
			if counted {
				retired++
			}
			if stop {
				break
			}
		}
	}
	c.committed += retired
	c.col.AddCycles(ran)
	c.col.AddInst(retired)
	return ran, retired, 0
}

// slowStep runs one instruction through the exact interpreter at the
// given cycle: b.Ops[i] is the instruction at PC, or b is nil when no
// block serves PC. It returns stop=true when the batch must end — after
// an uncached access (a device register may have changed machine timing)
// or halt — and counted=false for WAIT idling and halted steps,
// mirroring the timing models' commit accounting.
func (c *Core) slowStep(cycle uint64, b *arch.Block, i int) (stop, counted bool) {
	c.sync.SyncCycle(cycle)
	info := &c.scratch
	c.cpu.StepBlock(cycle, info, b, i)
	return info.MemUncached || info.Halted, !info.Waiting && !info.Halted
}

type execFlag uint8

const (
	execOK   execFlag = iota // ran to the end of the block or budget
	execSlow                 // stopped before an op needing the interpreter
	execSMC                  // a store invalidated code: re-lookup the block
)

// exec retires up to n ops of block b, mirroring arch.StepInto's execute
// switch exactly (including writing then re-zeroing r0, so JALR with
// rd == rs == r0 observes the same value the interpreter would). It
// returns the number of instructions retired. On execSlow, the op at the
// returned index did not execute; PC points at it for re-execution. Ending
// at the block's slow terminator is an execSlow too. The TLBWR replacement
// pointer decays once per retired instruction via DecayRandom.
func (c *Core) exec(b *arch.Block, n int) (int, execFlag) {
	cpu := c.cpu
	g := &cpu.GPR
	ram := c.mem
	ops := b.Ops
	vpc := b.VPC
	i := 0
	for ; i < n; i++ {
		in := &ops[i].In
		switch in.Op {
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
			t := g[in.Rs]
			cpu.DecayRandom(i + 1)
			cpu.PC = t
			return i + 1, execOK
		case isa.OpJALR:
			// Link before reading rs (rd == rs jumps to the link address),
			// then re-zero r0: the interpreter's write/zero order.
			g[in.Rd] = vpc + 4*uint32(i) + 4
			t := g[in.Rs]
			g[0] = 0
			cpu.DecayRandom(i + 1)
			cpu.PC = t
			return i + 1, execOK
		case isa.OpJ:
			cpu.DecayRandom(i + 1)
			cpu.PC = (vpc+4*uint32(i))&0xF000_0000 | in.Target
			return i + 1, execOK
		case isa.OpJAL:
			g[isa.RegRA] = vpc + 4*uint32(i) + 4
			cpu.DecayRandom(i + 1)
			cpu.PC = (vpc+4*uint32(i))&0xF000_0000 | in.Target
			return i + 1, execOK

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
			return c.takeBranch(b, i, int32(g[in.Rs]) < 0)
		case isa.OpBGEZ:
			return c.takeBranch(b, i, int32(g[in.Rs]) >= 0)
		case isa.OpBEQ:
			return c.takeBranch(b, i, g[in.Rs] == g[in.Rt])
		case isa.OpBNE:
			return c.takeBranch(b, i, g[in.Rs] != g[in.Rt])
		case isa.OpBLEZ:
			return c.takeBranch(b, i, int32(g[in.Rs]) <= 0)
		case isa.OpBGTZ:
			return c.takeBranch(b, i, int32(g[in.Rs]) > 0)

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

		case isa.OpMFC1:
			g[in.Rt] = uint32(math.Float64bits(cpu.FPR[in.Rs]))
		case isa.OpMTC1:
			cpu.FPR[in.Rs] = math.Float64frombits(uint64(g[in.Rt]))
		case isa.OpBC1F:
			return c.takeBranch(b, i, !cpu.FCC)
		case isa.OpBC1T:
			return c.takeBranch(b, i, cpu.FCC)
		case isa.OpFADD:
			cpu.FPR[in.Rd] = cpu.FPR[in.Rs] + cpu.FPR[in.Rt]
		case isa.OpFSUB:
			cpu.FPR[in.Rd] = cpu.FPR[in.Rs] - cpu.FPR[in.Rt]
		case isa.OpFMUL:
			cpu.FPR[in.Rd] = cpu.FPR[in.Rs] * cpu.FPR[in.Rt]
		case isa.OpFDIV:
			cpu.FPR[in.Rd] = cpu.FPR[in.Rs] / cpu.FPR[in.Rt]
		case isa.OpFSQRT:
			cpu.FPR[in.Rd] = math.Sqrt(cpu.FPR[in.Rs])
		case isa.OpFABS:
			// Not math.Abs: the interpreter's compare-and-negate keeps -0
			// bit patterns, and bit-identity is the contract.
			v := cpu.FPR[in.Rs]
			if v < 0 {
				v = -v
			}
			cpu.FPR[in.Rd] = v
		case isa.OpFMOV:
			cpu.FPR[in.Rd] = cpu.FPR[in.Rs]
		case isa.OpFNEG:
			cpu.FPR[in.Rd] = -cpu.FPR[in.Rs]
		case isa.OpCVTDW:
			cpu.FPR[in.Rd] = float64(int32(math.Float64bits(cpu.FPR[in.Rs])))
		case isa.OpCVTWD:
			cpu.FPR[in.Rd] = math.Float64frombits(uint64(uint32(int32(cpu.FPR[in.Rs]))))
		case isa.OpFCEQ:
			cpu.FCC = cpu.FPR[in.Rs] == cpu.FPR[in.Rt]
		case isa.OpFCLT:
			cpu.FCC = cpu.FPR[in.Rs] < cpu.FPR[in.Rt]
		case isa.OpFCLE:
			cpu.FCC = cpu.FPR[in.Rs] <= cpu.FPR[in.Rt]

		case isa.OpLB:
			va := g[in.Rs] + uint32(in.Imm)
			pa, ok := cpu.XlatData(va, false)
			if !ok {
				goto bail
			}
			g[in.Rt] = uint32(int8(ram[pa]))
		case isa.OpLBU:
			va := g[in.Rs] + uint32(in.Imm)
			pa, ok := cpu.XlatData(va, false)
			if !ok {
				goto bail
			}
			g[in.Rt] = uint32(ram[pa])
		case isa.OpLH:
			va := g[in.Rs] + uint32(in.Imm)
			if va&1 != 0 {
				goto bail
			}
			pa, ok := cpu.XlatData(va, false)
			if !ok {
				goto bail
			}
			g[in.Rt] = uint32(int16(binary.LittleEndian.Uint16(ram[pa:])))
		case isa.OpLHU:
			va := g[in.Rs] + uint32(in.Imm)
			if va&1 != 0 {
				goto bail
			}
			pa, ok := cpu.XlatData(va, false)
			if !ok {
				goto bail
			}
			g[in.Rt] = uint32(binary.LittleEndian.Uint16(ram[pa:]))
		case isa.OpLW:
			va := g[in.Rs] + uint32(in.Imm)
			if va&3 != 0 {
				goto bail
			}
			pa, ok := cpu.XlatData(va, false)
			if !ok {
				goto bail
			}
			g[in.Rt] = binary.LittleEndian.Uint32(ram[pa:])
		case isa.OpFLD:
			va := g[in.Rs] + uint32(in.Imm)
			if va&7 != 0 {
				goto bail
			}
			pa, ok := cpu.XlatData(va, false)
			if !ok {
				goto bail
			}
			cpu.FPR[in.Rt] = math.Float64frombits(binary.LittleEndian.Uint64(ram[pa:]))

		case isa.OpSB:
			va := g[in.Rs] + uint32(in.Imm)
			pa, ok := cpu.XlatData(va, true)
			if !ok {
				goto bail
			}
			ram[pa] = uint8(g[in.Rt])
			c.ram.MarkDirtyPage(pa)
			if cpu.NoteStore(pa) {
				i++
				goto smc
			}
		case isa.OpSH:
			va := g[in.Rs] + uint32(in.Imm)
			if va&1 != 0 {
				goto bail
			}
			pa, ok := cpu.XlatData(va, true)
			if !ok {
				goto bail
			}
			binary.LittleEndian.PutUint16(ram[pa:], uint16(g[in.Rt]))
			c.ram.MarkDirtyPage(pa)
			if cpu.NoteStore(pa) {
				i++
				goto smc
			}
		case isa.OpSW:
			va := g[in.Rs] + uint32(in.Imm)
			if va&3 != 0 {
				goto bail
			}
			pa, ok := cpu.XlatData(va, true)
			if !ok {
				goto bail
			}
			binary.LittleEndian.PutUint32(ram[pa:], g[in.Rt])
			c.ram.MarkDirtyPage(pa)
			if cpu.NoteStore(pa) {
				i++
				goto smc
			}
		case isa.OpFSD:
			va := g[in.Rs] + uint32(in.Imm)
			if va&7 != 0 {
				goto bail
			}
			pa, ok := cpu.XlatData(va, true)
			if !ok {
				goto bail
			}
			binary.LittleEndian.PutUint64(ram[pa:], math.Float64bits(cpu.FPR[in.Rt]))
			c.ram.MarkDirtyPage(pa)
			if cpu.NoteStore(pa) {
				i++
				goto smc
			}
		}
		g[0] = 0
	}
	// Block (or budget) exhausted on a fall-through instruction.
	cpu.PC = vpc + 4*uint32(i)
	cpu.DecayRandom(i)
	if i == b.NFast && i < len(ops) {
		return i, execSlow // the block's terminator needs the interpreter
	}
	return i, execOK
bail:
	// ops[i] needs the interpreter (misalignment, TLB refill/mod/invalid,
	// uncached or MMIO access): it has not executed. PC points at it.
	cpu.PC = vpc + 4*uint32(i)
	cpu.DecayRandom(i)
	return i, execSlow
smc:
	// ops[i-1] was a store into a code page. It completed, but the rest of
	// this block may hold stale decodes of the bytes it overwrote.
	cpu.PC = vpc + 4*uint32(i)
	cpu.DecayRandom(i)
	return i, execSMC
}

// takeBranch finishes a superblock at a conditional branch, the common
// block terminator: taken goes to the branch target, not-taken falls
// through to the next sequential instruction.
func (c *Core) takeBranch(b *arch.Block, i int, taken bool) (int, execFlag) {
	cpu := c.cpu
	pc := b.VPC + 4*uint32(i)
	if taken {
		cpu.PC = isa.BranchTarget(pc, b.Ops[i].In.Imm)
	} else {
		cpu.PC = pc + 4
	}
	cpu.DecayRandom(i + 1)
	return i + 1, execOK
}

func b2u(bl bool) uint32 {
	if bl {
		return 1
	}
	return 0
}
