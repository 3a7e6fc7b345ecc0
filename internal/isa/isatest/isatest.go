// Package isatest generates randomized M32 code images for differential
// tests: the fast execution paths (the arch code cache, the swift
// fast-forward core) are run against the exact interpreter over the same
// chaotic instruction stream, and any architectural divergence fails.
package isatest

import (
	"encoding/binary"
	"math/rand"

	"softwatt/internal/isa"
)

// Program returns n bytes of randomized code to be loaded at physical
// address base (n a multiple of 4).
//
// The programs mix curated encodings of every fast-path opcode (with
// random registers, shifts, and immediates, including the JALR rd == rs
// link-then-jump case), loads and stores with small offsets (callers seed
// registers to point at a partially-mapped, partially-writable window),
// local branches, absolute jumps that stay inside the image, and
// completely random words that decode to anything at all — privileged
// ops, syscalls, reserved instructions. An image that covers the
// exception vectors makes fault handling "run" random code too.
func Program(rng *rand.Rand, base uint32, n int) []byte {
	buf := make([]byte, n)
	reg := func() uint8 { return uint8(rng.Intn(32)) }
	for off := 0; off+4 <= n; off += 4 {
		var w uint32
		switch p := rng.Intn(100); {
		case p < 45: // integer/shift/immediate ALU
			op := aluOps[rng.Intn(len(aluOps))]
			w = isa.Encode(isa.Inst{
				Op: op, Rs: reg(), Rt: reg(), Rd: reg(),
				Shamt: uint8(rng.Intn(32)), Imm: int32(int16(rng.Uint32())),
			})
		case p < 55: // floating point
			op := fpOps[rng.Intn(len(fpOps))]
			w = isa.Encode(isa.Inst{Op: op, Rs: reg(), Rt: reg(), Rd: reg()})
		case p < 75: // loads/stores: small offsets around the seeded bases
			op := memOps[rng.Intn(len(memOps))]
			w = isa.Encode(isa.Inst{
				Op: op, Rs: reg(), Rt: reg(),
				Imm: int32(int16(rng.Intn(0x4000) - 0x2000)),
			})
		case p < 90: // local branches
			op := brOps[rng.Intn(len(brOps))]
			w = isa.Encode(isa.Inst{
				Op: op, Rs: reg(), Rt: reg(),
				Imm: int32(rng.Intn(256) - 128),
			})
		case p < 94: // jump-register pair, including JALR rd == rs
			rs := reg()
			rd := rs
			if rng.Intn(2) == 0 {
				rd = reg()
			}
			if rng.Intn(2) == 0 {
				w = isa.Encode(isa.Inst{Op: isa.OpJR, Rs: rs})
			} else {
				w = isa.Encode(isa.Inst{Op: isa.OpJALR, Rs: rs, Rd: rd})
			}
		case p < 97: // absolute jumps kept inside the image
			t := base + uint32(rng.Intn(n))&^3
			op := isa.OpJ
			if rng.Intn(2) == 0 {
				op = isa.OpJAL
			}
			w = isa.Encode(isa.Inst{Op: op, Target: t})
		default: // raw random word: reserved, privileged, anything
			w = rng.Uint32()
		}
		binary.LittleEndian.PutUint32(buf[off:], w)
	}
	return buf
}

var (
	aluOps = []isa.Op{
		isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpSLLV, isa.OpSRLV, isa.OpSRAV,
		isa.OpMUL, isa.OpDIV, isa.OpREM, isa.OpDIVU, isa.OpREMU,
		isa.OpADD, isa.OpADDU, isa.OpSUB, isa.OpSUBU,
		isa.OpAND, isa.OpOR, isa.OpXOR, isa.OpNOR, isa.OpSLT, isa.OpSLTU,
		isa.OpADDI, isa.OpADDIU, isa.OpSLTI, isa.OpSLTIU,
		isa.OpANDI, isa.OpORI, isa.OpXORI, isa.OpLUI,
	}
	fpOps = []isa.Op{
		isa.OpMFC1, isa.OpMTC1, isa.OpFADD, isa.OpFSUB, isa.OpFMUL,
		isa.OpFDIV, isa.OpFSQRT, isa.OpFABS, isa.OpFMOV, isa.OpFNEG,
		isa.OpCVTDW, isa.OpCVTWD, isa.OpFCEQ, isa.OpFCLT, isa.OpFCLE,
	}
	memOps = []isa.Op{
		isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLBU, isa.OpLHU,
		isa.OpSB, isa.OpSH, isa.OpSW, isa.OpFLD, isa.OpFSD,
	}
	brOps = []isa.Op{
		isa.OpBLTZ, isa.OpBGEZ, isa.OpBEQ, isa.OpBNE, isa.OpBLEZ,
		isa.OpBGTZ, isa.OpBC1F, isa.OpBC1T,
	}
)
