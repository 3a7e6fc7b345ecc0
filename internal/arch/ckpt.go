package arch

// Checkpoint support (DESIGN.md §13). The architectural state that must
// survive a save/restore is exactly what Snapshot captures; the host-only
// code cache (superblocks, host translation caches) is rebuilt lazily, so
// Restore invalidates it instead of serialising it.

import (
	"softwatt/internal/ckpt"
	"softwatt/internal/isa"
)

// Restore overwrites the CPU's architectural state from a snapshot and
// invalidates the code cache with one O(1) epoch bump; it refills lazily
// and by contract never influences architected results.
func (c *CPU) Restore(s Snapshot) {
	c.GPR = s.GPR
	for i, b := range s.FPR {
		c.FPR[i] = f64frombits(b)
	}
	c.FCC = s.FCC
	c.PC = s.PC
	c.COP0 = s.COP0
	c.TLB = s.TLB
	c.llBit = s.LLBit
	c.llAddr = s.LLAddr
	c.random = s.Random
	c.IP = s.IP
	c.waiting = s.Wait
	c.Halted = s.Halted
	c.resetCode()
}

// EncodeSnapshot serialises a snapshot.
func EncodeSnapshot(w *ckpt.Writer, s *Snapshot) {
	for _, v := range s.GPR {
		w.U32(v)
	}
	for _, v := range s.FPR {
		w.U64(v)
	}
	w.Bool(s.FCC)
	w.U32(s.PC)
	for _, v := range s.COP0 {
		w.U32(v)
	}
	for _, e := range s.TLB {
		w.U32(e.VPN)
		w.U8(e.ASID)
		w.U32(e.PFN)
		w.Bool(e.V)
		w.Bool(e.D)
		w.Bool(e.G)
		w.Bool(e.InUse)
	}
	w.Bool(s.LLBit)
	w.U32(s.LLAddr)
	w.U8(s.Random)
	w.U8(s.IP)
	w.Bool(s.Wait)
	w.Bool(s.Halted)
}

// EncodeInst serialises a decoded instruction.
func EncodeInst(w *ckpt.Writer, in *isa.Inst) {
	w.U8(uint8(in.Op))
	w.U8(in.Rs)
	w.U8(in.Rt)
	w.U8(in.Rd)
	w.U8(in.Shamt)
	w.I32(in.Imm)
	w.U32(in.Target)
	w.U32(in.Raw)
}

// DecodeInst deserialises an instruction written by EncodeInst.
func DecodeInst(r *ckpt.Reader) isa.Inst {
	return isa.Inst{
		Op:     isa.Op(r.U8()),
		Rs:     r.U8(),
		Rt:     r.U8(),
		Rd:     r.U8(),
		Shamt:  r.U8(),
		Imm:    r.I32(),
		Target: r.U32(),
		Raw:    r.U32(),
	}
}

// EncodeStepInfo serialises a StepInfo (needed by out-of-order cores whose
// in-flight window outlives a cycle boundary).
func EncodeStepInfo(w *ckpt.Writer, si *StepInfo) {
	w.U32(si.PC)
	w.U32(si.NextPC)
	w.U32(si.PhysPC)
	w.Bool(si.Fetched)
	EncodeInst(w, &si.Inst)
	w.U8(uint8(si.Mem))
	w.U32(si.MemVaddr)
	w.U32(si.MemPaddr)
	w.U8(si.MemSize)
	w.Bool(si.MemUncached)
	w.Bool(si.TookException)
	w.U8(si.ExcCode)
	w.Bool(si.Interrupt)
	w.Bool(si.NestedExc)
	w.I32(int32(si.TLBLookups))
	w.Bool(si.Branch)
	w.Bool(si.BranchTaken)
	w.Bool(si.CacheOp)
	w.U32(si.CacheVaddr)
	w.U32(si.CachePaddr)
	w.Bool(si.CacheMapped)
	w.Bool(si.SCFailed)
	w.Bool(si.KernelMode)
	w.Bool(si.Waiting)
	w.Bool(si.Halted)
}

// DecodeStepInfo deserialises a StepInfo written by EncodeStepInfo.
func DecodeStepInfo(r *ckpt.Reader) StepInfo {
	var si StepInfo
	si.PC = r.U32()
	si.NextPC = r.U32()
	si.PhysPC = r.U32()
	si.Fetched = r.Bool()
	si.Inst = DecodeInst(r)
	m := r.U8()
	if m > uint8(MemStore) {
		r.Corrupt("step info mem kind %d out of range", m)
		return si
	}
	si.Mem = MemKind(m)
	si.MemVaddr = r.U32()
	si.MemPaddr = r.U32()
	si.MemSize = r.U8()
	si.MemUncached = r.Bool()
	si.TookException = r.Bool()
	si.ExcCode = r.U8()
	si.Interrupt = r.Bool()
	si.NestedExc = r.Bool()
	si.TLBLookups = int(r.I32())
	si.Branch = r.Bool()
	si.BranchTaken = r.Bool()
	si.CacheOp = r.Bool()
	si.CacheVaddr = r.U32()
	si.CachePaddr = r.U32()
	si.CacheMapped = r.Bool()
	si.SCFailed = r.Bool()
	si.KernelMode = r.Bool()
	si.Waiting = r.Bool()
	si.Halted = r.Bool()
	return si
}

// DecodeSnapshot deserialises a snapshot written by EncodeSnapshot. On
// malformed input the reader is poisoned; callers check r.Err().
func DecodeSnapshot(r *ckpt.Reader) Snapshot {
	var s Snapshot
	for i := range s.GPR {
		s.GPR[i] = r.U32()
	}
	for i := range s.FPR {
		s.FPR[i] = r.U64()
	}
	s.FCC = r.Bool()
	s.PC = r.U32()
	for i := range s.COP0 {
		s.COP0[i] = r.U32()
	}
	for i := range s.TLB {
		e := &s.TLB[i]
		e.VPN = r.U32()
		e.ASID = r.U8()
		e.PFN = r.U32()
		e.V = r.Bool()
		e.D = r.Bool()
		e.G = r.Bool()
		e.InUse = r.Bool()
	}
	s.LLBit = r.Bool()
	s.LLAddr = r.U32()
	s.Random = r.U8()
	s.IP = r.U8()
	s.Wait = r.Bool()
	s.Halted = r.Bool()
	return s
}
