package arch

// Fast-forward support: the minimal set of exported hooks the swift
// functional core (internal/cpu/swift) needs to execute superblocks of
// instructions without going through StepInto, while remaining
// architecturally exact. Everything here either reads state without side
// effects or reproduces, bit for bit, a state transition StepInto performs
// (the TLBWR replacement-pointer decay). The blocks and host translation
// caches swift executes through are StepInto's own (blocks.go), so
// alternating fast and slow execution keeps one coherent state.

// PendingInterrupt reports whether an enabled external interrupt is
// pending. A fast-forward executor must check this at every point StepInto
// would: interrupt state only changes via SetIRQ or privileged instructions,
// both of which happen outside superblock execution.
func (c *CPU) PendingInterrupt() bool { return c.pendingInterrupt() }

// Waiting reports whether the CPU is stopped in WAIT. A waiting CPU burns
// cycles without fetching until an enabled interrupt arrives.
func (c *CPU) Waiting() bool { return c.waiting }

// DecayRandom advances the TLBWR replacement pointer by n instructions'
// worth of decay in O(1), reproducing exactly what n StepInto calls do:
// random walks down from NumTLB-1 to tlbWired+1, then wraps from tlbWired
// back to NumTLB-1 (period NumTLB-tlbWired). Values stay in
// [tlbWired, NumTLB-1] given the reset value NumTLB-1.
func (c *CPU) DecayRandom(n int) {
	const span = NumTLB - tlbWired
	r := int(c.random) - tlbWired - n%span
	if r < 0 {
		r += span
	}
	c.random = uint8(tlbWired + r)
}

// Snapshot is a comparable copy of the complete architectural state, for
// lockstep equivalence harnesses. FPR values are raw bits so NaN patterns
// compare equal; the host-only code cache is excluded by design — it must
// never influence architected state.
type Snapshot struct {
	GPR    [32]uint32
	FPR    [32]uint64
	FCC    bool
	PC     uint32
	COP0   [32]uint32
	TLB    [NumTLB]TLBEntry
	LLBit  bool
	LLAddr uint32
	Random uint8
	IP     uint8
	Wait   bool
	Halted bool
}

// Snapshot captures the CPU's architectural state.
func (c *CPU) Snapshot() Snapshot {
	s := Snapshot{
		GPR:    c.GPR,
		FCC:    c.FCC,
		PC:     c.PC,
		COP0:   c.COP0,
		TLB:    c.TLB,
		LLBit:  c.llBit,
		LLAddr: c.llAddr,
		Random: c.random,
		IP:     c.IP,
		Wait:   c.waiting,
		Halted: c.Halted,
	}
	for i, f := range c.FPR {
		s.FPR[i] = f64bits(f)
	}
	return s
}
