package machine

// Machine checkpoint/restore (DESIGN.md §13).
//
// Checkpoint captures everything needed to continue a run bit-identically:
// the functional CPU snapshot, RAM's dirty pages, the cache arrays, the
// collector's accumulation state, the disk (power state machine, in-flight
// request, written image pages), the machine's own device/attribution
// bookkeeping, and the timing core's internal state. Restore targets a
// FRESHLY BUILT machine for the same workload and configuration: the
// deterministic boot means the checkpoint's dirty-page sets are supersets
// of the fresh machine's, so copying them in place reconstructs the full
// memory and disk images without serialising gigabytes of zeroes.
//
// Core state is tagged with the core kind and restored only on a match.
// A mismatch is legal and loses nothing architectural: the new machine's
// core starts cold (empty pipeline, cold predictors), which is exactly the
// sampled-simulation contract — a fast-forward (swift) checkpoint resumed
// on a detailed core begins its measurement window with cold structures,
// and DESIGN.md §13 documents the resulting cold-start bias.

import (
	"fmt"
	"slices"

	"softwatt/internal/arch"
	"softwatt/internal/ckpt"
	"softwatt/internal/cpu/mipsy"
	"softwatt/internal/cpu/mxs"
	"softwatt/internal/cpu/swift"
	"softwatt/internal/trace"
)

// fingerprint identifies the machine configuration a checkpoint belongs
// to, excluding the core kind (cross-core restore is the point of sampled
// simulation) and the run-away bound (a run limit, not machine state).
func (m *Machine) fingerprint() string {
	cfg := m.cfg
	cfg.Core = 0
	cfg.MaxCycles = 0
	return fmt.Sprintf("%+v", cfg)
}

// Checkpoint serialises the machine's complete state. The payload is raw;
// the fast-forward reservoir (internal/ffstore) stores it as one entry.
func (m *Machine) Checkpoint() []byte {
	w := &ckpt.Writer{}
	// Payloads from one machine grow slowly and monotonically (dirty pages,
	// flushed sample windows); sizing by the previous one turns the append
	// chain into a single allocation for every checkpoint after the first.
	w.Reserve(m.lastCkptLen + m.lastCkptLen/8 + 1<<16)
	w.Str(m.fingerprint())

	w.U64(m.cycle)
	w.Bool(m.halted)
	w.U32(m.exitCode)
	w.U64(m.skipped)
	w.U64(m.Committed)

	w.Blob(m.console.Bytes())
	w.U32(uint32(len(m.intValues)))
	for _, v := range m.intValues {
		w.U32(v)
	}

	w.U32(m.curPid)
	// Stacks go out in pid order: map order would make two checkpoints of
	// one state differ in bytes.
	pids := make([]uint32, 0, len(m.svcStacks))
	for pid := range m.svcStacks {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	w.U32(uint32(len(pids)))
	for _, pid := range pids {
		stk := m.svcStacks[pid]
		w.U32(pid)
		w.U32(uint32(len(stk.s)))
		for _, s := range stk.s {
			w.U8(uint8(s))
		}
	}

	w.U32(m.dcSector)
	w.U32(m.dcCount)
	w.U32(m.dcDMA)
	w.U64(m.timerNext)
	for _, f := range m.Faults {
		w.U64(f)
	}

	snap := m.cpu.Snapshot()
	arch.EncodeSnapshot(w, &snap)
	m.ram.EncodeState(w)
	m.hier.EncodeState(w)
	// The collector drains the core's batched unit counts before freezing,
	// so it must encode BEFORE the core: the counts land here, and the
	// core's pending buffer serialises empty.
	m.col.EncodeState(w)
	m.dsk.EncodeState(w)

	w.Str(m.cfg.Core.String())
	cw := &ckpt.Writer{}
	switch c := m.core.(type) {
	case *mipsy.Core:
		c.EncodeState(cw)
	case *mxs.Core:
		c.EncodeState(cw)
	case *swift.Core:
		c.EncodeState(cw)
	}
	w.Blob(cw.Bytes())
	m.lastCkptLen = w.Len()
	return w.Bytes()
}

// RestoreState restores a checkpoint into this machine, which must be
// freshly built (New, no cycles run) or Recycled, for the same workload
// and configuration. The core kind may differ from the checkpoint's: the
// core then starts cold, as sampled simulation requires.
func (m *Machine) RestoreState(data []byte) error {
	if m.customCore {
		return fmt.Errorf("machine: cannot restore into a custom-core machine")
	}
	r := ckpt.NewReader(data)
	if fp := r.Str(); r.Err() == nil && fp != m.fingerprint() {
		return fmt.Errorf("machine: checkpoint fingerprint %q does not match machine %q", fp, m.fingerprint())
	}

	m.cycle = r.U64()
	m.halted = r.Bool()
	m.exitCode = r.U32()
	m.skipped = r.U64()
	m.Committed = r.U64()

	m.console.Reset()
	m.console.Write(r.Blob())
	nInts := r.Count(4)
	m.intValues = m.intValues[:0]
	for i := 0; i < nInts; i++ {
		m.intValues = append(m.intValues, r.U32())
	}

	m.curPid = r.U32()
	nStacks := r.Count(8) // pid + count
	m.svcStacks = make(map[uint32]*svcStack, nStacks)
	for i := 0; i < nStacks; i++ {
		pid := r.U32()
		stk := &svcStack{}
		nSvc := r.Count(1)
		for j := 0; j < nSvc; j++ {
			s := r.U8()
			if s >= uint8(trace.NumSvc) {
				r.Corrupt("service %d out of range", s)
				return r.Err()
			}
			stk.s = append(stk.s, trace.Svc(s))
		}
		m.svcStacks[pid] = stk
	}
	stk, ok := m.svcStacks[m.curPid]
	if !ok {
		stk = &svcStack{}
		m.svcStacks[m.curPid] = stk
	}
	m.curStk = stk

	m.dcSector = r.U32()
	m.dcCount = r.U32()
	m.dcDMA = r.U32()
	m.timerNext = r.U64()
	for i := range m.Faults {
		m.Faults[i] = r.U64()
	}

	snap := arch.DecodeSnapshot(r)
	if err := r.Err(); err != nil {
		return err
	}
	m.cpu.Restore(snap)
	m.ram.DecodeState(r, "RAM")
	m.hier.DecodeState(r)
	m.col.DecodeState(r)
	m.dsk.DecodeState(r)
	if err := r.Err(); err != nil {
		return err
	}

	// Rebuild the core over the restored CPU: construction-time state
	// (MXS fetch PC, collector drain, swift memory binding) must see the
	// restored machine, whether or not the state blob applies.
	if err := m.newCore(); err != nil {
		return err
	}
	kind := r.Str()
	blob := r.Blob()
	if err := r.Err(); err != nil {
		return err
	}
	if kind == m.cfg.Core.String() {
		cr := ckpt.NewReader(blob)
		switch c := m.core.(type) {
		case *mipsy.Core:
			c.DecodeState(cr)
		case *mxs.Core:
			c.DecodeState(cr)
		case *swift.Core:
			c.DecodeState(cr)
		}
		if err := cr.Err(); err != nil {
			return err
		}
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("machine: %d trailing bytes after checkpoint", r.Remaining())
	}

	// Telemetry and energy-profiler state are observational and not part
	// of the checkpoint (DESIGN.md §15): a restored run publishes from the
	// restore point onward.
	m.rebaseObs()
	return r.Err()
}
