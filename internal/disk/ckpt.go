package disk

// Checkpoint support (DESIGN.md §13). The disk's restorable state is the
// power-mode state machine (current mode, integrated energy, scheduled
// phase queue), the in-flight request and controller flags, the activity
// statistics, and the written pages of the image. The image is a mem.RAM,
// so its pages go through RAM's own codec: the dirty bitmap is a superset
// of every byte that can differ from zero, and restore copies page
// contents in place because the machine's DMA path aliases Image().
// The onComplete callback is wiring, not state: it stays bound to whatever
// machine owns the disk.

import "softwatt/internal/ckpt"

// Encode writes the statistics as the block every saved artifact carries
// (the run log's DISK section, the FFRS reservoir and the SRES sampled
// result): the five activity counters, then the state count and the
// per-state cycle counts.
func (s *Stats) Encode(w *ckpt.Writer) {
	w.U64(s.Reads)
	w.U64(s.Writes)
	w.U64(s.BytesMoved)
	w.U64(s.Spinups)
	w.U64(s.Spindowns)
	w.U32(uint32(len(s.StateCycles)))
	for _, c := range s.StateCycles {
		w.U64(c)
	}
}

// Decode reads a block written by Encode. The recorded state count must
// equal NumStates: a block from a binary with another disk-mode set is
// corrupt, never truncated or padded to fit.
func (s *Stats) Decode(r *ckpt.Reader) {
	s.Reads = r.U64()
	s.Writes = r.U64()
	s.BytesMoved = r.U64()
	s.Spinups = r.U64()
	s.Spindowns = r.U64()
	if n := r.U32(); r.Err() == nil && n != uint32(numStates) {
		r.Corrupt("%d disk state counters, want %d", n, NumStates)
	}
	for i := range s.StateCycles {
		s.StateCycles[i] = r.U64()
	}
}

// EncodeState serialises the disk's complete mutable state.
func (d *Disk) EncodeState(w *ckpt.Writer) {
	w.U8(uint8(d.state))
	w.U64(d.stateSince)
	w.F64(d.energyJ)

	w.U32(uint32(len(d.phases)))
	for _, ph := range d.phases {
		w.U64(ph.end)
		w.U8(uint8(ph.st))
		w.Bool(ph.fire)
	}

	w.Bool(d.pending != nil)
	if d.pending != nil {
		w.Bool(d.pending.Write)
		w.U32(d.pending.Sector)
		w.U32(d.pending.Count)
		w.U32(d.pending.DMAAddr)
	}
	w.Bool(d.busy)
	w.Bool(d.irqPending)
	w.U32(d.lastCyl)
	w.U64(d.idleSince)

	w.U64(d.stats.Reads)
	w.U64(d.stats.Writes)
	w.U64(d.stats.BytesMoved)
	w.U64(d.stats.Spinups)
	w.U64(d.stats.Spindowns)
	for _, c := range d.stats.StateCycles {
		w.U64(c)
	}

	w.U32(uint32(len(d.SubmitCycles)))
	for _, c := range d.SubmitCycles {
		w.U64(c)
	}

	d.img.EncodeState(w)
}

// DecodeState restores state written by EncodeState into this disk. The
// image capacity must match the encoded one; page contents are copied into
// the existing backing array.
func (d *Disk) DecodeState(r *ckpt.Reader) {
	st := r.U8()
	if st >= uint8(numStates) {
		r.Corrupt("disk state %d out of range", st)
		return
	}
	d.state = State(st)
	d.stateSince = r.U64()
	d.energyJ = r.F64()

	n := r.Count(10) // each phase is 10 encoded bytes
	d.phases = make([]phase, 0, n)
	for i := 0; i < n; i++ {
		ph := phase{end: r.U64()}
		pst := r.U8()
		if pst >= uint8(numStates) {
			r.Corrupt("disk phase state %d out of range", pst)
			return
		}
		ph.st = State(pst)
		ph.fire = r.Bool()
		d.phases = append(d.phases, ph)
	}

	d.pending = nil
	if r.Bool() {
		req := Request{
			Write:   r.Bool(),
			Sector:  r.U32(),
			Count:   r.U32(),
			DMAAddr: r.U32(),
		}
		d.pending = &req
	}
	d.busy = r.Bool()
	d.irqPending = r.Bool()
	d.lastCyl = r.U32()
	d.idleSince = r.U64()

	d.stats.Reads = r.U64()
	d.stats.Writes = r.U64()
	d.stats.BytesMoved = r.U64()
	d.stats.Spinups = r.U64()
	d.stats.Spindowns = r.U64()
	for i := range d.stats.StateCycles {
		d.stats.StateCycles[i] = r.U64()
	}

	sc := r.Count(8)
	d.SubmitCycles = make([]uint64, 0, sc)
	for i := 0; i < sc; i++ {
		d.SubmitCycles = append(d.SubmitCycles, r.U64())
	}

	d.img.DecodeState(r, "disk image")
}
