package mxs

// Checkpoint support (DESIGN.md §13). The out-of-order core's restorable
// state is everything cycle-to-cycle persistent: the ROB (with each entry's
// full dependence and speculation bookkeeping), fetch state, the rename
// map and sequence counters, the event-driven scheduler structures, the
// branch predictor tables, unpipelined-unit reservations, statistics, and
// the batched unit counts. The scheduler heaps are serialised verbatim —
// storing the backing array preserves the heap invariant exactly, so the
// restored core pops events in the identical order. Wiring (cpu, h, col,
// sync, bus, config, index masks) is reconstructed by New and never serialised;
// scratch only lives inside a single cycle.

import (
	"softwatt/internal/arch"
	"softwatt/internal/ckpt"
	"softwatt/internal/isa"
)

func encodeRobEnt(w *ckpt.Writer, e *robEnt) {
	w.Bool(e.real)
	arch.EncodeStepInfo(w, &e.info)
	arch.EncodeInst(w, &e.inst)
	w.U32(e.pc)
	w.U8(uint8(e.state))
	w.U64(e.seq)
	w.U64(e.uid)
	w.U64(e.issueAt)
	w.U64(e.doneAt)
	w.U32(e.predNext)
	w.Bool(e.isMem)
	w.Bool(e.isStore)
	w.Bool(e.serial)
	w.Bool(e.redirected)
	w.U8(uint8(e.pendSrc))
	w.U8(uint8(e.class))
	w.U8(e.lat)
	for _, u := range e.uses {
		w.U8(u)
	}
	for _, s := range e.srcSeq {
		w.U64(s)
	}
	w.I32(int32(e.nUses))
	w.I32(int32(e.nDefs))
	for _, d := range e.defs {
		w.U8(d)
	}
	for _, p := range e.prevProd {
		w.U64(p)
	}
}

func decodeRobEnt(r *ckpt.Reader, e *robEnt) {
	e.real = r.Bool()
	e.info = arch.DecodeStepInfo(r)
	e.inst = arch.DecodeInst(r)
	e.pc = r.U32()
	st := r.U8()
	if st > uint8(stDone) {
		r.Corrupt("rob entry state %d out of range", st)
		return
	}
	e.state = entState(st)
	e.seq = r.U64()
	e.uid = r.U64()
	e.issueAt = r.U64()
	e.doneAt = r.U64()
	e.predNext = r.U32()
	e.isMem = r.Bool()
	e.isStore = r.Bool()
	e.serial = r.Bool()
	e.redirected = r.Bool()
	e.pendSrc = int8(r.U8())
	cl := r.U8()
	if cl > uint8(isa.ClassCache) {
		r.Corrupt("rob entry class %d out of range", cl)
		return
	}
	e.class = isa.Class(cl)
	e.lat = r.U8()
	for i := range e.uses {
		e.uses[i] = r.U8()
	}
	for i := range e.srcSeq {
		e.srcSeq[i] = r.U64()
	}
	e.nUses = int8(r.I32())
	e.nDefs = int8(r.I32())
	for i := range e.defs {
		e.defs[i] = r.U8()
	}
	for i := range e.prevProd {
		e.prevProd[i] = r.U64()
	}
}

func encodeHeap(w *ckpt.Writer, q *eventHeap) {
	w.U32(uint32(len(q.h)))
	for _, ev := range q.h {
		w.U64(ev.at)
		w.U64(ev.uid)
		w.I32(ev.slot)
	}
}

func (c *Core) decodeHeap(r *ckpt.Reader, q *eventHeap) {
	n := r.Count(20) // at + uid + slot
	q.h = q.h[:0]
	for i := 0; i < n; i++ {
		ev := schedEvent{at: r.U64(), uid: r.U64(), slot: r.I32()}
		if ev.slot < 0 || int(ev.slot) >= c.cfg.WindowSize {
			r.Corrupt("scheduler event slot %d out of range", ev.slot)
			return
		}
		q.h = append(q.h, ev)
	}
}

// EncodeState serialises the core's complete timing state.
func (c *Core) EncodeState(w *ckpt.Writer) {
	w.U32(uint32(len(c.rob)))
	for i := range c.rob {
		encodeRobEnt(w, &c.rob[i])
	}
	w.I32(int32(c.head))
	w.I32(int32(c.count))

	w.U32(c.fetchPC)
	w.Bool(c.wrongPath)
	w.Bool(c.fetchStalled)
	w.U64(c.fetchResumeAt)
	w.Bool(c.sleep)
	w.Bool(c.halted)

	w.I32(int32(c.lsqCount))
	w.I32(int32(c.realStores))
	w.I32(int32(c.serialInFlight))

	for _, p := range c.regProducer {
		w.U64(p)
	}
	w.U64(c.nextSeq)
	w.U64(c.headSeq)
	w.U64(c.nextUID)

	w.U32(uint32(len(c.ready.w)))
	for _, word := range c.ready.w {
		w.U64(word)
	}
	encodeHeap(w, &c.compQ)
	encodeHeap(w, &c.issueQ)
	for i := range c.wake {
		l := &c.wake[i]
		w.U32(uint32(int(l.n) + len(l.over)))
		for j := int32(0); j < l.n; j++ {
			w.U64(l.a[j].uid)
			w.I32(l.a[j].slot)
		}
		for _, ref := range l.over {
			w.U64(ref.uid)
			w.I32(ref.slot)
		}
	}
	w.U32(uint32(len(c.serialSlots)))
	for _, s := range c.serialSlots {
		w.I32(s)
	}

	w.U32(uint32(len(c.bht)))
	w.Raw(c.bht)
	w.U32(uint32(len(c.btb)))
	for _, b := range c.btb {
		w.U32(b.tag)
		w.U32(b.target)
	}
	w.U32(uint32(len(c.ras)))
	for _, v := range c.ras {
		w.U32(v)
	}
	w.I32(int32(c.rasTop))

	w.U64(c.divBusyUntil)
	w.U64(c.fpDivBusyUntil)

	w.U64(c.Committed)
	w.U64(c.Bogus)
	w.U64(c.Mispredicts)
	w.U64(c.Flushes)

	for _, u := range c.pend {
		w.U64(u)
	}
	w.Bool(c.pendDirty)
}

// DecodeState restores state written by EncodeState into a core built with
// the same configuration. Structure sizes are validated against the core's
// own (configuration-derived) sizes; mismatches poison the reader.
func (c *Core) DecodeState(r *ckpt.Reader) {
	if n := r.U32(); n != uint32(len(c.rob)) {
		r.Corrupt("mxs window %d does not match machine's %d", n, len(c.rob))
		return
	}
	for i := range c.rob {
		decodeRobEnt(r, &c.rob[i])
		if r.Err() != nil {
			return
		}
	}
	head := r.I32()
	if head < 0 || int(head) >= c.cfg.WindowSize {
		r.Corrupt("mxs head %d out of range", head)
		return
	}
	c.head = int(head)
	count := r.I32()
	if count < 0 || int(count) > c.cfg.WindowSize {
		r.Corrupt("mxs count %d out of range", count)
		return
	}
	c.count = int(count)

	c.fetchPC = r.U32()
	c.wrongPath = r.Bool()
	c.fetchStalled = r.Bool()
	c.fetchResumeAt = r.U64()
	c.sleep = r.Bool()
	c.halted = r.Bool()

	c.lsqCount = int(r.I32())
	c.realStores = int(r.I32())
	c.serialInFlight = int(r.I32())

	for i := range c.regProducer {
		c.regProducer[i] = r.U64()
	}
	c.nextSeq = r.U64()
	c.headSeq = r.U64()
	c.nextUID = r.U64()

	if n := r.U32(); n != uint32(len(c.ready.w)) {
		r.Corrupt("mxs ready bitset %d words, want %d", n, len(c.ready.w))
		return
	}
	for i := range c.ready.w {
		c.ready.w[i] = r.U64()
	}
	// The store-forwarding bitset is derived state: rebuild it from the live
	// window entries instead of serializing it (keeps the format stable).
	c.stores.reset()
	for i := 0; i < c.count; i++ {
		slot := c.head + i
		if slot >= c.cfg.WindowSize {
			slot -= c.cfg.WindowSize
		}
		if e := &c.rob[slot]; e.isStore && e.real {
			c.stores.set(slot)
		}
	}
	c.decodeHeap(r, &c.compQ)
	c.decodeHeap(r, &c.issueQ)
	if r.Err() != nil {
		return
	}
	for i := range c.wake {
		n := r.Count(12) // uid + slot
		c.wake[i].reset()
		for j := 0; j < n; j++ {
			ref := wakeRef{uid: r.U64(), slot: r.I32()}
			if ref.slot < 0 || int(ref.slot) >= c.cfg.WindowSize {
				r.Corrupt("wake ref slot %d out of range", ref.slot)
				return
			}
			c.wake[i].add(ref)
		}
	}
	ns := r.Count(4)
	c.serialSlots = c.serialSlots[:0]
	for i := 0; i < ns; i++ {
		s := r.I32()
		if s < 0 || int(s) >= c.cfg.WindowSize {
			r.Corrupt("serial slot %d out of range", s)
			return
		}
		c.serialSlots = append(c.serialSlots, s)
	}

	if n := r.U32(); n != uint32(len(c.bht)) {
		r.Corrupt("bht size %d does not match machine's %d", n, len(c.bht))
		return
	}
	if b := r.Raw(len(c.bht)); b != nil {
		copy(c.bht, b)
	}
	if n := r.U32(); n != uint32(len(c.btb)) {
		r.Corrupt("btb size %d does not match machine's %d", n, len(c.btb))
		return
	}
	for i := range c.btb {
		c.btb[i].tag = r.U32()
		c.btb[i].target = r.U32()
	}
	if n := r.U32(); n != uint32(len(c.ras)) {
		r.Corrupt("ras size %d does not match machine's %d", n, len(c.ras))
		return
	}
	for i := range c.ras {
		c.ras[i] = r.U32()
	}
	c.rasTop = int(r.I32())

	c.divBusyUntil = r.U64()
	c.fpDivBusyUntil = r.U64()

	c.Committed = r.U64()
	c.Bogus = r.U64()
	c.Mispredicts = r.U64()
	c.Flushes = r.U64()

	for i := range c.pend {
		c.pend[i] = r.U64()
	}
	c.pendDirty = r.Bool()
}
