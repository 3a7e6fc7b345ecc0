package trace

// Checkpoint support (DESIGN.md §13): serialisation of the collector's
// complete accumulation state, and the CKPT file container.
//
// The collector must round-trip everything that influences future output —
// the current attribution context, the open sample window, all flushed
// windows, the per-service aggregates (including open invocation
// accumulators and Welford energy state), totals, and the flush bound.
// The two callbacks are wiring, not state: drain is registered by the
// timing model at construction and energyFn by the estimator facade, both
// on whatever machine the collector now belongs to.
//
// A checkpoint file is a ckpt container holding one CKPT section.

import (
	"softwatt/internal/ckpt"
	"softwatt/internal/stats"
)

// TagCkpt is the container section carrying a machine checkpoint.
var TagCkpt = [4]byte{'C', 'K', 'P', 'T'}

// Encoded sizes of one bucket and one sample window: the minimum bytes a
// counted record occupies, for validating counts before allocation.
const (
	BucketBytes = int(NumUnits)*8 + 16
	SampleBytes = 16 + int(NumModes)*BucketBytes
)

// The bucket, sample and Welford encoders below are shared by the
// collector checkpoint and the run log (internal/core).

// EncodeBucket writes b's unit counters, cycles and instructions.
func EncodeBucket(w *ckpt.Writer, b *Bucket) {
	for _, u := range b.Units {
		w.U64(u)
	}
	w.U64(b.Cycles)
	w.U64(b.Insts)
}

// DecodeBucket reads a bucket written by EncodeBucket.
func DecodeBucket(r *ckpt.Reader, b *Bucket) {
	for i := range b.Units {
		b.Units[i] = r.U64()
	}
	b.Cycles = r.U64()
	b.Insts = r.U64()
}

// EncodeSample writes a sample window's range and per-mode buckets.
func EncodeSample(w *ckpt.Writer, s *Sample) {
	w.U64(s.Start)
	w.U64(s.End)
	for m := range s.Mode {
		EncodeBucket(w, &s.Mode[m])
	}
}

// DecodeSample reads a sample window written by EncodeSample.
func DecodeSample(r *ckpt.Reader, s *Sample) {
	s.Start = r.U64()
	s.End = r.U64()
	for m := range s.Mode {
		DecodeBucket(r, &s.Mode[m])
	}
}

// EncodeWelford writes a Welford aggregate's complete state.
func EncodeWelford(w *ckpt.Writer, st stats.WelfordState) {
	w.U64(st.N)
	w.F64(st.Mean)
	w.F64(st.M2)
	w.F64(st.Min)
	w.F64(st.Max)
}

// DecodeWelford reads a Welford state written by EncodeWelford.
func DecodeWelford(r *ckpt.Reader) stats.WelfordState {
	return stats.WelfordState{
		N: r.U64(), Mean: r.F64(), M2: r.F64(), Min: r.F64(), Max: r.F64(),
	}
}

// EncodeState serialises the collector's complete accumulation state.
func (c *Collector) EncodeState(w *ckpt.Writer) {
	c.drainPending() // batched units must land before the state is frozen
	if c.ep != nil {
		// Profiler state is not checkpointed (DESIGN.md §15); charging the
		// pending batch now keeps the live sink's totals conserving.
		c.epFlush()
	}
	w.U64(c.WindowCycles)
	w.U8(uint8(c.mode))
	w.U8(uint8(c.svc))
	EncodeSample(w, &c.cur)
	w.U32(uint32(len(c.samples)))
	for i := range c.samples {
		EncodeSample(w, &c.samples[i])
	}
	for i := range c.services {
		st := &c.services[i]
		w.U64(st.Invocations)
		EncodeBucket(w, &st.Total)
		EncodeWelford(w, st.EnergyPerInv.State())
	}
	for i := range c.invAcc {
		EncodeBucket(w, &c.invAcc[i])
	}
	w.U64(c.totalCycles)
	w.U64(c.totalInsts)
	w.U64(c.nextFlush)
}

// DecodeState restores state written by EncodeState. The collector's
// window size must match the encoded one (it is part of the machine
// configuration). Callbacks (drain, energyFn) are left untouched.
func (c *Collector) DecodeState(r *ckpt.Reader) {
	if wc := r.U64(); wc != c.WindowCycles {
		r.Corrupt("collector window %d does not match machine's %d", wc, c.WindowCycles)
		return
	}
	mode := r.U8()
	if mode >= uint8(NumModes) {
		r.Corrupt("collector mode %d out of range", mode)
		return
	}
	c.mode = Mode(mode)
	if c.ep == nil {
		c.acc = &c.cur.Mode[c.mode]
	}
	svc := r.U8()
	if svc >= uint8(NumSvc) {
		r.Corrupt("collector svc %d out of range", svc)
		return
	}
	c.svc = Svc(svc)
	DecodeSample(r, &c.cur)
	n := r.Count(SampleBytes)
	c.samples = make([]Sample, n)
	for i := range c.samples {
		DecodeSample(r, &c.samples[i])
	}
	for i := range c.services {
		st := &c.services[i]
		st.Invocations = r.U64()
		DecodeBucket(r, &st.Total)
		st.EnergyPerInv = stats.WelfordFromState(DecodeWelford(r))
	}
	for i := range c.invAcc {
		DecodeBucket(r, &c.invAcc[i])
	}
	c.totalCycles = r.U64()
	c.totalInsts = r.U64()
	c.nextFlush = r.U64()
}
