package mipsy

// Checkpoint support (DESIGN.md §13). The in-order core's whole timing
// state is the remaining stall count and the committed-instruction total;
// scratch only lives within a single step and is never meaningful at a
// cycle boundary, and cpu/h/col/sync are wiring bound at construction.

import "softwatt/internal/ckpt"

// EncodeState serialises the core's timing state.
func (c *Core) EncodeState(w *ckpt.Writer) {
	w.I32(int32(c.busy))
	w.U64(c.Committed)
}

// DecodeState restores state written by EncodeState.
func (c *Core) DecodeState(r *ckpt.Reader) {
	busy := r.I32()
	if busy < 0 {
		r.Corrupt("mipsy busy %d negative", busy)
		return
	}
	c.busy = int(busy)
	c.Committed = r.U64()
}
