package swift

// Checkpoint support (DESIGN.md §13). Everything the fast-forward core
// executes through — superblocks, page generations, host translation
// tables — is the functional CPU's code cache, a derived cache over RAM
// rebuilt lazily and correct by construction, so only the retirement
// counter and the cache statistics serialise.

import (
	"softwatt/internal/arch"
	"softwatt/internal/ckpt"
)

// EncodeState serialises the core's counters.
func (c *Core) EncodeState(w *ckpt.Writer) {
	st := c.cpu.BlockStats()
	w.U64(c.committed)
	w.U64(st.Hits)
	w.U64(st.Misses)
	w.U64(st.Invalidations)
	w.U64(st.SlowSteps)
}

// DecodeState restores counters written by EncodeState.
func (c *Core) DecodeState(r *ckpt.Reader) {
	c.committed = r.U64()
	var st arch.BlockStats
	st.Hits = r.U64()
	st.Misses = r.U64()
	st.Invalidations = r.U64()
	st.SlowSteps = r.U64()
	c.cpu.SetBlockStats(st)
}
