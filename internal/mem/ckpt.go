package mem

// Checkpoint support (DESIGN.md §13).
//
// A RAM store (physical memory or the disk image) rides on its dirty-page
// bitmap: pages start zero and every write path marks the pages it
// touches, so the dirty set is a superset of every byte that can differ
// from zero. A checkpoint therefore stores only the dirty pages; restoring
// them onto a freshly built machine (whose own boot writes marked a subset
// of the same pages, the boot being deterministic) reproduces the full
// byte image. Restore copies page contents IN PLACE — the swift core and
// the disk DMA path cache the Bytes() slice, so the backing array must
// never be reallocated.
//
// Caches serialise their full tag/LRU/counter state: tags decide future
// hits and misses, which feed both timing and the power model's structure
// access counts, so byte-identical continuation requires the exact array.

import "softwatt/internal/ckpt"

// EncodeState serialises the store's dirty pages: the store size, the page
// count, then each page as its index and raw contents (the last page of a
// store whose size is not a page multiple is short).
func (r *RAM) EncodeState(w *ckpt.Writer) {
	w.U64(uint64(len(r.data)))
	var pages uint32
	for _, word := range r.dirty {
		for ; word != 0; word &= word - 1 {
			pages++
		}
	}
	w.U32(pages)
	for wi, word := range r.dirty {
		for b := 0; b < 64; b++ {
			if word&(1<<b) == 0 {
				continue
			}
			off := (wi*64 + b) << ramPageShift
			w.U32(uint32(wi*64 + b))
			w.Raw(r.data[off:min(off+ramPageSize, len(r.data))])
		}
	}
}

// DecodeState restores dirty-page contents written by EncodeState into the
// existing backing store, marking each restored page dirty. The store must
// have the encoded size. Every error names the store ("RAM", "disk image")
// so a corrupt checkpoint says which of its page sets is bad.
func (r *RAM) DecodeState(rd *ckpt.Reader, store string) {
	if size := rd.U64(); rd.Err() == nil && size != uint64(len(r.data)) {
		rd.Corrupt("%s size %d does not match machine's %d", store, size, len(r.data))
		return
	}
	pages := rd.U32()
	maxPage := (len(r.data) + ramPageSize - 1) >> ramPageShift
	switch {
	case rd.Err() != nil:
		return
	case uint64(pages) > uint64(maxPage):
		rd.Corrupt("%s page count %d exceeds its %d pages", store, pages, maxPage)
		return
	case uint64(pages) > uint64(rd.Remaining()/(4+ramPageSize))+1:
		// Every page but a short last one takes 4+ramPageSize bytes.
		rd.Corrupt("%s truncated: %d pages do not fit in %d bytes", store, pages, rd.Remaining())
		return
	}
	for i := 0; i < int(pages); i++ {
		if rd.Remaining() < 4 {
			rd.Corrupt("%s truncated at page %d of %d", store, i, pages)
			return
		}
		p := rd.U32()
		if uint64(p) >= uint64(maxPage) {
			rd.Corrupt("%s page %d out of range (max %d)", store, p, maxPage)
			return
		}
		off := int(p) << ramPageShift
		end := min(off+ramPageSize, len(r.data))
		if rd.Remaining() < end-off {
			rd.Corrupt("%s truncated at page %d of %d", store, i, pages)
			return
		}
		copy(r.data[off:end], rd.Raw(end-off))
		r.dirty[p>>6] |= 1 << (p & 63)
	}
}

// EncodeState serialises the cache's complete line array and counters.
func (c *Cache) EncodeState(w *ckpt.Writer) {
	w.U32(uint32(len(c.lines)))
	for i := range c.lines {
		l := &c.lines[i]
		w.U32(l.tag)
		w.Bool(l.valid)
		w.Bool(l.dirty)
		w.U64(l.lru)
	}
	w.U64(c.tick)
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.Writebacks)
}

// DecodeState restores state written by EncodeState. The cache geometry
// must match the encoded one.
func (c *Cache) DecodeState(r *ckpt.Reader) {
	if n := r.U32(); n != uint32(len(c.lines)) {
		r.Corrupt("cache %s: %d encoded lines, geometry has %d", c.cfg.Name, n, len(c.lines))
		return
	}
	for i := range c.lines {
		l := &c.lines[i]
		l.tag = r.U32()
		l.valid = r.Bool()
		l.dirty = r.Bool()
		l.lru = r.U64()
	}
	c.tick = r.U64()
	c.Hits = r.U64()
	c.Misses = r.U64()
	c.Writebacks = r.U64()
}

// EncodeState serialises all three cache arrays.
func (h *Hierarchy) EncodeState(w *ckpt.Writer) {
	h.L1I.EncodeState(w)
	h.L1D.EncodeState(w)
	h.L2.EncodeState(w)
}

// DecodeState restores all three cache arrays.
func (h *Hierarchy) DecodeState(r *ckpt.Reader) {
	h.L1I.DecodeState(r)
	h.L1D.DecodeState(r)
	h.L2.DecodeState(r)
}
