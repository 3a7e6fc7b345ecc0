package mem

import (
	"encoding/binary"
	"runtime"
	"sync"
)

// Dirty-page tracking granularity. Every path that writes a store marks
// the touched 4 KB pages; a released buffer is recycled by re-zeroing only
// the dirty pages, which is far cheaper than clearing (or faulting in) a
// fresh 128 MB allocation per simulation in batch sweeps, and a checkpoint
// carries only the dirty pages.
const (
	ramPageShift = 12
	ramPageSize  = 1 << ramPageShift
)

// RAM is a pooled, zero-initialised, page-tracked byte store. The machine's
// flat little-endian physical memory is one (it implements the data side
// of arch.Bus; the machine wraps it with MMIO dispatch for device
// addresses), and the disk's image is another: both are recycled through
// one pool, scrubbed back to zero through one dirty bitmap and
// checkpointed as the pages that differ from boot by one codec.
//
// The store is an anonymous private mapping outside the Go heap where the
// platform has one (ram_mmap.go): a guest touches a few MB of its 128 MB,
// and a heap store would count all of it as live heap, pacing the
// collector so that it almost never runs. The mapping is unmapped when
// Release finds the pool full, or by a finalizer when the RAM is dropped
// unreleased; no slice of it may outlive the RAM.
type RAM struct {
	data []byte
	// mapped reports that data is a mapping this RAM must unmap.
	mapped bool
	// dirty has one bit per 4 KB page, set by every write path (Write,
	// MarkDirtyPage, and LoadSegment, DMA and disk writes via MarkDirty).
	// Used to scrub recycled buffers and to select checkpoint pages;
	// never consulted on reads.
	dirty []uint64
}

// ramPool recycles released RAM buffers by backing-store size. Capped per
// size so a wide parallel sweep does not pin an unbounded amount of memory.
var ramPool struct {
	sync.Mutex
	free map[int][]*RAM
}

const ramPoolCap = 16

// NewRAM returns a zeroed store of size bytes, recycling a released
// buffer of the same size when one is available.
func NewRAM(size int) *RAM {
	ramPool.Lock()
	if l := ramPool.free[size]; len(l) > 0 {
		r := l[len(l)-1]
		l[len(l)-1] = nil
		ramPool.free[size] = l[:len(l)-1]
		ramPool.Unlock()
		r.Scrub()
		return r
	}
	ramPool.Unlock()
	pages := (size + ramPageSize - 1) >> ramPageShift
	r := &RAM{dirty: make([]uint64, (pages+63)/64)}
	if r.data = mapStore(size); r.data != nil {
		r.mapped = true
		runtime.SetFinalizer(r, (*RAM).unmap)
	} else {
		r.data = make([]byte, size)
	}
	return r
}

// Release returns the buffer to the recycling pool, or unmaps it when the
// pool for its size is full. The RAM (and anything holding its Bytes) must
// not be used afterwards.
func (r *RAM) Release() {
	ramPool.Lock()
	if ramPool.free == nil {
		ramPool.free = make(map[int][]*RAM)
	}
	if len(ramPool.free[len(r.data)]) < ramPoolCap {
		ramPool.free[len(r.data)] = append(ramPool.free[len(r.data)], r)
		ramPool.Unlock()
		return
	}
	ramPool.Unlock()
	r.unmap()
}

// unmap returns a mapped store to the operating system and leaves the RAM
// empty, so a stray later access reads open bus or panics on a nil slice
// rather than faulting on unmapped memory. Heap stores are left to the
// collector.
func (r *RAM) unmap() {
	if !r.mapped {
		return
	}
	runtime.SetFinalizer(r, nil)
	unmapStore(r.data)
	r.data, r.mapped = nil, false
}

// Scrub re-zeroes every dirty page and clears the dirty map, restoring the
// all-zero state a fresh allocation guarantees. Machine reuse (Recycle +
// RestoreState) depends on it: a checkpoint only carries pages the
// checkpointed run touched, so pages a previous occupant dirtied must be
// zeroed before the restore.
func (r *RAM) Scrub() {
	for wi, w := range r.dirty {
		if w == 0 {
			continue
		}
		for b := 0; b < 64; b++ {
			if w&(1<<b) == 0 {
				continue
			}
			off := (wi*64 + b) << ramPageShift
			clear(r.data[off:min(off+ramPageSize, len(r.data))])
		}
		r.dirty[wi] = 0
	}
}

// MarkDirtyPage records an aligned CPU store at pa that is already
// bounds-checked and, being size-aligned (≤ 8 bytes), cannot cross a page.
// It is the inlinable fast path for the fast-forward core's direct RAM
// stores; generic writers use MarkDirty, which handles arbitrary ranges.
func (r *RAM) MarkDirtyPage(pa uint32) {
	p := pa >> ramPageShift
	r.dirty[p>>6] |= 1 << (p & 63)
}

// markDirty records a write of size bytes at pa (already bounds-checked).
// CPU stores are size-aligned and never cross a page; the boundary check
// costs one compare and covers generic callers. The end address is computed
// in uint64: `pa+size-1` in uint32 underflows for size == 0 and wraps when
// pa+size crosses 2³², both of which would index past the dirty bitmap.
func (r *RAM) markDirty(pa uint32, size int) {
	if size <= 0 || uint64(pa) >= uint64(len(r.data)) {
		return
	}
	p := pa >> ramPageShift
	r.dirty[p>>6] |= 1 << (p & 63)
	end := uint64(pa) + uint64(size) - 1
	if last := uint64(len(r.data)) - 1; end > last {
		end = last
	}
	if q := uint32(end >> ramPageShift); q != p {
		r.dirty[q>>6] |= 1 << (q & 63)
	}
}

// MarkDirty records an external write of n bytes at off — used by
// LoadSegment, by DMA, which writes RAM through the Bytes slice, and by
// the disk, whose sector offsets exceed 32 bits. Only pages that exist are
// marked: off is bounds-checked before any page index is taken, the end
// page is clamped to the last page of the store, and the range arithmetic
// is done in uint64 so a wrapping off+n (or n == 0) cannot walk nonexistent
// pages or index past the bitmap.
func (r *RAM) MarkDirty(off uint64, n int) {
	if n <= 0 || off >= uint64(len(r.data)) {
		return
	}
	end := off + uint64(n) - 1
	if last := uint64(len(r.data)) - 1; end > last {
		end = last
	}
	for p := off >> ramPageShift; p <= end>>ramPageShift; p++ {
		r.dirty[p>>6] |= 1 << (p & 63)
	}
}

// Size returns the store's size in bytes.
func (r *RAM) Size() int { return len(r.data) }

// Bytes exposes the backing store (used by loaders and DMA). Writers must
// report their ranges via MarkDirty.
func (r *RAM) Bytes() []byte { return r.data }

// Read returns the little-endian value of the given size at pa. Accesses
// beyond the end of memory return zero, matching open-bus behaviour.
func (r *RAM) Read(pa uint32, size int) uint64 {
	// Compare in uint64: on 32-bit hosts int(pa) is negative for pa ≥ 2³¹,
	// so `int(pa)+size` would pass the check and panic slicing r.data.
	if uint64(pa)+uint64(size) > uint64(len(r.data)) {
		return 0
	}
	switch size {
	case 1:
		return uint64(r.data[pa])
	case 2:
		return uint64(binary.LittleEndian.Uint16(r.data[pa:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(r.data[pa:]))
	case 8:
		return binary.LittleEndian.Uint64(r.data[pa:])
	}
	panic("mem: bad access size")
}

// Write stores the little-endian value of the given size at pa. Writes
// beyond the end of memory are dropped.
func (r *RAM) Write(pa uint32, size int, v uint64) {
	// uint64 compare for the same 32-bit-host overflow reason as Read.
	if uint64(pa)+uint64(size) > uint64(len(r.data)) {
		return
	}
	r.markDirty(pa, size)
	switch size {
	case 1:
		r.data[pa] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(r.data[pa:], uint16(v))
	case 4:
		binary.LittleEndian.PutUint32(r.data[pa:], uint32(v))
	case 8:
		binary.LittleEndian.PutUint64(r.data[pa:], v)
	default:
		panic("mem: bad access size")
	}
}

// LoadSegment copies data into physical memory at pa. Bytes beyond the end
// of memory are dropped, matching Write.
func (r *RAM) LoadSegment(pa uint32, data []byte) {
	if uint64(pa) >= uint64(len(r.data)) {
		return
	}
	n := copy(r.data[pa:], data)
	r.MarkDirty(uint64(pa), n)
}
