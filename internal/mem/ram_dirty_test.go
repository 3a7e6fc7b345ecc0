package mem

// Regression and property tests for dirty-page marking and RAM bounds
// checks. The pre-fix code computed `pa+n-1` in uint32 (underflowing for
// n == 0 and wrapping when pa+n crosses 2³²) and bounds-checked Read/Write
// with `int(pa)+size` (negative on 32-bit hosts for high pa). Both were
// guest-reachable: MarkDirty via disk DMA parameters, Read/Write via any
// load/store to a high physical address.

import (
	"math"
	"math/rand"
	"testing"
)

// dirtyPages returns the set of marked page indices.
func dirtyPages(r *RAM) map[uint32]bool {
	got := map[uint32]bool{}
	for wi, w := range r.dirty {
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				got[uint32(wi*64+b)] = true
			}
		}
	}
	return got
}

// expectPages computes, independently of the implementation, the pages an
// n-byte write at off actually touches: bytes land in [off, off+n) clamped
// to the backing store, so only those pages need (or may) be marked.
func expectPages(size int, off uint64, n int) map[uint32]bool {
	want := map[uint32]bool{}
	if n <= 0 || off >= uint64(size) {
		return want
	}
	end := off + uint64(n) - 1
	if last := uint64(size) - 1; end > last {
		end = last
	}
	for p := off >> ramPageShift; p <= end>>ramPageShift; p++ {
		want[uint32(p)] = true
	}
	return want
}

func samePages(t *testing.T, got, want map[uint32]bool, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: marked %d pages, want %d", ctx, len(got), len(want))
	}
	for p := range want {
		if !got[p] {
			t.Fatalf("%s: page %d not marked", ctx, p)
		}
	}
}

// TestMarkDirtyZeroAndWrap is the regression test for the exported entry
// point. Pre-fix, pa+uint32(n)-1 wrapped: n touching the end of the address
// space walked (and indexed) ~2³²>>pageShift pages, panicking past the
// 512-word bitmap of a 1 MB RAM.
func TestMarkDirtyZeroAndWrap(t *testing.T) {
	const size = 1 << 20
	cases := []struct {
		name string
		pa   uint32
		n    int
	}{
		{"zero-length", 0, 0},
		{"negative", 4096, -1},
		{"whole-space-from-zero", 0, min(1<<31, math.MaxInt)}, // 1<<31 on 64-bit hosts
		{"wraps-past-2^32", 0xFFFF_F000, 0x2000},
		{"beyond-end", size + 4096, 64},
		{"straddles-end", size - 8, 4096},
		{"exact-end", size - 1, 1},
	}
	for _, tc := range cases {
		r := &RAM{data: make([]byte, size), dirty: make([]uint64, (size>>ramPageShift+63)/64)}
		r.MarkDirty(uint64(tc.pa), tc.n)
		samePages(t, dirtyPages(r), expectPages(size, uint64(tc.pa), tc.n), tc.name)
	}
}

// TestMarkDirtyInternalZeroAndWrap covers the unexported fast path used by
// Write. Pre-fix, size == 0 underflowed the end address and indexed the
// bitmap out of range; a straddling write near 2³² wrapped the second page.
func TestMarkDirtyInternalZeroAndWrap(t *testing.T) {
	const size = 1 << 20
	cases := []struct {
		name string
		pa   uint32
		n    int
	}{
		{"zero-length", 0, 0},
		{"zero-length-high", 0xFFFF_FFFF, 0},
		{"last-byte", size - 1, 1},
		{"straddles-end", size - 2, 8},
		{"beyond-end", 0xFFFF_FFF8, 8},
	}
	for _, tc := range cases {
		r := &RAM{data: make([]byte, size), dirty: make([]uint64, (size>>ramPageShift+63)/64)}
		r.markDirty(tc.pa, tc.n)
		samePages(t, dirtyPages(r), expectPages(size, uint64(tc.pa), tc.n), tc.name)
	}
}

// TestRAMBoundsAtWrapBoundary pins the uint64 bounds compare in Read/Write:
// pa values whose int conversion is negative on 32-bit hosts (≥ 2³¹) and
// whose pa+size wraps uint32 must read as open bus and drop writes, on
// every host width.
func TestRAMBoundsAtWrapBoundary(t *testing.T) {
	r := NewRAM(1 << 20)
	for _, pa := range []uint32{1 << 31, 0xFFFF_FFFF, 0xFFFF_FFF8, 0xFFFF_FFFC} {
		for _, size := range []int{1, 2, 4, 8} {
			if got := r.Read(pa, size); got != 0 {
				t.Fatalf("Read(%#x, %d) = %#x, want open-bus 0", pa, size, got)
			}
			r.Write(pa, size, 0xDEAD_BEEF_DEAD_BEEF)
		}
	}
	// In-bounds memory is untouched by the dropped writes.
	for _, pa := range []uint32{0, 1<<20 - 8} {
		if got := r.Read(pa, 8); got != 0 {
			t.Fatalf("dropped write leaked into RAM at %#x: %#x", pa, got)
		}
	}
	// LoadSegment beyond the end must not panic and must not mark pages.
	r2 := &RAM{data: make([]byte, 1<<20), dirty: make([]uint64, 4)}
	r2.LoadSegment(1<<21, []byte{1, 2, 3})
	if len(dirtyPages(r2)) != 0 {
		t.Fatal("out-of-range LoadSegment marked pages")
	}
}

// TestDirtyMarkingProperty drives MarkDirty with randomized pa/n including
// 0, end-of-memory straddles and uint32 wraps, and checks the marked set
// against the brute-force page set every time.
func TestDirtyMarkingProperty(t *testing.T) {
	const size = 1 << 20
	rng := rand.New(rand.NewSource(61))
	for i := 0; i < 2000; i++ {
		var pa uint32
		var n int
		switch rng.Intn(4) {
		case 0: // in-bounds
			pa = uint32(rng.Intn(size))
			n = rng.Intn(3 * ramPageSize)
		case 1: // zero/negative length anywhere
			pa = rng.Uint32()
			n = -rng.Intn(2)
		case 2: // huge length, wraps or clamps
			pa = rng.Uint32()
			n = 1 << (20 + rng.Intn(12))
		default: // near the top of the address space
			pa = 0xFFFF_0000 + uint32(rng.Intn(1<<16))
			n = rng.Intn(1 << 18)
		}
		r := &RAM{data: make([]byte, size), dirty: make([]uint64, (size>>ramPageShift+63)/64)}
		r.MarkDirty(uint64(pa), n)
		samePages(t, dirtyPages(r), expectPages(size, uint64(pa), n), "property")
	}
}

// TestScrubAfterDirtyMarking is the end-to-end consequence check: every
// byte actually written must be zero after scrub, i.e. no write path loses
// a dirty page (a missed page would leak stale data into a "fresh" RAM).
func TestScrubAfterDirtyMarking(t *testing.T) {
	const size = 1 << 20
	r := &RAM{data: make([]byte, size), dirty: make([]uint64, (size>>ramPageShift+63)/64)}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		pa := uint32(rng.Intn(size))
		switch rng.Intn(3) {
		case 0:
			r.Write(pa, 1<<rng.Intn(4), rng.Uint64()|1)
		case 1:
			seg := make([]byte, rng.Intn(3*ramPageSize)+1)
			for j := range seg {
				seg[j] = 0xA5
			}
			r.LoadSegment(pa, seg)
		default: // DMA-style: write through Bytes, then MarkDirty
			n := rng.Intn(2*ramPageSize) + 1
			end := uint64(pa) + uint64(n)
			if end > size {
				end = size
			}
			for j := uint64(pa); j < end; j++ {
				r.Bytes()[j] = 0x5A
			}
			r.MarkDirty(uint64(pa), n)
		}
	}
	r.Scrub()
	for i, b := range r.data {
		if b != 0 {
			t.Fatalf("byte %#x = %#x after scrub: its page was never marked dirty", i, b)
		}
	}
}

// FuzzMarkDirty lets the fuzzer explore the off/n space, including the
// 64-bit offsets a disk sector number reaches; the oracle is the same
// brute-force page set used by the property test.
func FuzzMarkDirty(f *testing.F) {
	f.Add(uint64(0), int64(0))
	f.Add(uint64(0), int64(1<<31))
	f.Add(uint64(0xFFFF_F000), int64(0x2000))
	f.Add(uint64(1<<20-1), int64(2))
	f.Add(uint64(1)<<41-512, int64(1<<41))
	f.Add(^uint64(0), int64(2))
	f.Fuzz(func(t *testing.T, off uint64, n64 int64) {
		const size = 1 << 18
		n := int(n64)
		if int64(n) != n64 { // keep 32-bit hosts honest
			n = int(n64 >> 32)
		}
		r := &RAM{data: make([]byte, size), dirty: make([]uint64, (size>>ramPageShift+63)/64)}
		r.MarkDirty(off, n)
		samePages(t, dirtyPages(r), expectPages(size, off, n), "fuzz")
	})
}
