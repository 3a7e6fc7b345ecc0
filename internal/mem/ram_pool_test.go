package mem

import "testing"

// TestPooledStoreComesBackZeroed writes through every write path on pages
// spread across a store, releases it and takes it back from the pool: the
// recycled store must read all zero with no page marked dirty, exactly as
// a fresh one.
func TestPooledStoreComesBackZeroed(t *testing.T) {
	const size = 7 << 16 // a size no other test pools
	r := NewRAM(size)
	r.Write(0, 8, ^uint64(0))
	r.Write(3*ramPageSize+12, 4, 0xDEAD_BEEF)
	r.LoadSegment(5*ramPageSize-2, []byte{1, 2, 3, 4}) // straddles pages 4 and 5
	r.Bytes()[size-1] = 0x5A
	r.MarkDirty(size-1, 1)
	r.Release()

	got := NewRAM(size)
	if got != r {
		t.Fatal("NewRAM did not recycle the released store")
	}
	defer got.Release()
	if n := len(dirtyPages(got)); n != 0 {
		t.Fatalf("recycled store has %d dirty pages", n)
	}
	for i, b := range got.Bytes() {
		if b != 0 {
			t.Fatalf("byte %#x = %#x in a recycled store", i, b)
		}
	}
}
