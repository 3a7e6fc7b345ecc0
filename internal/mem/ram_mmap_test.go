//go:build unix && !race

package mem

import (
	"runtime"
	"testing"
	"time"
)

// TestMappedStoreOffHeap: a machine-sized store must not count toward the
// Go heap, or the collector paces on guest memory the guest never touches.
func TestMappedStoreOffHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRAM(128 << 20)
	runtime.ReadMemStats(&after)
	defer r.Release()
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("NewRAM(128 MB) grew the heap by %d bytes", grew)
	}
	if !r.mapped {
		t.Fatal("store is not mapped")
	}
}

// TestReleasePastPoolCapUnmaps: once the pool holds ramPoolCap stores of a
// size, Release unmaps the next one instead of keeping it.
func TestReleasePastPoolCapUnmaps(t *testing.T) {
	const size = 5 << 16 // a size no other test pools
	stores := make([]*RAM, ramPoolCap, ramPoolCap+1)
	for i := range stores {
		stores[i] = NewRAM(size)
	}
	before := mappedStores.Load()
	stores = append(stores, NewRAM(size))
	for _, r := range stores {
		r.Release()
	}
	if got := mappedStores.Load(); got != before {
		t.Fatalf("mapped stores = %d after releasing past the pool cap, want %d", got, before)
	}
	if last := stores[ramPoolCap]; last.data != nil || last.mapped {
		t.Fatal("the store the full pool refused still holds its mapping")
	}
}

// TestUnreleasedStoreUnmappedByFinalizer: a store dropped without Release
// is unmapped once the collector finds it unreachable.
func TestUnreleasedStoreUnmappedByFinalizer(t *testing.T) {
	before := mappedStores.Load()
	func() {
		r := NewRAM(6 << 16) // a size no other test pools
		r.Write(0, 4, 1)
	}()
	if got := mappedStores.Load(); got != before+1 {
		t.Fatalf("mapped stores = %d after NewRAM, want %d", got, before+1)
	}
	for i := 0; i < 100 && mappedStores.Load() != before; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond) // the finalizer runs on its own goroutine
	}
	if got := mappedStores.Load(); got != before {
		t.Fatalf("mapped stores = %d after the store became unreachable, want %d", got, before)
	}
}
