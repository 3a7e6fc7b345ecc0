//go:build unix && !race

package mem

import (
	"sync/atomic"
	"syscall"
)

// mappedStores counts the RAM stores currently mapped.
var mappedStores atomic.Int64

// mapStore returns a zero-filled store of size bytes from an anonymous
// private mapping, or nil when the mapping fails and the caller must fall
// back to the heap. Pages are faulted in on first touch, so the store costs
// only the memory the guest uses, and none of it counts toward the heap
// the collector paces on.
func mapStore(size int) []byte {
	b, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil
	}
	mappedStores.Add(1)
	return b
}

// unmapStore releases a store mapStore returned.
func unmapStore(b []byte) {
	if err := syscall.Munmap(b); err != nil {
		panic("mem: unmapping a RAM store: " + err.Error())
	}
	mappedStores.Add(-1)
}
