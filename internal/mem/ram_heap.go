//go:build !unix || race

package mem

// On platforms without anonymous mappings, and under the race detector,
// which does not instrument memory outside the Go heap, every RAM store is
// a heap slice: mapStore declines and NewRAM falls back to make.

func mapStore(int) []byte { return nil }

func unmapStore([]byte) { panic("mem: no RAM store is mapped") }
