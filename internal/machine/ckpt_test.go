package machine

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"softwatt/internal/ckpt"
	"softwatt/internal/kern"
	"softwatt/internal/mem"
)

// TestPageStoreCheckpointRejects drives the one page codec through both of
// its users, physical memory and the disk image, inside a machine
// checkpoint. A corrupt page set must fail the restore with an error that
// names its store, and must never panic; a page index at the last page is
// legal and restores.
func TestPageStoreCheckpointRejects(t *testing.T) {
	w := buildWorkload(t, "file", fileSrc, []kern.File{kernFile("data.bin", []byte("0123456789abcdefGHIJ"))})
	src, err := New(testConfig(CoreMipsy), w)
	if err != nil {
		t.Fatal(err)
	}
	src.StepCycles(20_000)
	payload := src.Checkpoint()

	// locate returns the bounds of a store's page set in the payload.
	locate := func(r *mem.RAM) (int, int) {
		sw := &ckpt.Writer{}
		r.EncodeState(sw)
		off := bytes.Index(payload, sw.Bytes())
		if off < 0 {
			t.Fatal("store's page set not found in the checkpoint")
		}
		return off, off + sw.Len()
	}
	ramOff, ramEnd := locate(src.ram)
	dskOff, dskEnd := locate(src.dsk.Image())
	stores := []struct {
		name, other string
		off, end    int    // the page set's bounds in the payload
		pages       uint32 // page count of the whole store
	}{
		{"RAM", "disk image", ramOff, ramEnd, uint32(src.ram.Size() >> 12)},
		{"disk image", "RAM", dskOff, dskEnd, uint32(src.dsk.Image().Size() >> 12)},
	}
	src.Release()

	le := binary.LittleEndian
	cases := []struct {
		name    string
		corrupt func(p []byte, off, end int, pages uint32) []byte
		ok      bool
	}{
		{"size-mismatch", func(p []byte, off, _ int, _ uint32) []byte {
			le.PutUint64(p[off:], le.Uint64(p[off:])+4096)
			return p
		}, false},
		{"index-at-last-page", func(p []byte, off, _ int, pages uint32) []byte {
			le.PutUint32(p[off+12:], pages-1)
			return p
		}, true},
		{"index-past-last-page", func(p []byte, off, _ int, pages uint32) []byte {
			le.PutUint32(p[off+12:], pages)
			return p
		}, false},
		{"index-max", func(p []byte, off, _ int, _ uint32) []byte {
			le.PutUint32(p[off+12:], ^uint32(0))
			return p
		}, false},
		{"truncated-first-page", func(p []byte, off, _ int, _ uint32) []byte {
			return p[:off+12+4+100]
		}, false},
		{"truncated-last-page", func(p []byte, _, end int, _ uint32) []byte {
			return p[:end-100]
		}, false},
		{"lying-page-count", func(p []byte, off, _ int, pages uint32) []byte {
			le.PutUint32(p[off+8:], pages)
			return p
		}, false},
		{"page-count-past-store", func(p []byte, off, _ int, pages uint32) []byte {
			le.PutUint32(p[off+8:], pages+1)
			return p
		}, false},
	}
	for _, st := range stores {
		for _, tc := range cases {
			t.Run(st.name+"/"+tc.name, func(t *testing.T) {
				p := tc.corrupt(bytes.Clone(payload), st.off, st.end, st.pages)
				dst, err := New(testConfig(CoreMipsy), w)
				if err != nil {
					t.Fatal(err)
				}
				defer dst.Release()
				err = dst.RestoreState(p)
				t.Logf("restore: %v", err)
				switch {
				case tc.ok && err != nil:
					t.Fatalf("restore failed: %v", err)
				case tc.ok:
				case err == nil:
					t.Fatal("corrupt page set restored without error")
				case !strings.Contains(err.Error(), st.name) || strings.Contains(err.Error(), st.other):
					t.Fatalf("error %q does not name the %s", err, st.name)
				}
			})
		}
	}
}
