package ckpt

// The container is the file framing every persisted artifact shares
// (DESIGN.md §8): run logs, fast-forward reservoirs and sampled results.
//
//	uint32 magic "SWAT", uint32 version = 2
//	repeated sections, each:
//	    [4]byte tag, uint64 payload size, payload
//	terminated by the "END\0" section (size 0)
//
// A run log carries several sections; the other artifacts carry one.
// Readers work over the whole file in memory and hand each payload out as
// a subslice of it, so decoding a multi-megabyte artifact never copies it.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

const (
	containerMagic   = 0x53574154 // "SWAT"
	containerVersion = 2

	// maxSectionBytes caps any one section. Files are read whole, so the
	// cap is a sanity bound on a hostile size field, not an allocation
	// guard.
	maxSectionBytes = 1 << 30
)

var tagEnd = [4]byte{'E', 'N', 'D', 0}

// Section is one tagged container payload.
type Section struct {
	Tag     [4]byte
	Payload []byte
}

// WriteContainer writes the container header, the sections in order, and
// the END marker. Each section's size is its payload's length.
func WriteContainer(w io.Writer, sections ...Section) error {
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], containerMagic)
	binary.LittleEndian.PutUint32(hdr[4:], containerVersion)
	bw.Write(hdr[:8])
	for _, s := range sections {
		copy(hdr[:4], s.Tag[:])
		binary.LittleEndian.PutUint64(hdr[4:], uint64(len(s.Payload)))
		bw.Write(hdr[:])
		bw.Write(s.Payload)
	}
	copy(hdr[:4], tagEnd[:])
	binary.LittleEndian.PutUint64(hdr[4:], 0)
	bw.Write(hdr[:])
	return bw.Flush() // bufio latches the first write error
}

// ReadSections walks a container held in data, calling fn with each
// section's tag and payload until END. Payloads are subslices of data.
// Bytes after END are ignored; a container without END is truncated.
func ReadSections(data []byte, fn func(tag [4]byte, payload []byte) error) error {
	r := NewReader(data)
	if m := r.U32(); r.Err() == nil && m != containerMagic {
		return fmt.Errorf("ckpt: bad magic %#x", m)
	}
	if v := r.U32(); r.Err() == nil && v != containerVersion {
		return fmt.Errorf("ckpt: unsupported version %d", v)
	}
	for r.Err() == nil {
		var tag [4]byte
		copy(tag[:], r.Raw(4))
		size := r.U64()
		if r.Err() != nil {
			break
		}
		if tag == tagEnd {
			return nil
		}
		if size > maxSectionBytes || size > uint64(r.Remaining()) {
			return fmt.Errorf("ckpt: section %q size %d exceeds %d bytes remaining (cap %d)",
				tag[:], size, r.Remaining(), maxSectionBytes)
		}
		if err := fn(tag, r.Raw(int(size))); err != nil {
			return err
		}
	}
	return fmt.Errorf("ckpt: truncated container: %w", r.Err())
}

// ReadSection returns the payload of the one section carrying tag. Other
// sections are skipped; a missing or duplicate tag is an error.
func ReadSection(data []byte, tag [4]byte) ([]byte, error) {
	var payload []byte
	found := false
	err := ReadSections(data, func(t [4]byte, p []byte) error {
		if t != tag {
			return nil
		}
		if found {
			return fmt.Errorf("ckpt: duplicate %s section", tag[:])
		}
		payload, found = p, true
		return nil
	})
	if err == nil && !found {
		err = fmt.Errorf("ckpt: container has no %s section", tag[:])
	}
	return payload, err
}
