package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// shareOf names the share metric of each simulator package; samples in
// any other package count as share.runtime (the Go runtime) or
// share.other.
var shareOf = map[string]string{
	"softwatt/internal/arch":      "share.arch",
	"softwatt/internal/isa":       "share.isa",
	"softwatt/internal/mem":       "share.mem",
	"softwatt/internal/trace":     "share.trace",
	"softwatt/internal/machine":   "share.machine",
	"softwatt/internal/disk":      "share.disk",
	"softwatt/internal/cpu/mipsy": "share.cpu.mipsy",
	"softwatt/internal/cpu/mxs":   "share.cpu.mxs",
	"softwatt/internal/cpu/swift": "share.cpu.swift",
	"softwatt/internal/ckpt":      "share.ckpt",
	"softwatt/internal/ffstore":   "share.ffstore",
	"softwatt/internal/core":      "share.core",
	"softwatt/internal/power":     "share.power",
}

// shareName maps a symbol such as "softwatt/internal/arch.(*CPU).StepInto"
// to its share metric.
func shareName(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	pkg := fn
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	if name, ok := shareOf[pkg]; ok {
		return name
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "share.runtime"
	}
	return "share.other"
}

// foldShares reads a gzipped pprof CPU profile and returns the percentage
// of self samples (the leaf frame, inlining resolved) per share metric,
// every metric present, together with the sample count.
func foldShares(gz []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		leaf  uint64 // location id
		count int64
	}
	var (
		strs      []string
		samples   []sample
		locFunc   = map[uint64]uint64{} // location -> innermost function
		funcName  = map[uint64]int64{}  // function -> string index
		decodeErr error
	)
	err = fields(data, func(f int, v uint64, b []byte) {
		switch f {
		case 2: // Sample
			var s sample
			first := true
			err := fields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1: // location_id, leaf first
					if ids := varints(v, b); first && len(ids) > 0 {
						s.leaf, first = ids[0], false
					}
				case 2: // value: [samples, cpu ns]
					if vals := varints(v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
			})
			if err != nil {
				decodeErr = err
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			err := fields(b, func(f int, v uint64, b []byte) {
				switch f {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if fn == 0 {
						if err := fields(b, func(f int, v uint64, _ []byte) {
							if f == 1 {
								fn = v
							}
						}); err != nil {
							decodeErr = err
						}
					}
				}
			})
			if err != nil {
				decodeErr = err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := fields(b, func(f int, v uint64, _ []byte) {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
			})
			if err != nil {
				decodeErr = err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
	})
	if err == nil {
		err = decodeErr
	}
	if err != nil {
		return nil, 0, err
	}

	shares := map[string]float64{"share.runtime": 0, "share.other": 0}
	for _, name := range shareOf {
		shares[name] = 0
	}
	var total int64
	for _, s := range samples {
		name := ""
		if idx := funcName[locFunc[s.leaf]]; idx >= 0 && idx < int64(len(strs)) {
			name = strs[idx]
		}
		shares[shareName(name)] += float64(s.count)
		total += s.count
	}
	if total > 0 {
		for k := range shares {
			shares[k] *= 100 / float64(total)
		}
	}
	return shares, total, nil
}

// fields walks the protobuf message in b, calling f with each field's
// number and either its varint value or its length-delimited bytes (the
// value of a length-delimited field is 0; fixed-width fields are skipped).
func fields(b []byte, f func(field int, v uint64, b []byte)) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			f(field, v, nil)
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			f(field, 0, b[n:n+int(l)])
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// varints decodes a repeated varint field given as one value (unpacked,
// b nil) or as packed bytes.
func varints(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return out
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}
