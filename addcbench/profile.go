package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// leafSamples decodes a pprof CPU profile (gzipped profile.proto, as
// runtime/pprof writes it) and returns the sample count per leaf function:
// the innermost inlined frame of each sample's first location. It reads
// only the fields it needs, so the benchmark folds profiles without tools
// outside the standard library; `go tool pprof -top` reads the same file.
func leafSamples(profile []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}

	var (
		strs      []string
		funcName  = map[uint64]int64{}  // function id → string index
		locLeaf   = map[uint64]uint64{} // location id → leaf function id
		sampleLoc []uint64              // each sample's leaf location
		sampleN   []int64               // each sample's count value
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					locs = appendUints(locs, wire, v, b)
				case 2:
					for _, u := range appendUints(nil, wire, v, b) {
						vals = append(vals, int64(u))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) == 0 || len(vals) == 0 {
				return nil
			}
			sampleLoc = append(sampleLoc, locs[0])
			sampleN = append(sampleN, vals[0])
		case 4: // Location
			var id, leaf uint64
			seenLine := false
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if seenLine {
						return nil
					}
					seenLine = true
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLeaf[id] = leaf
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for i, loc := range sampleLoc {
		name := "unknown"
		if fn, ok := locLeaf[loc]; ok {
			if si, ok := funcName[fn]; ok && si >= 0 && si < int64(len(strs)) {
				name = strs[si]
			}
		}
		out[name] += sampleN[i]
	}
	return out, nil
}

// appendUints appends a repeated integer field's values, packed or not.
func appendUints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

var errProto = errors.New("malformed profile")

// eachField walks a protobuf message, calling f with each field's number,
// wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, f func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return fmt.Errorf("%w: wire type %d", errProto, wire)
		}
		if err := f(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}
