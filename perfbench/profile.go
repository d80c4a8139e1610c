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

// profileShares maps a module to its share of CPU-profile samples.
type profileShares map[string]float64

// moduleShares reads a runtime/pprof CPU profile and returns, for every
// entry of modules, the share of samples whose leaf frame (the innermost
// function, inlined or not) belongs to it.
func moduleShares(data []byte) (profileShares, error) {
	leaves, err := leafSamples(data)
	if err != nil {
		return nil, err
	}
	return sharesByModule(leaves), nil
}

// sharesByModule sums leaf-function sample counts into module shares.
func sharesByModule(leaves map[string]int64) profileShares {
	shares := profileShares{}
	for _, m := range modules {
		shares[m] = 0
	}
	var total int64
	for _, n := range leaves {
		total += n
	}
	if total == 0 {
		return shares
	}
	for fn, n := range leaves {
		shares[moduleOf(fn)] += float64(n) / float64(total)
	}
	return shares
}

// moduleOf maps a profile function name to one of modules.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, m := range modules {
			if m == pkg {
				return m
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "repro/"):
		return "other"
	}
	return "stdlib"
}

// leafSamples decodes the profile protobuf (gzipped or not) far enough to
// sum the first sample value by the function of each sample's leaf frame.
func leafSamples(data []byte) (map[string]int64, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples   []sample
		strs      []string
		funcName  = map[uint64]int64{}  // function id → string index
		locLeafFn = map[uint64]uint64{} // location id → innermost function id
	)
	err := forFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			first, firstValue := true, true
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1: // location_id, packed or not
					return forVarints(w, v, b, func(x uint64) {
						if first {
							s.leaf, first = x, false
						}
					})
				case 2: // value
					return forVarints(w, v, b, func(x uint64) {
						if firstValue {
							s.value, firstValue = int64(x), false
						}
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			sawLine := false
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1:
					id = v
				case f == 4 && !sawLine: // the first Line is the innermost frame
					sawLine = true
					return forFields(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			locLeafFn[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	leaves := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if idx, ok := funcName[locLeafFn[s.leaf]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		leaves[name] += s.value
	}
	return leaves, nil
}

var errTruncated = errors.New("truncated protobuf")

// forFields walks the fields of one protobuf message. For varint fields
// fn gets the value in v; for length-delimited fields the payload in b.
func forFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// forVarints calls fn for a repeated varint field in either encoding: a
// single varint (wire 0) or a packed run (wire 2).
func forVarints(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
