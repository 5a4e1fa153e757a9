package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profileShares runs f under the CPU profiler and returns the share of
// sampled CPU time spent in each package's own code (self time), keyed by
// package path as packageOf reports it.
func profileShares(f func()) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	f()
	pprof.StopCPUProfile()
	return packageShares(buf.Bytes())
}

// packageShares decodes a gzipped pprof profile (the format runtime/pprof
// writes) and attributes every sample's last value — CPU nanoseconds for a
// CPU profile — to the package of its leaf frame: the innermost function of
// the first location, inlined frames included.
func packageShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	self := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.locations) == 0 || len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1]
		fn := p.functionName(p.leafFunction[s.locations[0]])
		self[packageOf(fn)] += v
		total += v
	}
	shares := make(map[string]float64, len(self))
	if total == 0 {
		return shares, nil
	}
	for pkg, v := range self {
		shares[pkg] = float64(v) / float64(total)
	}
	return shares, nil
}

// packageOf returns the import path of a Go symbol name such as
// "repro/internal/des.(*Simulation).Step" or "runtime.mallocgc". The
// runtime's own internal packages fold into "runtime".
func packageOf(symbol string) string {
	slash := strings.LastIndexByte(symbol, '/')
	pkg := symbol
	if dot := strings.IndexByte(symbol[slash+1:], '.'); dot >= 0 {
		pkg = symbol[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return pkg
}

// profile holds the parts of a pprof Profile message the attribution needs.
type profile struct {
	samples      []sample
	leafFunction map[uint64]uint64 // location id -> innermost function id
	functionStr  map[uint64]int64  // function id -> string-table index of its name
	strings      []string
}

type sample struct {
	locations []uint64
	values    []int64
}

func (p *profile) functionName(id uint64) string {
	i, ok := p.functionStr[id]
	if !ok || i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of the pprof protobuf schema (profile.proto).
const (
	fieldProfileSample    = 2
	fieldProfileLocation  = 4
	fieldProfileFunction  = 5
	fieldProfileStrings   = 6
	fieldSampleLocationID = 1
	fieldSampleValue      = 2
	fieldLocationID       = 1
	fieldLocationLine     = 4
	fieldLineFunctionID   = 1
	fieldFunctionID       = 1
	fieldFunctionName     = 2
)

var errProfile = errors.New("profile: malformed protobuf")

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{leafFunction: map[uint64]uint64{}, functionStr: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, data []byte) error {
		switch num {
		case fieldProfileSample:
			var s sample
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch num {
				case fieldSampleLocationID:
					return appendVarints(wire, v, data, func(x uint64) { s.locations = append(s.locations, x) })
				case fieldSampleValue:
					return appendVarints(wire, v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fieldProfileLocation:
			var id, fn uint64
			haveLine := false
			err := eachField(data, func(num, wire int, v uint64, data []byte) error {
				switch {
				case num == fieldLocationID:
					id = v
				case num == fieldLocationLine && !haveLine:
					haveLine = true // line[0] is the innermost inlined frame
					return eachField(data, func(num, wire int, v uint64, _ []byte) error {
						if num == fieldLineFunctionID {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			p.leafFunction[id] = fn
			return err
		case fieldProfileFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.functionStr[id] = name
			return err
		case fieldProfileStrings:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// eachField walks the fields of one protobuf message, passing varint values
// in v and length-delimited payloads in data. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProfile
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProfile
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProfile
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProfile
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProfile
			}
			b = b[4:]
		default:
			return errProfile
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated integer field in either encoding:
// unpacked (one varint per field) or packed (a length-delimited run).
func appendVarints(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProfile
		}
		add(x)
		data = data[n:]
	}
	return nil
}
