package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
)

// A minimal decoder for the gzip-compressed profile.proto that
// runtime/pprof writes: just enough to turn each CPU sample into its stack
// of function names (leaf first, inlined frames expanded) and its CPU
// nanoseconds. Unknown fields are skipped, so newer runtimes that add
// fields still decode.

// cpuSample is one profile sample.
type cpuSample struct {
	stack []string // function names, leaf first
	nanos int64
}

// cpuProfile is a decoded CPU profile.
type cpuProfile struct {
	samples    []cpuSample
	totalNanos int64
}

// profile.proto field numbers.
const (
	fProfileSampleType = 1
	fProfileSample     = 2
	fProfileLocation   = 4
	fProfileFunction   = 5
	fProfileStrings    = 6

	fValueTypeType = 1

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// pbField is one decoded protobuf field: varint fields carry num, length-
// delimited fields carry buf.
type pbField struct {
	tag  int
	wire int
	num  uint64
	buf  []byte
}

type pbReader struct{ b []byte }

var errProto = errors.New("perfbench: malformed profile")

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errProto
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next decodes the next field; ok is false at the end of the message.
func (r *pbReader) next() (f pbField, ok bool, err error) {
	if len(r.b) == 0 {
		return f, false, nil
	}
	key, err := r.varint()
	if err != nil {
		return f, false, err
	}
	f.tag, f.wire = int(key>>3), int(key&7)
	switch f.wire {
	case 0:
		f.num, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return f, false, errProto
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return f, false, errProto
			}
			f.buf, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return f, false, errProto
		}
		r.b = r.b[4:]
	default:
		return f, false, errProto
	}
	return f, err == nil, err
}

// appendNums appends a repeated integer field, which the encoder may write
// packed (one length-delimited run) or as individual varints.
func appendNums(dst []uint64, f pbField) ([]uint64, error) {
	if f.wire == 0 {
		return append(dst, f.num), nil
	}
	if f.wire != 2 {
		return dst, errProto
	}
	r := pbReader{b: f.buf}
	for len(r.b) > 0 {
		v, err := r.varint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// decodeCPUProfile parses a runtime/pprof CPU profile.
func decodeCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		rawSamples  [][]byte
		locLines    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcNames   = map[uint64]uint64{}   // function id -> string index
	)
	r := pbReader{b: raw}
	for {
		f, ok, err := r.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		switch f.tag {
		case fProfileStrings:
			strs = append(strs, string(f.buf))
		case fProfileSampleType:
			vr := pbReader{b: f.buf}
			for {
				g, ok, err := vr.next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				if g.tag == fValueTypeType {
					sampleTypes = append(sampleTypes, g.num)
				}
			}
		case fProfileSample:
			rawSamples = append(rawSamples, f.buf)
		case fProfileLocation:
			id, fns, err := decodeLocation(f.buf)
			if err != nil {
				return nil, err
			}
			locLines[id] = fns
		case fProfileFunction:
			fr := pbReader{b: f.buf}
			var id, name uint64
			for {
				g, ok, err := fr.next()
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				switch g.tag {
				case fFunctionID:
					id = g.num
				case fFunctionName:
					name = g.num
				}
			}
			funcNames[id] = name
		}
	}

	// The CPU-time value is the sample type named "cpu".
	valueIdx := -1
	for i, s := range sampleTypes {
		if s < uint64(len(strs)) && strs[s] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	name := func(fn uint64) string {
		if s, ok := funcNames[fn]; ok && s < uint64(len(strs)) {
			return strs[s]
		}
		return "?"
	}

	p := &cpuProfile{}
	for _, b := range rawSamples {
		sr := pbReader{b: b}
		var locs, vals []uint64
		for {
			g, ok, err := sr.next()
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			switch g.tag {
			case fSampleLocation:
				locs, err = appendNums(locs, g)
			case fSampleValue:
				vals, err = appendNums(vals, g)
			}
			if err != nil {
				return nil, err
			}
		}
		if valueIdx >= len(vals) {
			return nil, errProto
		}
		s := cpuSample{nanos: int64(vals[valueIdx])}
		for _, l := range locs {
			for _, fn := range locLines[l] {
				s.stack = append(s.stack, name(fn))
			}
		}
		p.samples = append(p.samples, s)
		p.totalNanos += s.nanos
	}
	return p, nil
}

// decodeLocation returns a location's id and the function ids of its
// lines: innermost inlined function first, as profile.proto orders them.
func decodeLocation(b []byte) (uint64, []uint64, error) {
	r := pbReader{b: b}
	var id uint64
	var fns []uint64
	for {
		f, ok, err := r.next()
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			return id, fns, nil
		}
		switch f.tag {
		case fLocationID:
			id = f.num
		case fLocationLine:
			lr := pbReader{b: f.buf}
			for {
				g, ok, err := lr.next()
				if err != nil {
					return 0, nil, err
				}
				if !ok {
					break
				}
				if g.tag == fLineFunction {
					fns = append(fns, g.num)
				}
			}
		}
	}
}
