package main

import (
	"bytes"
	"compress/gzip"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Layer attribution: every CPU-profile sample is charged to one bucket,
// chosen by its leaf frame's function name against the ordered rules in
// layers.json (first matching prefix wins; unmatched samples land in
// other.self_pct), so the buckets always sum to the sampled CPU. Leaf
// frames in the map's transparent packages (general-purpose helpers such
// as fmt and strconv) are charged to their nearest caller outside them.

//go:embed layers.json
var layersJSON []byte

type layerRule struct {
	Bucket   string   `json:"bucket"`
	Prefixes []string `json:"prefixes"`
}

type layerMap struct {
	Transparent []string    `json:"transparent"`
	Rules       []layerRule `json:"rules"`
}

// otherBucket receives samples no rule matches.
const otherBucket = "other.self_pct"

func loadLayerMap() (layerMap, error) {
	var m layerMap
	if err := json.Unmarshal(layersJSON, &m); err != nil {
		return m, fmt.Errorf("layers.json: %w", err)
	}
	return m, nil
}

// chargedFrame picks the frame a sample is charged to from its stack
// (leaf first): the leaf, or the nearest caller outside the transparent
// packages.
func (m layerMap) chargedFrame(stack []string) string {
	for _, fn := range stack {
		if !hasAnyPrefix(fn, m.Transparent) {
			return fn
		}
	}
	if len(stack) == 0 {
		return "(unknown)"
	}
	return stack[0]
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func (m layerMap) bucket(fn string) string {
	for _, r := range m.Rules {
		for _, p := range r.Prefixes {
			if strings.HasPrefix(fn, p) {
				return r.Bucket
			}
		}
	}
	return otherBucket
}

// attribution is a profile's samples grouped by bucket.
type attribution struct {
	layers  layerMap
	total   int64
	buckets map[string]int64
	// leaves is the sample count per charged function, kept for the trace
	// file so the bucket map can be audited.
	leaves map[string]int64
}

// attribute decodes a gzipped pprof CPU profile and buckets its samples.
func attribute(gz []byte) (attribution, error) {
	m, err := loadLayerMap()
	if err != nil {
		return attribution{}, err
	}
	p, err := parseProfile(gz)
	if err != nil {
		return attribution{}, fmt.Errorf("cpu profile: %w", err)
	}
	a := attribution{layers: m, buckets: map[string]int64{}, leaves: map[string]int64{}}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fn]])
			}
		}
		fn := m.chargedFrame(stack)
		a.total += s.count
		a.buckets[m.bucket(fn)] += s.count
		a.leaves[fn] += s.count
	}
	return a, nil
}

// topLeaves returns the n hottest charged functions with their buckets.
func (a attribution) topLeaves(n int) []leafShare {
	out := make([]leafShare, 0, len(a.leaves))
	for fn, c := range a.leaves {
		out = append(out, leafShare{Func: fn, Bucket: a.layers.bucket(fn), Pct: 100 * float64(c) / float64(max(a.total, 1))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pct != out[j].Pct {
			return out[i].Pct > out[j].Pct
		}
		return out[i].Func < out[j].Func
	})
	return out[:min(n, len(out))]
}

type leafShare struct {
	Func   string  `json:"func"`
	Bucket string  `json:"bucket"`
	Pct    float64 `json:"pct"`
}

// profile holds the few parts of a pprof profile.proto that attribution
// needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, leaf (innermost inlined) first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64    // value[0]: the sample count
}

// parseProfile decodes the gzipped protobuf the runtime/pprof CPU profiler
// writes (github.com/google/pprof proto/profile.proto).
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, b)
				case 2:
					values = appendVarints(values, wt, v, b)
				}
				return nil
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			p.samples = append(p.samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, wt int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, wt int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name index out of range")
		}
	}
	return p, nil
}

// appendVarints appends a repeated varint field's values: one value when
// unpacked (wire type 0), all of them when packed (wire type 2).
func appendVarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := varint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks one protobuf message, calling f with each field's number,
// wire type, and its varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, f func(num int, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		switch wt {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := f(num, wt, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length-delimited field")
			}
			body := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, wt, 0, body); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
	}
	return nil
}

// varint decodes a base-128 varint, returning the value and the bytes
// consumed (0 on malformed input).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
