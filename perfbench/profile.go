package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuModules are the modules CPU samples are charged to, in report order.
// A sample goes to the module of its innermost frame in the noftl module
// (the facade is "noftl", internal/<m> is "<m>"), so runtime work such as
// allocation and copying is charged to the layer that caused it.  Samples
// with no such frame, or whose innermost such frame belongs to a module not
// listed, count as "other".  Frames of the benchmark itself (package main)
// end the search: what the benchmark does is "other" too.
var cpuModules = []string{"tpcc", "noftl", "wal", "flash", "storage", "btree", "buffer", "txn", "core", "iosched", "metrics", "other"}

// benchPkg prefixes the benchmark's own symbols: Go names a command's
// functions by package main, not by import path.
const benchPkg = "main."

// moduleOf maps a Go function name to a module of cpuModules; ok is false
// for frames outside the noftl module.
func moduleOf(fn string) (mod string, ok bool) {
	switch {
	case strings.HasPrefix(fn, benchPkg):
		return "other", true
	case strings.HasPrefix(fn, "noftl."):
		return "noftl", true
	case strings.HasPrefix(fn, "noftl/internal/"):
		rest := fn[len("noftl/internal/"):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, m := range cpuModules {
			if m == rest {
				return m, true
			}
		}
		return "other", true
	}
	return "", false
}

// cpuProfile collects CPU samples per module over one or more profiling
// intervals (the traced blocks of a run).
type cpuProfile struct {
	buf     bytes.Buffer
	samples map[string]int64
}

func newCPUProfile() *cpuProfile { return &cpuProfile{samples: map[string]int64{}} }

func (p *cpuProfile) start() error {
	p.buf.Reset()
	return pprof.StartCPUProfile(&p.buf)
}

// stop ends the current interval and adds its samples.
func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return attribute(&p.buf, p.samples)
}

// shares returns each module's percentage of all samples.
func (p *cpuProfile) shares() map[string]float64 {
	var total int64
	for _, n := range p.samples {
		total += n
	}
	out := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		if total > 0 {
			out[m] = 100 * float64(p.samples[m]) / float64(total)
		} else {
			out[m] = 0
		}
	}
	return out
}

// attribute decodes a gzipped pprof profile and adds its sample counts to
// byModule.  It reads just the fields it needs of profile.proto: samples
// (location ids, values), locations (id, lines) and functions (id, name).
func attribute(r io.Reader, byModule map[string]int64) error {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs     []string
		funcName = map[uint64]int64{}    // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		samples  []pbSample
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s pbSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					s.values = pbUints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
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
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		mod := "other"
	search:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
					if m, ok := moduleOf(strs[i]); ok {
						mod = m
						break search
					}
				}
			}
		}
		byModule[mod] += int64(s.values[0])
	}
	return nil
}

type pbSample struct{ locs, values []uint64 }

var errProto = errors.New("malformed protobuf")

// pbFields calls fn for each field of a protobuf message: v carries varint
// values, b length-delimited payloads.  Fixed-width fields are skipped.
func pbFields(buf []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := pbVarint(buf)
		if n == 0 {
			return errProto
		}
		buf = buf[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(buf)
			if n == 0 {
				return errProto
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errProto
			}
			buf = buf[8:]
			continue
		case 2:
			l, n := pbVarint(buf)
			if n == 0 || uint64(len(buf)-n) < l {
				return errProto
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errProto
			}
			buf = buf[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field given either unpacked (v) or
// packed (b).
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
