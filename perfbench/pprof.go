package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
)

// cpuProfile records the traced phase's CPU profile and attributes its
// flat samples (the innermost frame of each) to package groups. The
// benchmark decodes the profile itself: the module has no dependencies.
type cpuProfile struct {
	path string
	f    *os.File
}

// cpuGroups maps each reported share to the packages it covers.
var cpuGroups = map[string]func(pkg string) bool{
	"cpu.model_share":   func(p string) bool { return p == "aggchecker/internal/model" },
	"cpu.sqlexec_share": func(p string) bool { return p == "aggchecker/internal/sqlexec" },
	"cpu.vec_share":     func(p string) bool { return p == "aggchecker/internal/vec" },
	"cpu.runtime_share": func(p string) bool {
		return p == "runtime" || strings.HasPrefix(p, "runtime/") || strings.HasPrefix(p, "internal/runtime/")
	},
}

func startProfile(dir string) (*cpuProfile, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	p := &cpuProfile{path: filepath.Join(dir, "cpu.pprof")}
	f, err := os.Create(p.path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	p.f = f
	return p, nil
}

// stop ends profiling and returns the share of CPU time per group.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(p.path)
	if err != nil {
		return nil, err
	}
	byFunc, err := flatByFunction(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var total int64
	out := make(map[string]float64, len(cpuGroups))
	for name := range cpuGroups {
		out[name] = 0
	}
	for fn, v := range byFunc {
		total += v
		pkg := packageOf(fn)
		for name, in := range cpuGroups {
			if in(pkg) {
				out[name] += float64(v)
			}
		}
	}
	if total == 0 {
		return nil, errors.New("cpu profile holds no samples")
	}
	for name := range out {
		out[name] /= float64(total)
	}
	return out, nil
}

// packageOf returns the import path of a symbol such as
// "aggchecker/internal/sqlexec.(*Engine).EvaluateBatch".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// flatByFunction decodes a gzipped profile.proto and sums the last sample
// value (CPU nanoseconds) by the innermost function of each sample.
func flatByFunction(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	buf, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples  []sample
		strs     []string
		locFunc  = map[uint64]uint64{} // location id → innermost function id
		funcName = map[uint64]int64{}  // function id → string index
	)
	err = fields(buf, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			samples = append(samples, sample{locs[0], vals[len(vals)-1]})
		case 4: // location
			var id, fn uint64
			seen := false
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch {
				case n == 1:
					id = v
				case n == 4 && !seen: // first line: the innermost inlined frame
					seen = true
					return fields(b, func(n, w int, v uint64, b []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(n, w int, v uint64, b []byte) error {
				switch n {
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
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64)
	for _, s := range samples {
		idx := funcName[locFunc[s.loc]]
		name := "?"
		if idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		out[name] += s.value
	}
	return out, nil
}

// fields walks one protobuf message, calling fn with each field's number,
// wire type, varint value (wire 0) or payload (wire 2).
func fields(b []byte, fn func(num, wire int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
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
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field in either encoding.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
