package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"sort"
	"strings"
)

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just the samples, locations, functions and strings needed to
// fold CPU time by owning module.

type pbFunction struct{ name, file string }

type pbLine struct{ fn uint64 }

type pbProfile struct {
	samples   []pbSample
	locations map[uint64][]pbLine // location id -> lines, innermost first
	functions map[uint64]pbFunction
}

type pbSample struct {
	locs  []uint64 // leaf first
	count int64
}

func readProfile(file string) (*pbProfile, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &pbProfile{locations: map[uint64][]pbLine{}, functions: map[uint64]pbFunction{}}
	var strs []string
	type rawFn struct{ id, name, file uint64 }
	var fns []rawFn
	err = pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s pbSample
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendVarints(s.locs, v, b)
				case 2:
					for _, x := range pbAppendVarints(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = vals[0]
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var lines []pbLine
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					var ln pbLine
					if err := pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							ln.fn = v
						}
						return nil
					}); err != nil {
						return err
					}
					lines = append(lines, ln)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = lines
		case 5: // function
			var fn rawFn
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					fn.id = v
				case 2:
					fn.name = v
				case 4:
					fn.file = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			fns = append(fns, fn)
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	for _, fn := range fns {
		p.functions[fn.id] = pbFunction{name: str(fn.name), file: str(fn.file)}
	}
	return p, nil
}

// pbFields walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func pbFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := pbVarint(data)
		if n == 0 {
			return errors.New("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(data)
			if n == 0 {
				return errors.New("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := pbVarint(data)
			if n == 0 || uint64(len(data)-n) < l {
				return errors.New("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
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

// pbAppendVarints appends a repeated varint field given either
// unpacked (v) or packed (b).
func pbAppendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// Module buckets of the folded profile. Every layer of the benchmark
// gets one, plus the benchmark's own code and everything else.
var profileModules = []string{
	"trace", "intmap", "core", "cache", "shard", "msgplane", "engine",
	"serve.router", "serve.loop", "par", "runtime", "perfbench", "other",
}

// folded is a CPU profile folded by owning module.
type folded struct {
	total   int64
	modules map[string]int64
	gc      int64 // samples inside the garbage collector
	maps    int64 // samples whose leaf is Go map code
	stacks  map[string]int64
}

// foldProfile attributes every sample to the module that owns its leaf
// frame. Go runtime frames (allocator, GC, scheduler, maps) stay in
// "runtime"; other standard-library frames belong to the nearest
// repository frame above them, since that code called them.
func foldProfile(p *pbProfile) *folded {
	f := &folded{modules: map[string]int64{}, stacks: map[string]int64{}}
	for _, s := range p.samples {
		if s.count == 0 {
			continue
		}
		var frames []pbFunction
		for _, loc := range s.locs {
			for _, ln := range p.locations[loc] {
				frames = append(frames, p.functions[ln.fn])
			}
		}
		if len(frames) == 0 {
			continue
		}
		mod := "other"
		if isRuntime(frames[0].name) {
			mod = "runtime"
		} else {
			for _, fr := range frames {
				if m := moduleOf(fr); m != "" {
					mod = m
					break
				}
			}
		}
		f.total += s.count
		f.modules[mod] += s.count
		if isMapCode(frames[0].name) {
			f.maps += s.count
		}
		for _, fr := range frames {
			if isGC(fr.name) {
				f.gc += s.count
				break
			}
		}
		// Folded stacks, root first, for flame-graph tools.
		names := make([]string, len(frames))
		for i, fr := range frames {
			names[len(frames)-1-i] = fr.name
		}
		f.stacks[mod+";"+strings.Join(names, ";")] += s.count
	}
	return f
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/")
}

func isMapCode(fn string) bool {
	return strings.HasPrefix(fn, "internal/runtime/maps.") || strings.HasPrefix(fn, "runtime.map") ||
		strings.HasPrefix(fn, "runtime.memhash") || strings.HasPrefix(fn, "runtime.aeshash")
}

func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.markroot") ||
		strings.HasPrefix(fn, "runtime.scanobject") || strings.HasPrefix(fn, "runtime.sweepone")
}

// moduleOf maps a repository frame to its module ("" for frames
// outside the repository).
func moduleOf(fr pbFunction) string {
	if strings.HasPrefix(fr.name, "main.") {
		return "perfbench"
	}
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fr.name, prefix) {
		return ""
	}
	rest := fr.name[len(prefix):]
	pkg := rest
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		pkg = rest[:i]
	}
	switch pkg {
	case "trace", "intmap", "core", "cache", "shard", "msgplane", "engine", "par":
		return pkg
	case "serve":
		if path.Base(fr.file) == "router.go" {
			return "serve.router"
		}
		return "serve.loop"
	}
	return "other"
}

// share is module's share of all samples.
func (f *folded) share(module string) float64 {
	return ratio(float64(f.modules[module]), float64(f.total))
}

// writeFolded writes the folded stacks ("module;root;...;leaf count"),
// heaviest first, preceded by one summary line per module.
func (f *folded) writeFolded(file string) error {
	var b strings.Builder
	for _, m := range profileModules {
		fmt.Fprintf(&b, "# %-12s %6.2f%%\n", m, 100*f.share(m))
	}
	keys := make([]string, 0, len(f.stacks))
	for k := range f.stacks {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if f.stacks[keys[i]] != f.stacks[keys[j]] {
			return f.stacks[keys[i]] > f.stacks[keys[j]]
		}
		return keys[i] < keys[j]
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, f.stacks[k])
	}
	return os.WriteFile(file, []byte(b.String()), 0o644)
}
