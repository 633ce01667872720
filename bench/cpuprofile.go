package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
)

// The CPU profile is the one view of the layers that needs nothing from
// them: runtime/pprof samples the process, and every sample is charged
// to one bucket. The standard library has no reader for the profile it
// writes, so the few fields needed (samples, locations, functions,
// strings) are decoded from the protobuf wire format here.

// cpuBuckets lists the buckets in catalogue order; shares sum to 1.
var cpuBuckets = []string{"vclock", "pilot", "core", "profile", "campaign", "serve",
	"realtime", "sched", "gc", "syscall", "other"}

// layerBuckets are the buckets that are packages of this repository.
var layerBuckets = cpuBuckets[:7]

// schedFuncs and gcFuncs classify runtime functions by a substring of
// their name: goroutine machinery (park/ready/schedule, channels, locks,
// futex, stacks) versus the collector and allocator.
var (
	schedFuncs = []string{"park", "ready", "chedule", "findRunnable", "chan", "lock", "futex",
		"runq", "wakep", "stopm", "startm", "note", "mcall", "goexit", "newproc", "gfget", "gfput",
		"execute", "spinning", "usleep", "osyield", "procyield", "sema", "netpoll", "casgstatus",
		"selectgo", "stack", "gogo", "handoff", "steal", "checkTimers", "pidle", "injectglist",
		"send", "recv", "acquirem", "releasem", "gosched", "timer", "gQueue", "gList"}
	gcFuncs = []string{"gc", "mark", "sweep", "malloc", "scan", "wbBuf", "mcache", "mcentral",
		"mheap", "mspan", "nextFree", "scavenge", "greyobject", "typePointers", "heapBits",
		"memclr", "findObject", "spanOf", "newobject", "growslice", "makeslice", "newarray",
		"makemap", "bulkBarrier", "arena"}
)

// bucketOf names the bucket one fully qualified Go function belongs to.
func bucketOf(fn string) string {
	for _, layer := range layerBuckets {
		if strings.HasPrefix(fn, "entk/internal/"+layer+".") {
			return layer
		}
	}
	switch {
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "runtime/internal/syscall."), strings.HasPrefix(fn, "internal/poll."),
		strings.HasPrefix(fn, "internal/syscall/"), strings.HasPrefix(fn, "os."),
		strings.HasPrefix(fn, "runtime.entersyscall"), strings.HasPrefix(fn, "runtime.exitsyscall"),
		strings.HasPrefix(fn, "runtime.reentersyscall"):
		return "syscall"
	case strings.HasPrefix(fn, "runtime."):
		name := strings.TrimPrefix(fn, "runtime.")
		for _, s := range gcFuncs {
			if strings.Contains(name, s) {
				return "gc"
			}
		}
		for _, s := range schedFuncs {
			if strings.Contains(name, s) {
				return "sched"
			}
		}
	}
	return "other"
}

// bucketOfStack charges one sample, given its frames leaf first. The
// leaf decides, except that a leaf in a helper package (sync, atomic,
// maps, hashing, time: "other" by itself) is charged to the nearest
// frame above it that belongs to a layer of this repository — a mutex
// the agent unlocks is the agent's cost.
func bucketOfStack(frames []string) string {
	if len(frames) == 0 {
		return "other"
	}
	if b := bucketOf(frames[0]); b != "other" {
		return b
	}
	for _, fn := range frames[1:] {
		if b := bucketOf(fn); slices.Contains(layerBuckets, b) {
			return b
		}
	}
	return "other"
}

// stackSample is one profile sample: frames leaf first, and its count.
type stackSample struct {
	frames []string
	count  int64
}

// cpuProfile collects a CPU profile in memory between start and stop.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("bench: cpu profile: %w", err)
	}
	return p, nil
}

// stop ends profiling and returns each bucket's share of the samples,
// the number of samples taken, and the busiest leaf functions ("bucket
// function share") for the -out file.
func (p *cpuProfile) stop() (shares map[string]float64, total int64, top []string, err error) {
	pprof.StopCPUProfile()
	samples, err := decodeProfile(p.buf.Bytes())
	if err != nil {
		return nil, 0, nil, err
	}
	shares, total = bucketShares(samples)
	type leaf struct {
		bucket, fn string
	}
	leaves := make(map[leaf]int64)
	for _, s := range samples {
		if len(s.frames) > 0 {
			leaves[leaf{bucketOfStack(s.frames), s.frames[0]}] += s.count
		}
	}
	keys := make([]leaf, 0, len(leaves))
	for k := range leaves {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if leaves[keys[i]] != leaves[keys[j]] {
			return leaves[keys[i]] > leaves[keys[j]]
		}
		return keys[i].fn < keys[j].fn
	})
	for _, k := range keys[:min(len(keys), 25)] {
		top = append(top, fmt.Sprintf("%s %s %.4f", k.bucket, k.fn, float64(leaves[k])/float64(total)))
	}
	return shares, total, top, nil
}

// bucketShares turns samples into bucket shares that sum to 1. A
// profile without samples (a region that slept) yields no shares.
func bucketShares(samples []stackSample) (map[string]float64, int64) {
	var total int64
	counts := make(map[string]int64)
	for _, s := range samples {
		counts[bucketOfStack(s.frames)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuBuckets))
	if total == 0 {
		return shares, 0
	}
	for _, b := range cpuBuckets {
		shares[b] = float64(counts[b]) / float64(total)
	}
	return shares, total
}

// decodeProfile reads a gzipped pprof profile: every sample's stack as
// function names, leaf first (inlined frames expanded), with the first
// value of the sample ("samples/count").
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("bench: cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("bench: cpu profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []rawSample
		locFuncs = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcName = make(map[uint64]uint64)   // function id -> string index
		strs     []string
	)
	// repeated reads a repeated integer field in either encoding.
	repeated := func(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
		if packed == nil {
			return append(dst, v), nil
		}
		for len(packed) > 0 {
			x, n := binary.Uvarint(packed)
			if n <= 0 {
				return nil, errProto
			}
			dst, packed = append(dst, x), packed[n:]
		}
		return dst, nil
	}
	err = eachField(raw, func(num int, _ uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			var values []uint64
			err := eachField(b, func(num int, v uint64, b []byte) (err error) {
				switch num {
				case 1: // location_id, leaf first
					s.locs, err = repeated(s.locs, v, b)
				case 2: // value
					values, err = repeated(values, v, b)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
				samples = append(samples, s)
			}
		case 4: // Location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
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
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx > 0 && idx < uint64(len(strs)) {
					st.frames = append(st.frames, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errProto = errors.New("bench: malformed profile protobuf")

// eachField walks one protobuf message, calling fn with the varint value
// (wire type 0, payload nil) or the payload (wire type 2) of every field.
func eachField(b []byte, fn func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
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
			// A sub-slice of a non-nil slice is non-nil even when empty,
			// which is how callers tell a payload from a varint.
			if err := fn(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
