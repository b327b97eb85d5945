package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	rtmetrics "runtime/metrics"
	"strings"

	"repro/internal/chaos"
)

// modules are the repro/internal packages, the layers CPU time is
// attributed to.
var modules = []string{
	"balloon", "chaos", "checkpoint", "cluster", "dsm", "experiments", "fault",
	"faulttest", "fleet", "giantvm", "guest", "hypervisor", "mem", "metrics",
	"msg", "netsim", "overcommit", "reliable", "sched", "sim", "sweep", "topo",
	"trace", "vcpu", "virtio", "workload",
}

// Buckets for CPU samples with no repro/internal frame.
const (
	bucketGC    = "runtime_gc"
	bucketOther = "runtime_other"
)

// cpuBuckets lists every bucket cpuShares reports.
func cpuBuckets() []string {
	return append(append([]string(nil), modules...), bucketGC, bucketOther)
}

// countNames are the exact work counts the traced pass reports. A
// workload that cannot observe a count reports 0 for it.
var countNames = []string{
	"sim.events", "sim.procs", "fabric.msgs", "fabric.bytes",
	"fleet.admitted", "fleet.gangs", "fleet.leases", "fleet.migrations",
	"fleet.handbacks", "fleet.max_queue", "fleet.reclaims", "fleet.evictions",
	"fleet.inflations", "fleet.requeues",
	"chaos.violations." + chaos.OracleProgress,
	"chaos.violations." + chaos.OracleCoherence,
	"chaos.violations." + chaos.OracleConservation,
	"chaos.violations." + chaos.OracleExactlyOnce,
	"chaos.violations." + chaos.OracleFabric,
	"chaos.violations." + chaos.OraclePanic,
}

// bucketOf attributes one sample's stack, innermost frame first, to the
// module of its innermost repro/internal frame. Stacks without one go to
// runtime_gc when a background GC worker is on them, else runtime_other.
func bucketOf(frames []string) string {
	const prefix = "repro/internal/"
	for _, f := range frames {
		if rest, ok := strings.CutPrefix(f, prefix); ok {
			mod := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				mod = rest[:i]
			}
			for _, m := range modules {
				if m == mod {
					return mod
				}
			}
			return bucketOther
		}
	}
	for _, f := range frames {
		if f == "runtime.gcBgMarkWorker" || f == "runtime.bgsweep" {
			return bucketGC
		}
	}
	return bucketOther
}

// cpuShares reads a gzipped runtime/pprof CPU profile and returns each
// bucket's share of the samples (all zero when there are none).
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				frames = append(frames, p.name(fn))
			}
		}
		counts[bucketOf(frames)] += s.count
		total += s.count
	}
	shares := map[string]float64{}
	for b, c := range counts {
		shares[b] = c / total
	}
	return shares, nil
}

// profile is the part of a pprof profile.proto message bucketing needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]uint64   // function id -> string table index
	strs     []string
}

type profSample struct {
	locs  []uint64 // leaf first
	count float64  // the first sample value: the number of samples
}

func (p *profile) name(fn uint64) string {
	if i := p.funcName[fn]; i < uint64(len(p.strs)) {
		return p.strs[i]
	}
	return ""
}

var errProto = errors.New("malformed protobuf")

// pbField is one decoded protobuf field.
type pbField struct {
	num  int
	wire int
	v    uint64 // varint and fixed-width values
	data []byte // length-delimited values
}

// pbFields decodes a protobuf message's fields in order.
func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			f.v, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, errProto
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, errProto
			}
			f.data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, errProto
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return nil, errProto
		}
		out = append(out, f)
	}
	return out, nil
}

// uints decodes a repeated integer field, packed or not.
func (f pbField) uints(dst []uint64) ([]uint64, error) {
	if f.wire != 2 {
		return append(dst, f.v), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}

// parseProfile decodes the profile.proto fields bucketing needs: samples
// (2), locations (4), functions (5) and the string table (6).
func parseProfile(b []byte) (*profile, error) {
	fields, err := pbFields(b)
	if err != nil {
		return nil, err
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]uint64{}}
	for _, f := range fields {
		switch f.num {
		case 2:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var s profSample
			var vals []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					s.locs, err = g.uints(s.locs)
				case 2:
					vals, err = g.uints(vals)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) > 0 {
				s.count = float64(int64(vals[0]))
			}
			p.samples = append(p.samples, s)
		case 4:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 4: // Line: function_id is field 1; inlined callees come first
					line, err := pbFields(g.data)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
					}
				}
			}
			p.locFuncs[id] = fns
		case 5:
			sub, err := pbFields(f.data)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
			}
			p.funcName[id] = name
		case 6:
			p.strs = append(p.strs, string(f.data))
		}
	}
	return p, nil
}

// runtimeSnapshot holds the runtime counters the traced pass differences.
type runtimeSnapshot struct {
	gcCycles, allocBytes, gcCPU, totalCPU float64
}

func readRuntime() runtimeSnapshot {
	s := []rtmetrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	return runtimeSnapshot{
		gcCycles:   float64(s[0].Value.Uint64()),
		allocBytes: float64(s[1].Value.Uint64()),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}
