package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/metrics"
)

// A run sets up its inputs setupBlocks × setupBlock times, and every
// repetition's warm-up op must give the same output. setup_s is the
// median over blocks of the block's mean CPU time. A single set-up takes
// milliseconds and its time is bimodal, by whether a collection starts
// inside it, so the median of single times jumps between the two modes
// from one process to the next; a block mean averages over both. Each
// repetition starts, as a fresh process does, with a collected heap and
// no heap memory held from the OS: reusing the pages the previous
// repetition freed is faster by however much the background scavenger
// happened to return meanwhile, which varied set-up time by 25% from
// one process to the next. The count is fixed, not timed, because some
// simulations leave memory behind and the live heap must not depend on
// host speed.
const (
	setupBlocks = 7
	setupBlock  = 7
)

// maxProblems caps how many problems one run records.
const maxProblems = 20

// ledger holds what one run has seen: the first output of every op it
// ran, and every problem found so far.
type ledger struct {
	w         workload
	seed      int64
	seen      map[int][sha256.Size]byte
	problems  []string
	attempted int
	failed    int
}

func newLedger(w workload, seed int64) *ledger {
	return &ledger{w: w, seed: seed, seen: map[int][sha256.Size]byte{}}
}

func (s *ledger) problemf(format string, args ...any) {
	if len(s.problems) < maxProblems {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

// cpuTime returns the CPU time the process has used so far, all threads
// together. It leaves out time other processes held the CPU and, on a
// guest kernel that accounts steal time, time the host took it away, so
// it follows how busy the machine is far less than host time does.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// span is how long something took, in CPU time and in host time.
type span struct {
	cpu, wall time.Duration
}

// measure runs fn and returns its span.
func measure(fn func()) span {
	c, w := cpuTime(), time.Now()
	fn()
	return span{cpuTime() - c, time.Since(w)}
}

// do runs op i of inst, checks its output against every earlier run of
// op i, and returns the span of the op alone.
func (s *ledger) do(inst instance, i int) span {
	var err error
	d := measure(func() { err = inst.run(i) })
	s.attempted++
	if err != nil {
		s.failed++
		s.problemf("op %d (%s) failed: %v", i, inst.kind(i), err)
		return d
	}
	sum := sha256.Sum256(inst.output())
	if prev, ok := s.seen[i]; !ok {
		s.seen[i] = sum
	} else if prev != sum {
		s.problemf("op %d (%s) gave a different output than an earlier run of the same input", i, inst.kind(i))
	}
	return d
}

// finish checks an instance's invariants once the run is done with it.
func (s *ledger) finish(inst instance) {
	if err := inst.check(); err != nil {
		s.problemf("%s: %v", s.w.name, err)
	}
}

// setup generates the inputs and runs the warm-up op, repeatedly. It
// returns the last instance, with op 0 run, and the set-up CPU time.
func (s *ledger) setup() (instance, float64) {
	var blocks metrics.Dist
	var inst instance
	for b := 0; b < setupBlocks; b++ {
		var spent time.Duration
		for r := 0; r < setupBlock; r++ {
			if inst != nil {
				s.finish(inst)
				inst = nil // so the collection below frees it
			}
			debug.FreeOSMemory()
			spent += measure(func() {
				inst = s.w.build(s.seed, false)
				s.do(inst, 0)
			}).cpu
		}
		blocks.Add(spent.Seconds() / setupBlock)
	}
	return inst, blocks.Stats().P50
}

// digest hashes the outputs of ops 0..fixed-1 in order.
func (s *ledger) digest() string {
	h := sha256.New()
	for i := 0; i < s.w.fixed; i++ {
		sum, ok := s.seen[i]
		if !ok {
			s.problemf("op %d never completed, so the digest is incomplete", i)
			return ""
		}
		h.Write(sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (s *ledger) record(trace bool, m map[string]metric, kinds map[string]float64) *record {
	return &record{
		Workload:  s.w.name,
		Seed:      s.seed,
		Trace:     trace,
		Host:      fingerprint(),
		Digest:    s.digest(),
		Attempted: s.attempted,
		Failed:    s.failed,
		Correct:   s.failed == 0 && len(s.problems) == 0,
		Problems:  s.problems,
		Metrics:   m,
		KindP50ms: kinds,
	}
}

// opTimes collects CPU times of ops, overall and per kind, and the total
// span spent inside them.
type opTimes struct {
	all   metrics.Dist
	kinds map[string]*metrics.Dist
	busy  span
}

func (t *opTimes) add(kind string, d span) {
	ms := float64(d.cpu.Nanoseconds()) / 1e6
	t.all.Add(ms)
	if t.kinds == nil {
		t.kinds = map[string]*metrics.Dist{}
	}
	if t.kinds[kind] == nil {
		t.kinds[kind] = &metrics.Dist{}
	}
	t.kinds[kind].Add(ms)
	t.busy.cpu += d.cpu
	t.busy.wall += d.wall
}

func (t *opTimes) kindP50() map[string]float64 {
	out := map[string]float64{}
	for k, d := range t.kinds {
		out[k] = d.Stats().P50
	}
	return out
}

// runTimed is a run with tracing off: set-up, then ops until the host
// time spent inside ops reaches the budget, stopping on the pass
// boundary nearest to it, and never before ops 0..fixed-1 are done.
func runTimed(w workload, seed int64, seconds float64) (*record, error) {
	s := newLedger(w, seed)
	inst, setupS := s.setup()
	first := 0
	if w.stateful {
		first = 1
	}
	var t opTimes
	var passStart time.Duration
	for i := first; ; i++ {
		j := i % inst.len()
		if i >= inst.len() && j == 0 {
			// The inputs ran out: set them up again, untimed, and replay.
			s.finish(inst)
			inst = w.build(seed, false)
		}
		t.add(inst.kind(j), s.do(inst, j))
		if (i+1)%w.pass != 0 {
			continue
		}
		pass := t.busy.wall - passStart
		passStart = t.busy.wall
		if i+1 >= w.fixed && t.busy.wall.Seconds() >= seconds-pass.Seconds()/2 {
			break
		}
	}
	s.finish(inst)
	st := t.all.Stats()
	m := map[string]metric{
		"ops_per_cpu_s": {float64(st.N) / t.busy.cpu.Seconds(), "1/s"},
		"setup_s":       {setupS, "s"},
	}
	r := s.record(false, m, t.kindP50())
	r.Ops, r.OpP50ms, r.OpP95ms = st.N, st.P50, st.P95
	r.CPUs, r.WallS = t.busy.cpu.Seconds(), t.busy.wall.Seconds()
	return r, nil
}

// runTraced is the per-layer pass. After the same set-up, it runs ops
// 0..fixed-1 untraced, repeating them while the repetitions fit in a
// quarter of the budget, then the same number of times under a CPU
// profile with traced instances, so the whole pass takes about half the
// budget (at least two lists). Exact work counts come from the first
// traced repetition.
func runTraced(w workload, seed int64, seconds float64) (*record, error) {
	s := newLedger(w, seed)
	warm, _ := s.setup()
	s.finish(warm)
	var plain, traced opTimes
	list := func(tr bool, into *opTimes) instance {
		inst := w.build(seed, tr)
		for i := 0; i < w.fixed; i++ {
			into.add(inst.kind(i), s.do(inst, i))
		}
		s.finish(inst)
		return inst
	}
	inst := list(false, &plain)
	// Memory is read after a fixed amount of work, with the instance
	// still live, so it does not depend on how fast the host is.
	heap := liveHeap()
	runtime.KeepAlive(inst)
	reps := max(1, int(seconds/4/plain.busy.wall.Seconds()))
	for r := 1; r < reps; r++ {
		list(false, &plain)
	}

	var prof bytes.Buffer
	before := readRuntime()
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	var work map[string]float64
	for r := 0; r < reps; r++ {
		inst := list(true, &traced)
		if r == 0 {
			work = inst.counts()
		}
	}
	pprof.StopCPUProfile()
	after := readRuntime()

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	for _, mod := range cpuBuckets() {
		m["cpu."+mod] = metric{shares[mod], "fraction"}
	}
	for _, name := range countNames {
		m[name] = metric{work[name], "count"}
	}
	m["runtime.live_heap_mb"] = metric{float64(heap) / (1 << 20), "MB"}
	ops := float64(traced.all.N())
	m["runtime.alloc_mb_per_op"] = metric{(after.allocBytes - before.allocBytes) / (1 << 20) / ops, "MB"}
	m["runtime.gc_cycles_per_op"] = metric{(after.gcCycles - before.gcCycles) / ops, "count"}
	m["runtime.gc_cpu_frac"] = metric{(after.gcCPU - before.gcCPU) / (after.totalCPU - before.totalCPU), "fraction"}
	m["trace.overhead_pct"] = metric{100 * (traced.busy.cpu.Seconds()/plain.busy.cpu.Seconds() - 1), "%"}
	return s.record(true, m, plain.kindP50()), nil
}
