package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// An instance is one workload's generated inputs, ready to run. Ops run
// one at a time on one goroutine.
type instance interface {
	// len is the number of distinct ops before the inputs repeat.
	len() int
	// kind names op i's kind, for per-kind timings.
	kind(i int) string
	// run executes op i. It is the only call the benchmark times.
	run(i int) error
	// output renders the simulated output of the op just run; it must be
	// the same every time that op runs.
	output() []byte
	// counts returns exact work counts over every op run so far.
	counts() map[string]float64
	// check verifies the workload's invariants over every op run so far.
	check() error
}

// workload describes how to generate one workload's inputs from a seed.
type workload struct {
	name string
	// pass is the number of ops in one pass: every pass holds the same
	// mix of op kinds, so runs stop on pass boundaries.
	pass int
	// fixed is the number of leading ops the digest covers and the traced
	// pass repeats. It is sized to a few host seconds so the traced pass
	// fits its budget: whole passes, except for the soak, whose pass is
	// one whole world and whose list is that world's first half.
	fixed int
	// stateful marks a workload whose ops must run in order on one
	// instance, so the timed phase continues after the warm-up op instead
	// of starting over.
	stateful bool
	// build generates the inputs; traced instances also gather work
	// counts that need extra accounting.
	build func(seed int64, traced bool) instance
}

// Workload sizes. They are part of the benchmark's definition, not
// options: changing one starts a new baseline.
const (
	figureScale  = 0.005
	soakVMs      = 280
	soakWaves    = 6
	sweepScale   = 0.05
	sweepSeeds   = 2048
	chaosScale   = 0.02
	chaosPerKind = 256
)

// figureNames is the figures workload's pass: every paper figure but
// fig12, whose LEMP runs have a floor of ten requests, so it costs five
// host seconds at any scale and would be half of every pass. fig1 still
// runs the LEMP path. fig4 is first because set-up's warm-up op is op 0
// and fig4 is cheap.
var figureNames = []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig13", "fig14", "fig1"}

// figurePasses is how many passes the figures inputs hold, each with its
// own seed, before they repeat.
const figurePasses = 64

// sweepKinds is fragsweep's default fleet grid plus the failure-path soak.
var sweepKinds = []string{"fleetsoak", "fleetsoak-evict", "fleetsoak-resize", "fleetchurn"}

// chaosKinds orders the chaos workloads within a pass; a cheap fleet
// episode comes first because op 0 is set-up's warm-up op.
var chaosKinds = []string{chaos.WorkloadFleetConsolidate, chaos.WorkloadFleetEvict,
	chaos.WorkloadFleetResize, chaos.WorkloadVM}

// workloads returns the four workloads; quick shrinks each to a few ops
// so tests can run every path.
func workloads(quick bool) []workload {
	figs, passes, vms, waves, seeds, eps := figureNames, figurePasses, soakVMs, soakWaves, sweepSeeds, chaosPerKind
	sweepFixed, chaosFixed := 512, 256
	if quick {
		figs, passes, vms, waves, seeds, eps = []string{"fig4", "fig11", "fig13"}, 2, 40, 1, 2, 1
		sweepFixed, chaosFixed = 8, 4
	}
	soakOps := waves * int(soakWindow/sim.Second)
	return []workload{
		{name: "figures", pass: len(figs), fixed: len(figs),
			build: func(seed int64, traced bool) instance { return newFigureRun(seed, figs, passes, traced) }},
		{name: "fleet-soak", pass: soakOps, fixed: soakOps / 2, stateful: true,
			build: func(seed int64, traced bool) instance { return newSoak(seed, vms, waves) }},
		{name: "fleet-sweep", pass: len(sweepKinds), fixed: sweepFixed,
			build: func(seed int64, traced bool) instance { return newFleetSweep(seed, seeds) }},
		{name: "chaos", pass: len(chaosKinds), fixed: chaosFixed,
			build: func(seed int64, traced bool) instance { return newChaosRun(seed, eps) }},
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads(false) {
		out = append(out, w.name)
	}
	return out
}

func lookup(name string, quick bool) (workload, bool) {
	for _, w := range workloads(quick) {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// protect runs fn, turning a panic into an error.
func protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}

// fabricCounts adds a run's per-node fabric egress to the fabric.msgs and
// fabric.bytes totals.
func fabricCounts(tr *experiments.Traffic, into map[string]float64) {
	for k, v := range tr.Counters().Snapshot() {
		kind, _, _ := strings.Cut(k, ".")
		into["fabric."+kind] += float64(v)
	}
}

// figureRun is the figures workload: op i runs one figure; pass k runs
// every figure with the k-th seed derived from the run's seed.
type figureRun struct {
	names  []string
	passes int
	seed   int64
	traced bool
	last   *metrics.Table
	work   map[string]float64
}

func newFigureRun(seed int64, names []string, passes int, traced bool) *figureRun {
	return &figureRun{names: names, passes: passes, seed: seed, traced: traced, work: map[string]float64{}}
}

func (f *figureRun) len() int          { return len(f.names) * f.passes }
func (f *figureRun) kind(i int) string { return f.names[i%len(f.names)] }

func (f *figureRun) run(i int) error {
	o := experiments.Options{Scale: figureScale, Seed: f.seed*int64(f.passes) + int64(i/len(f.names)) + 1}
	if f.traced {
		o.Acct = experiments.NewTraffic()
	}
	return protect(func() error {
		tab, err := experiments.Run(f.kind(i), o)
		if err != nil {
			return err
		}
		if len(tab.Rows) == 0 {
			return fmt.Errorf("%s: empty table", f.kind(i))
		}
		f.last = tab
		if o.Acct != nil {
			fabricCounts(o.Acct, f.work)
		}
		return nil
	})
}

func (f *figureRun) output() []byte             { return []byte(f.last.String()) }
func (f *figureRun) counts() map[string]float64 { return f.work }
func (f *figureRun) check() error               { return nil }

// The soak world: a 32-node fleet with auto-reclaim, a deliberately
// aggressive 2 ms consolidation tick (the cost this workload exists to
// measure), waves of arrivals at about two thirds of capacity, and an
// owner reclaiming its lent capacity every few seconds.
const (
	soakNodes        = 32
	soakWindow       = 60 * sim.Second
	soakTick         = 2 * sim.Millisecond
	soakReclaimEvery = 5 * sim.Second
)

// soakSizes and soakClasses are the vCPU-size and priority mixes of
// fleet.GenerateBurst, one entry per tenth of the requests.
var (
	soakSizes   = []int{1, 1, 1, 2, 2, 2, 4, 4, 8, 12}
	soakClasses = []fleet.Class{fleet.Critical, fleet.Critical, fleet.Batch, fleet.Batch, fleet.Batch,
		fleet.Standard, fleet.Standard, fleet.Standard, fleet.Standard, fleet.Standard}
)

// soakRun is the fleet-soak workload: one fleet world driven through
// waves of seeded VM arrivals; op i advances it to simulated second i+1.
type soakRun struct {
	env    *sim.Env
	f      *fleet.Fleet
	ops    int
	logged int      // fleet events already rendered into an output
	heap   []uint64 // live heap every heapEvery simulated seconds
}

// heapEvery is how many simulated seconds pass between the soak's
// live-heap samples.
const heapEvery = 15

func newSoak(seed int64, vmsPerWave, waves int) *soakRun {
	const gig = int64(1) << 30
	env := sim.NewEnv()
	horizon := sim.Time(waves) * soakWindow
	f := fleet.New(env, fleet.Config{
		Nodes: soakNodes, CPUsPerNode: 8, MemPerNode: 32 * gig,
		Policy: sched.MinFrag, AutoReclaim: true,
		RebalanceEvery: soakTick, Horizon: horizon,
	})
	rng := rand.New(rand.NewSource(seed))
	for w := 0; w < waves; w++ {
		f.Submit(soakWave(rng, vmsPerWave, sim.Time(w)*soakWindow, w*vmsPerWave, 2*gig))
	}
	for at := soakReclaimEvery / 2; at < horizon; at += soakReclaimEvery {
		node := rng.Intn(soakNodes)
		env.At(at, func() { f.Reclaim(node) })
	}
	return &soakRun{env: env, f: f, ops: int(horizon / sim.Second)}
}

// soakWave draws one wave of n arrivals in [start, start+soakWindow).
// Its mix is fixed: the sizes and priorities of fleet.GenerateBurst in
// exact shares, and that generator's durations (20 s + Exp(80 s), at most
// 600 s) scaled down tenfold, taken at evenly spaced quantiles. Arrival
// i falls at a random point of the i-th of n equal slices of the window,
// so every simulated second sees the same number of arrivals, give or
// take one. So every seed offers the same load, second by second, and
// the world reaches steady state within a wave. The seed decides which
// request gets which size, priority and duration, and when within its
// slice each arrives.
func soakWave(rng *rand.Rand, n int, start sim.Time, firstID int, memPerCPU int64) []fleet.Request {
	sizes, classes, durs := rng.Perm(n), rng.Perm(n), rng.Perm(n)
	arrivals := make([]sim.Time, n)
	slice := int64(soakWindow) / int64(n)
	for i := range arrivals {
		arrivals[i] = start + sim.Time(int64(i)*slice+rng.Int63n(slice))
	}
	out := make([]fleet.Request, n)
	for i := range out {
		q := (float64(durs[i]) + 0.5) / float64(n)
		dur := min(2*sim.Second+sim.FromSeconds(-8*math.Log(1-q)), 60*sim.Second)
		vcpus := soakSizes[sizes[i]%len(soakSizes)]
		out[i] = fleet.Request{
			ID:       firstID + i + 1,
			VCPUs:    vcpus,
			MemBytes: int64(vcpus) * memPerCPU,
			Priority: soakClasses[classes[i]%len(soakClasses)],
			Arrival:  arrivals[i],
			Duration: dur,
		}
	}
	return out
}

func (s *soakRun) len() int        { return s.ops }
func (s *soakRun) kind(int) string { return "sim-second" }

func (s *soakRun) run(i int) error {
	if want := sim.Time(i) * sim.Second; s.env.Now() != want {
		return fmt.Errorf("soak op %d out of order (world is at %v)", i, s.env.Now())
	}
	return protect(func() error {
		s.env.RunUntil(sim.Time(i+1) * sim.Second)
		return nil
	})
}

// output renders the fleet's stats, the scheduled-event count and the
// fleet events logged during the op.
func (s *soakRun) output() []byte {
	evs := s.f.Events()
	b := fmt.Appendf(nil, "%+v scheduled=%d\n", s.f.Stats(), s.env.Scheduled())
	for _, ev := range evs[s.logged:] {
		b = fmt.Appendf(b, "%+v\n", ev)
	}
	s.logged = len(evs)
	if int(s.env.Now()/sim.Second)%heapEvery == 0 {
		s.heap = append(s.heap, liveHeap())
	}
	return b
}

func (s *soakRun) counts() map[string]float64 {
	st := s.f.Stats()
	return map[string]float64{
		"sim.events":       float64(s.env.Scheduled()),
		"sim.procs":        float64(s.env.Spawned()),
		"fleet.admitted":   float64(st.Admitted),
		"fleet.gangs":      float64(st.Gangs),
		"fleet.leases":     float64(st.Leases),
		"fleet.migrations": float64(st.Migrations),
		"fleet.handbacks":  float64(st.Handbacks),
		"fleet.max_queue":  float64(st.MaxQueue),
		"fleet.reclaims":   float64(st.Reclaims),
		"fleet.evictions":  float64(st.Evictions),
		"fleet.inflations": float64(st.Inflations),
		"fleet.requeues":   float64(st.Requeues),
	}
}

func (s *soakRun) check() error {
	if vs := s.f.VerifyReport(); len(vs) > 0 {
		return fmt.Errorf("fleet invariants violated: %d, first: %v", len(vs), vs[0])
	}
	if len(s.heap) > 1 && !heapSteady(s.heap) {
		return fmt.Errorf("live heap not steady: %v bytes, one sample every %d simulated seconds", s.heap, heapEvery)
	}
	return nil
}

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapSteady is the soak's steady-state rule: the last live-heap sample
// is within 50% of the first, plus 8 MB of slack for pool high-water
// marks.
func heapSteady(samples []uint64) bool {
	first, last := samples[0], samples[len(samples)-1]
	return last <= first+first/2+8<<20
}

// sweepCounts maps fleet.* work counts to the row names of the fleet
// soak table each sweep point returns.
var sweepCounts = map[string]string{
	"fleet.admitted": "admitted", "fleet.gangs": "gangs", "fleet.leases": "leases",
	"fleet.migrations": "migrations", "fleet.handbacks": "handbacks",
	"fleet.max_queue": "max_queue", "fleet.reclaims": "reclaims",
	"fleet.evictions": "evictions", "fleet.inflations": "inflations",
	"fleet.requeues": "requeues",
}

// fleetSweepRun is the fleet-sweep workload: op i runs grid point i,
// with the kinds interleaved so every pass of four holds one of each.
type fleetSweepRun struct {
	points []sweep.Point
	last   sweep.Result
	work   map[string]float64
}

func newFleetSweep(seed int64, seeds int) *fleetSweepRun {
	s := &fleetSweepRun{work: map[string]float64{}}
	for i := 0; i < seeds*len(sweepKinds); i++ {
		s.points = append(s.points, sweep.Point{
			Index:      i,
			Experiment: sweepKinds[i%len(sweepKinds)],
			Scale:      sweepScale,
			Seed:       seed*int64(seeds) + int64(i/len(sweepKinds)) + 1,
		})
	}
	return s
}

func (s *fleetSweepRun) len() int          { return len(s.points) }
func (s *fleetSweepRun) kind(i int) string { return s.points[i].Experiment }

// run sends the point through sweep.Run, as fragsweep does, so a panic
// becomes the point's error.
func (s *fleetSweepRun) run(i int) error {
	p := s.points[i]
	spec := sweep.Spec{Experiments: []string{p.Experiment}, Scales: []float64{p.Scale}, Seeds: []int64{p.Seed}}
	res, err := sweep.Run(spec, 1, func(p sweep.Point) (*metrics.Table, error) {
		return experiments.Run(p.Experiment, experiments.Options{Scale: p.Scale, Seed: p.Seed})
	})
	if err != nil {
		return err
	}
	s.last = res[0]
	for name, row := range sweepCounts {
		s.work[name] += s.last.Values[row]
	}
	return nil
}

func (s *fleetSweepRun) output() []byte             { return []byte(s.last.Table.String()) }
func (s *fleetSweepRun) counts() map[string]float64 { return s.work }
func (s *fleetSweepRun) check() error               { return nil }

// chaosRun is the chaos workload: op i runs episode i. Episodes of each
// chaos workload are generated from their own root seed and interleaved,
// so every pass of four holds one of each whatever the seed.
type chaosRun struct {
	eps  []chaos.Episode
	last int               // the op just run
	vs   []chaos.Violation // its verdicts
	work map[string]float64
}

func newChaosRun(seed int64, perKind int) *chaosRun {
	lists := make([][]chaos.Episode, len(chaosKinds))
	for k, kind := range chaosKinds {
		lists[k] = chaos.Generate(chaos.Config{Episodes: perKind, Seed: seed*int64(len(chaosKinds)) + int64(k),
			Scale: chaosScale, Workloads: []string{kind}})
	}
	c := &chaosRun{work: map[string]float64{}}
	for i := 0; i < perKind; i++ {
		for k := range chaosKinds {
			c.eps = append(c.eps, lists[k][i])
		}
	}
	return c
}

func (c *chaosRun) len() int          { return len(c.eps) }
func (c *chaosRun) kind(i int) string { return c.eps[i].Workload }

func (c *chaosRun) run(i int) error {
	c.last = i
	c.vs = chaos.Run(c.eps[i], chaos.Hooks{})
	for _, v := range c.vs {
		c.work["chaos.violations."+v.Oracle]++
	}
	return nil
}

// output is the episode and its verdicts, as a chaos report holds them.
func (c *chaosRun) output() []byte {
	b, err := json.Marshal(struct {
		Episode    chaos.Episode     `json:"episode"`
		Violations []chaos.Violation `json:"violations"`
	}{c.eps[c.last], c.vs})
	if err != nil {
		panic(err) // plain structs always marshal
	}
	return b
}

func (c *chaosRun) counts() map[string]float64 { return c.work }
func (c *chaosRun) check() error               { return nil }

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
