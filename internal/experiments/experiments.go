// Package experiments reproduces every figure of the paper's evaluation
// (§2 Fig 1, §7.1 Figs 4–7 and the checkpoint study, §7.2 Figs 8–13, §7.3
// Fig 14) as deterministic simulation runs that print the same rows the
// paper plots. Each runner builds fresh clusters and VMs, drives the
// workload through the public hypervisor profiles, and returns a
// metrics.Table; the cmd/fragbench binary and the repository's
// testing.B benchmarks are thin wrappers over these runners.
//
// Absolute numbers come from the simulation's calibrated cost model and
// are not expected to match the paper's testbed; the shapes — who wins,
// by roughly what factor, where crossovers fall — are the reproduction
// target. EXPERIMENTS.md records measured-vs-paper for every run.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cluster"
	"repro/internal/giantvm"
	"repro/internal/hypervisor"
	"repro/internal/metrics"
	"repro/internal/overcommit"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Options tunes experiment size. Scale multiplies workload compute times
// and dataset sizes (1.0 = paper scale); smaller values run faster with
// preserved ratios.
type Options struct {
	Scale float64
	Seed  int64
	// Trace, when non-nil, attaches every simulation environment the
	// experiment builds to the session, so one run yields one coherent
	// causal trace across all compared systems (cmd/fragbench -trace
	// sets it). Nil runs are untraced and pay no tracing cost.
	Trace *trace.Session
	// Acct, when non-nil, registers every cluster the experiment builds,
	// so per-node fabric traffic can be reported after the run.
	Acct *Traffic
	// Topo, when non-nil, selects the inter-hypervisor fabric topology
	// for every cluster the experiment builds (nil = flat, the same
	// fabric topo.FlatSpec() builds).
	Topo *topo.Spec

	// envs records every environment newEnv builds during one Run call,
	// so Run closes them all when the runner returns.
	envs *envSet
}

// envSet is the environments one Run call built.
type envSet []*sim.Env

// close ends every recorded environment (sim.Env.Close), so the worker
// goroutines of finished worlds exit instead of pinning them in memory.
func (s *envSet) close() {
	for _, env := range *s {
		env.Close()
	}
}

// DefaultOptions runs at 1/10 of paper scale.
func DefaultOptions() Options { return Options{Scale: 0.1, Seed: 42} }

// QuickOptions is the scale of the testdata goldens and the -short
// benchmarks.
func QuickOptions() Options { return Options{Scale: 0.01, Seed: 42} }

// ErrScale is wrapped by the error Run and RunSweep return for a
// workload scale that is not a finite number above zero.
var ErrScale = errors.New("experiments: scale must be finite and > 0")

func checkScale(scale float64) error {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("%w, got %v", ErrScale, scale)
	}
	return nil
}

// guestMem is the guest RAM given to workload VMs.
const guestMem = 16 << 30

// newEnv builds the simulation environment for one compared system,
// attaching it to the options' trace session when tracing is on and
// recording it for Run to close. Tracers must be installed before
// anything caches the environment's trace context, so every builder goes
// through here first.
func (o Options) newEnv(label string) *sim.Env {
	env := sim.NewEnv()
	if o.envs != nil {
		*o.envs = append(*o.envs, env)
	}
	if o.Trace != nil {
		o.Trace.Attach(env, label)
	}
	return env
}

// observe registers a freshly built cluster for per-node traffic
// accounting when the options ask for it.
func (o Options) observe(label string, c *cluster.Cluster) *cluster.Cluster {
	if o.Acct != nil {
		o.Acct.Register(label, c)
	}
	return c
}

// params returns the default cluster parameters with the options' fabric
// topology applied.
func (o Options) params() cluster.Params {
	p := cluster.DefaultParams()
	p.Topo = o.Topo
	return p
}

// newCluster builds an n-node cluster on the options' fabric topology.
func (o Options) newCluster(env *sim.Env, n int) *cluster.Cluster {
	return cluster.New(env, n, o.params())
}

// newFragVM builds a FragVisor Aggregate VM with one vCPU per node on a
// fresh simulated cluster.
func newFragVM(o Options, n int) *hypervisor.VM { return newFragVMWith(o, n, nil) }

// newFragVMWith is newFragVM with the configuration mutated (a nil
// mutate changes nothing) before the VM is built.
func newFragVMWith(o Options, n int, mutate func(*hypervisor.Config)) *hypervisor.VM {
	env := o.newEnv(fmt.Sprintf("fragvisor/%dnode", n))
	c := o.observe("fragvisor", o.newCluster(env, n))
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	cfg := hypervisor.FragVisorConfig(c, hypervisor.SpreadPlacement(nodes, n), guestMem)
	if mutate != nil {
		mutate(&cfg)
	}
	return hypervisor.New(cfg)
}

// newFragVMVanillaGuest is FragVisor with the unpatched guest (Fig 10).
func newFragVMVanillaGuest(o Options, n int) *hypervisor.VM {
	env := o.newEnv(fmt.Sprintf("fragvisor-vanilla/%dnode", n))
	c := o.observe("fragvisor-vanilla", o.newCluster(env, n))
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	cfg := hypervisor.FragVisorConfig(c, hypervisor.SpreadPlacement(nodes, n), guestMem)
	cfg.Guest.Optimized = false
	cfg.Guest.NUMAAware = false
	return hypervisor.New(cfg)
}

// newGiantVM builds the GiantVM baseline with one vCPU per node.
func newGiantVM(o Options, n int) *hypervisor.VM {
	env := o.newEnv(fmt.Sprintf("giantvm/%dnode", n))
	c := o.observe("giantvm", o.newCluster(env, n))
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return giantvm.New(c, nodes, n, guestMem)
}

// newOvercommitVM builds a single-node VM with nVCPU vCPUs on a node
// with k cores.
func newOvercommitVM(o Options, nVCPU, k int) *hypervisor.VM {
	env := o.newEnv(fmt.Sprintf("overcommit/%dvcpu-%dpcpu", nVCPU, k))
	p := o.params()
	p.CoresPerNode = k
	c := o.observe("overcommit", cluster.New(env, 1, p))
	return overcommit.New(c, 0, nVCPU, guestMem)
}

// newSingleMachineVM builds a non-overcommitted single-node VM: n vCPUs on
// n pCPUs — the "vanilla Linux single machine" baseline of Fig 1.
func newSingleMachineVM(o Options, n int) *hypervisor.VM {
	env := o.newEnv(fmt.Sprintf("single-machine/%dvcpu", n))
	c := o.observe("single-machine", o.newCluster(env, 1))
	return overcommit.New(c, 0, n, guestMem)
}

// Runner produces one figure's table.
type Runner func(Options) *metrics.Table

// registry maps experiment ids to runners. Populated by init functions in
// the per-figure files.
var registry = map[string]Runner{}

func register(name string, r Runner) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("experiments: duplicate runner %q", name))
	}
	registry[name] = r
}

// Names returns all experiment ids, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id. Every environment the experiment
// built is closed before Run returns, panics included; the table, the
// trace session and the traffic accounting stay readable.
func Run(name string, o Options) (*metrics.Table, error) {
	r, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	if err := checkScale(o.Scale); err != nil {
		return nil, err
	}
	o.envs = new(envSet)
	defer o.envs.close()
	return r(o), nil
}
