// Package fragvisor is the public API of the FragVisor reproduction: a
// resource-borrowing distributed hypervisor (EuroSys '23, "Aggregate VM:
// Why Reduce or Evict VM's Resources When You Can Borrow Them From Other
// Nodes?") built as a deterministic functional simulation.
//
// The package exposes the pieces a user composes:
//
//   - Testbed: a simulated cluster (nodes, pCPUs, InfiniBand-class fabric,
//     client Ethernet, SSDs) with the paper's hardware defaults.
//   - Aggregate VMs via the three profiles the paper evaluates:
//     FragVisor (kernel DSM + contextual optimization, multiqueue +
//     DSM-bypass virtio, optimized NUMA-aware guest, vCPU mobility),
//     GiantVM (the prior-art distributed hypervisor baseline), and
//     Overcommit (a single-node VM time-sharing the k cores of its
//     own one-node testbed).
//   - The paper's workloads (NPB, LEMP, OpenLambda, DSM microbenchmarks),
//     distributed checkpoint/restart, and the experiment runners that
//     regenerate every evaluation figure, including Fig 14's FragBFF
//     scheduling trace.
//
// A minimal session:
//
//	tb := fragvisor.NewTestbed(4)
//	defer tb.Close()
//	vm := tb.NewFragVisorVM(4, 8<<30) // 4 vCPUs borrowed from 4 nodes
//	elapsed := fragvisor.RunNPB(vm, "EP", 0.1)
//
// Everything runs in virtual time on one OS thread and is bit-for-bit
// reproducible for a given seed.
package fragvisor

import (
	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/giantvm"
	"repro/internal/hypervisor"
	"repro/internal/metrics"
	"repro/internal/overcommit"
	"repro/internal/sim"
	"repro/internal/vcpu"
	"repro/internal/workload"
)

// Re-exported core types. The aliases give external users a stable entry
// point while the implementation lives in internal packages.
type (
	// VM is a running virtual machine (Aggregate or single-node).
	VM = hypervisor.VM
	// Ctx is the execution context workload programs receive.
	Ctx = vcpu.Ctx
	// Proc is a simulated process.
	Proc = sim.Proc
	// Time is virtual time in nanoseconds.
	Time = sim.Time
	// Table is a printable result table.
	Table = metrics.Table
	// CheckpointImage is a taken distributed checkpoint.
	CheckpointImage = checkpoint.Image
	// LEMPResult reports web-stack throughput and latency.
	LEMPResult = workload.LEMPResult
	// LambdaResult reports serverless phase times.
	LambdaResult = workload.LambdaResult
)

// Common duration units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Testbed is a simulated cluster plus its simulation environment.
type Testbed struct {
	Env     *sim.Env
	Cluster *cluster.Cluster
}

// NewTestbed builds a cluster of n nodes with the paper's hardware: 2.1
// GHz 8-core Xeons, 32 GiB RAM, 56 Gbps / 1.5 us fabric, 1 GbE client
// network, 500 MB/s SSDs.
func NewTestbed(n int) *Testbed {
	env := sim.NewEnv()
	return &Testbed{Env: env, Cluster: cluster.NewDefault(env, n)}
}

// NewFragVisorVM creates an Aggregate VM with nVCPU vCPUs spread one per
// node (round-robin) under the FragVisor profile.
func (tb *Testbed) NewFragVisorVM(nVCPU int, memBytes int64) *VM {
	nodes := make([]int, len(tb.Cluster.Nodes))
	for i := range nodes {
		nodes[i] = i
	}
	return hypervisor.New(hypervisor.FragVisorConfig(
		tb.Cluster, hypervisor.SpreadPlacement(nodes, nVCPU), memBytes))
}

// NewGiantVM creates the GiantVM-baseline distributed VM, one vCPU per
// node.
func (tb *Testbed) NewGiantVM(nVCPU int, memBytes int64) *VM {
	nodes := make([]int, len(tb.Cluster.Nodes))
	for i := range nodes {
		nodes[i] = i
	}
	return giantvm.New(tb.Cluster, nodes, nVCPU, memBytes)
}

// NewOvercommitVM creates the overcommitment baseline on a testbed of its
// own: one node with k cores, time-shared by nVCPU vCPUs. Close it with
// vm.Env.Close().
func NewOvercommitVM(nVCPU, k int, memBytes int64) *VM {
	p := cluster.DefaultParams()
	p.CoresPerNode = k
	return overcommit.New(cluster.New(sim.NewEnv(), 1, p), 0, nVCPU, memBytes)
}

// Run drives the simulation until no events remain.
func (tb *Testbed) Run() { tb.Env.Run() }

// Close ends the testbed's simulation: every process still parked is
// stopped and its goroutine exits, so the testbed and its VMs can be
// garbage-collected. Results already read stay valid; the testbed cannot
// run again. Close is idempotent.
func (tb *Testbed) Close() { tb.Env.Close() }

// RunNPB runs one multi-process NAS Parallel Benchmark kernel (one serial
// instance per vCPU) and returns the wall time. scale shrinks compute and
// dataset proportionally (1.0 = paper class sizes).
func RunNPB(vm *VM, kernel string, scale float64) Time {
	return workload.RunMultiProcess(vm, workload.ByName(kernel), scale)
}

// NPBKernels lists the available NPB kernel names.
func NPBKernels() []string {
	out := make([]string, len(workload.Suite))
	for i, b := range workload.Suite {
		out[i] = b.Name
	}
	return out
}

// RunLEMP runs the NGINX+PHP web stack with the given per-request
// processing time and returns client-observed results.
func RunLEMP(vm *VM, processing Time, requests int) LEMPResult {
	cfg := workload.DefaultLEMP(processing)
	if requests > 0 {
		cfg.Requests = requests
	}
	return workload.RunLEMP(vm, cfg)
}

// RunServerless runs the OpenLambda picture-processing function on every
// vCPU in parallel and returns the mean phase breakdown.
func RunServerless(vm *VM, scale float64) LambdaResult {
	return workload.RunOpenLambda(vm, scale)
}

// Checkpoint takes a distributed checkpoint of the VM onto the disk of
// the given node.
func Checkpoint(p *Proc, vm *VM, node int) *CheckpointImage {
	return checkpoint.Take(p, vm, node)
}

// Restore reloads a checkpoint image into the VM.
func Restore(p *Proc, vm *VM, img *CheckpointImage) Time {
	return checkpoint.Restore(p, vm, img)
}

// ExperimentNames lists the reproducible paper figures.
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment regenerates one paper figure at the given scale
// (1.0 = paper scale; 0.1 is the documented default).
func RunExperiment(name string, scale float64, seed int64) (*Table, error) {
	return experiments.Run(name, experiments.Options{Scale: scale, Seed: seed})
}
