// Package cluster models the physical testbed: server nodes with
// processor-sharing pCPUs, RAM, SATA SSDs, and two interconnects — a
// low-latency high-bandwidth fabric between servers (InfiniBand in the
// paper) and a commodity Ethernet toward external clients.
//
// The hardware constants and DefaultParams mirror the paper's "echo"
// cluster: Xeon E5-2620 v4 (2.1 GHz, 8 cores) with 32 GiB RAM per node,
// 56 Gbps / ~1.5 us InfiniBand via Mellanox ConnectX-4, 1 Gbps Ethernet,
// and a 500 MB/s SATA SSD.
package cluster

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
)

// ClientID is the fabric endpoint address used by the external
// client/load-generator host ("fox" in the paper's artifact).
const ClientID = -1

// The testbed hardware every profile shares: the per-core clock, the
// server-to-server fabric (InfiniBand), the client network (1 GbE) and
// each node's SSD.
const (
	cpuHz      = 2.1e9                 // per-core clock: cycles per second
	fabricGbps = 56                    // server-to-server bandwidth
	fabricLat  = 1500 * sim.Nanosecond // server-to-server one-way latency
	ethGbps    = 1                     // client network bandwidth
	ethLat     = 100 * sim.Microsecond // client network one-way latency
	ssdBps     = 500e6                 // SSD sequential bandwidth, bytes/second
)

// Params sizes every (identical) node and shapes the fabric.
type Params struct {
	CoresPerNode int   // pCPUs available for VMs on each node
	RAMBytes     int64 // per-node physical memory

	// Topo selects the inter-hypervisor fabric topology, compiled with
	// the fabric bandwidth and latency as the host-link parameters; nil
	// means flat (one switch, egress-only contention). The client
	// Ethernet is always flat — load generators sit outside the
	// datacenter tree.
	Topo *topo.Spec
}

// DefaultParams returns the paper's testbed node size on a flat fabric.
func DefaultParams() Params {
	return Params{CoresPerNode: 8, RAMBytes: 32 << 30}
}

// Node is one physical server.
type Node struct {
	ID    int
	PCPUs []*sim.PS
	RAM   int64
	SSD   *Disk
}

// Cluster is a set of identical nodes joined by the two interconnects.
type Cluster struct {
	Env    *sim.Env
	Nodes  []*Node
	Fabric *topo.Fabric // inter-hypervisor network (InfiniBand)
	Client *topo.Fabric // client-facing network (1 GbE)
	Params Params
}

// New builds a cluster of n nodes with the given parameters.
func New(env *sim.Env, n int, p Params) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: node count %d must be positive", n))
	}
	if p.CoresPerNode <= 0 {
		panic("cluster: invalid CPU parameters")
	}
	spec := p.Topo
	if spec == nil {
		spec = topo.FlatSpec()
	}
	if max := spec.Nodes(); max != 0 && n > max {
		panic(fmt.Sprintf("cluster: %d nodes do not fit the %s topology", n, spec))
	}
	c := &Cluster{
		Env:    env,
		Fabric: spec.Build(env, "fabric", fabricGbps, fabricLat),
		Client: topo.FlatSpec().Build(env, "client", ethGbps, ethLat),
		Params: p,
	}
	for i := 0; i < n; i++ {
		node := &Node{ID: i, RAM: p.RAMBytes, SSD: NewDisk(env, ssdBps)}
		for j := 0; j < p.CoresPerNode; j++ {
			node.PCPUs = append(node.PCPUs, sim.NewPS(env, cpuHz))
		}
		c.Nodes = append(c.Nodes, node)
	}
	return c
}

// NewDefault builds a cluster of n nodes with DefaultParams.
func NewDefault(env *sim.Env, n int) *Cluster {
	return New(env, n, DefaultParams())
}

// Node returns the node with the given ID, panicking on out-of-range IDs.
func (c *Cluster) Node(id int) *Node {
	if id < 0 || id >= len(c.Nodes) {
		panic(fmt.Sprintf("cluster: node %d out of range [0,%d)", id, len(c.Nodes)))
	}
	return c.Nodes[id]
}

// CyclesFor converts a CPU-time duration at full clock into cycles.
func CyclesFor(d sim.Time) float64 {
	return d.Seconds() * cpuHz
}

// Disk is a FIFO bandwidth-limited storage device.
type Disk struct {
	env      *sim.Env
	bps      float64
	nextFree sim.Time
	bytes    int64
	slowdown float64 // transfer-time multiplier; 0 means 1 (healthy)
}

// NewDisk returns a disk with the given sequential bandwidth.
func NewDisk(env *sim.Env, bps float64) *Disk {
	if bps <= 0 {
		panic("cluster: disk bandwidth must be positive")
	}
	return &Disk{env: env, bps: bps}
}

// SetSlowdown sets a transfer-time multiplier (>= 1) modelling a degraded
// device — media errors under retry, a saturating neighbor, thermal
// throttling. 1 restores full bandwidth. Used by fault injection.
func (d *Disk) SetSlowdown(f float64) {
	if f < 1 {
		panic(fmt.Sprintf("cluster: disk slowdown %v must be >= 1", f))
	}
	d.slowdown = f
}

// Slowdown returns the current transfer-time multiplier.
func (d *Disk) Slowdown() float64 {
	if d.slowdown < 1 {
		return 1
	}
	return d.slowdown
}

// Transfer blocks the process until n bytes have been read or written.
// Requests are serialized FIFO, modelling a single SATA queue.
func (d *Disk) Transfer(p *sim.Proc, n int64) {
	if n < 0 {
		panic("cluster: negative disk transfer")
	}
	now := d.env.Now()
	start := d.nextFree
	if start < now {
		start = now
	}
	done := start + sim.Time(float64(sim.FromSeconds(float64(n)/d.bps))*d.Slowdown())
	d.nextFree = done
	d.bytes += n
	p.Sleep(done - now)
}

// TotalBytes returns the cumulative bytes transferred.
func (d *Disk) TotalBytes() int64 { return d.bytes }
