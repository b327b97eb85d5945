// Package cluster models the physical testbed: server nodes with
// processor-sharing pCPUs, RAM, SATA SSDs, and two interconnects — a
// low-latency high-bandwidth fabric between servers (InfiniBand in the
// paper) and a commodity Ethernet toward external clients.
//
// The default parameters mirror the paper's "echo" cluster: Xeon E5-2620 v4
// (2.1 GHz, 8 cores) with 32 GiB RAM per node, 56 Gbps / ~1.5 us InfiniBand
// via Mellanox ConnectX-4, 1 Gbps Ethernet, and a 500 MB/s SATA SSD.
package cluster

import (
	"fmt"

	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/topo"
)

// ClientID is the fabric endpoint address used by the external
// client/load-generator host ("fox" in the paper's artifact).
const ClientID = -1

// Params describes the hardware of every (identical) node and the
// interconnects.
type Params struct {
	CPUHz        float64  // per-core clock: cycles per second
	CoresPerNode int      // pCPUs available for VMs on each node
	RAMBytes     int64    // per-node physical memory
	FabricGbps   float64  // server-to-server bandwidth
	FabricLat    sim.Time // server-to-server one-way latency
	EthGbps      float64  // client network bandwidth
	EthLat       sim.Time // client network one-way latency
	SSDBps       float64  // SSD sequential bandwidth, bytes/second

	// Topo selects the inter-hypervisor fabric topology, compiled with
	// FabricGbps/FabricLat as the host-link parameters; nil means flat
	// (one switch, egress-only contention). The client Ethernet is
	// always flat — load generators sit outside the datacenter tree.
	Topo *topo.Spec
}

// DefaultParams returns the paper's testbed hardware.
func DefaultParams() Params {
	return Params{
		CPUHz:        2.1e9,
		CoresPerNode: 8,
		RAMBytes:     32 << 30,
		FabricGbps:   56,
		FabricLat:    1500 * sim.Nanosecond,
		EthGbps:      1,
		EthLat:       100 * sim.Microsecond,
		SSDBps:       500e6,
	}
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
	// Reliable is the shared ack/retransmit transport over Fabric for
	// blocking bulk senders (checkpoint chunks, fleet probes). With no
	// fault filter installed it degenerates to a raw fabric send, so
	// zero-fault runs are unaffected by its existence.
	Reliable *reliable.Transport
	Params   Params
}

// New builds a cluster of n nodes with the given parameters.
func New(env *sim.Env, n int, p Params) *Cluster {
	if n <= 0 {
		panic(fmt.Sprintf("cluster: node count %d must be positive", n))
	}
	if p.CPUHz <= 0 || p.CoresPerNode <= 0 {
		panic("cluster: invalid CPU parameters")
	}
	spec := p.Topo
	if spec == nil {
		spec = topo.FlatSpec()
	}
	if max := spec.Nodes(); max != 0 && n > max {
		panic(fmt.Sprintf("cluster: %d nodes do not fit the %s topology", n, spec))
	}
	fabric := spec.Build(env, "fabric", p.FabricGbps, p.FabricLat)
	c := &Cluster{
		Env:      env,
		Fabric:   fabric,
		Client:   topo.FlatSpec().Build(env, "client", p.EthGbps, p.EthLat),
		Reliable: reliable.New(env, fabric, reliable.DefaultParams()),
		Params:   p,
	}
	for i := 0; i < n; i++ {
		node := &Node{ID: i, RAM: p.RAMBytes, SSD: NewDisk(env, p.SSDBps)}
		for j := 0; j < p.CoresPerNode; j++ {
			node.PCPUs = append(node.PCPUs, sim.NewPS(env, p.CPUHz))
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
func (p Params) CyclesFor(d sim.Time) float64 {
	return d.Seconds() * p.CPUHz
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
