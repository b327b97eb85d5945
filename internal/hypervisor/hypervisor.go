// Package hypervisor implements the resource-borrowing hypervisor: the
// paper's core contribution (§4–§6). It assembles an Aggregate VM from
// "VM slices" — hypervisor instances on the nodes contributing resources —
// and wires together the distributed services the slices share: the DSM
// for pseudo-physical memory, the distributed vCPU manager (IPI routing,
// live migration), the guest kernel model, and delegated virtio devices.
//
// A VM's placement names the node of each vCPU; the first is the
// bootstrap slice: it owns the DSM directory, backs guest memory, and
// hosts the physical devices. All other slices are companions; after boot
// every slice is a peer. The VM alone picks the core each vCPU runs on,
// by one rule (freePCPU) at boot, on migration and on restart.
// Consolidation — migrating vCPUs onto fewer nodes as resources free up —
// is the mobility feature that distinguishes a resource-borrowing
// hypervisor from earlier distributed VMs, and is exercised by FragBFF
// consolidation in the fleet control plane (package fleet).
//
// Baselines are expressed as configuration profiles of the same machinery:
// GiantVM (user-space DSM, no multiqueue, no DSM-bypass, vanilla guest, no
// mobility) and single-node overcommitment (all vCPUs time-sharing the
// k cores of one host, no DSM traffic). See packages giantvm and
// overcommit.
package hypervisor

import (
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vcpu"
	"repro/internal/virtio"
)

// Config assembles an Aggregate VM. Use FragVisorConfig, or the giantvm /
// overcommit packages, for the standard profiles.
type Config struct {
	Cluster   *cluster.Cluster
	Placement []int // the node of each vCPU; Placement[0] is the bootstrap slice
	MemBytes  int64 // guest RAM (bounds the guest heap)
	// MemoryNodes lists additional nodes contributing *memory-only* VM
	// slices (§4: a slice may consist of just RAM). They join the DSM
	// and the NUMA-aware guest spreads its arenas over them, but they
	// host no vCPUs.
	MemoryNodes []int

	Guest guest.Config
	DSM   dsm.Params
	VCPU  vcpu.Params

	Multiqueue bool
	DSMBypass  bool

	// Mobility enables vCPU migration. GiantVM lacks it.
	Mobility bool

	BootCost sim.Time // per-slice setup charged by Boot
}

// FragVisorConfig returns the paper's FragVisor profile: kernel-space DSM
// with contextual piggybacking, multiqueue + DSM-bypass virtio, the
// optimized NUMA-aware guest, and full mobility. The bootstrap slice
// hosts the physical NIC and SSD. The profile has no fault setting: a VM
// on a cluster with a fault injector (fault.New) is wired for faults
// through its fabric.
func FragVisorConfig(c *cluster.Cluster, placement []int, memBytes int64) Config {
	return Config{
		Cluster:    c,
		Placement:  placement,
		MemBytes:   memBytes,
		Guest:      guest.OptimizedConfig(),
		DSM:        dsm.DefaultParams(),
		VCPU:       vcpu.DefaultParams(),
		Multiqueue: true,
		DSMBypass:  true,
		Mobility:   true,
		BootCost:   2 * sim.Millisecond,
	}
}

// SpreadPlacement places vCPU i on node nodes[i%len(nodes)] — the
// distributed placement used throughout the evaluation.
func SpreadPlacement(nodes []int, nVCPU int) []int {
	if len(nodes) == 0 || nVCPU <= 0 {
		panic("hypervisor: SpreadPlacement needs nodes and vCPUs")
	}
	placement := make([]int, nVCPU)
	for i := range placement {
		placement[i] = nodes[i%len(nodes)]
	}
	return placement
}

// VM is a running Aggregate VM.
type VM struct {
	Env    *sim.Env
	Layer  *msg.Layer
	DSM    *dsm.DSM
	Kernel *guest.Kernel
	VCPUs  *vcpu.Manager
	Net    *virtio.NetDev
	Blk    *virtio.BlkDev
	Layout *mem.Layout

	cfg      Config
	nodes    []int // distinct slice nodes, bootstrap first
	booted   bool
	sliceSvc *msg.Service
	hbStop   func() // disarms the running failure detector; nil when none
	ctr      *metrics.Counters
	tr       *trace.Tracer
}

// New assembles (but does not boot) an Aggregate VM.
func New(cfg Config) *VM {
	if cfg.Cluster == nil || len(cfg.Placement) == 0 {
		panic("hypervisor: config needs a cluster and a placement")
	}
	if cfg.MemBytes <= 0 {
		panic("hypervisor: config needs guest memory")
	}
	env := cfg.Cluster.Env
	layer := msg.NewLayer(env, cfg.Cluster.Fabric)

	// Distinct slice nodes, bootstrap (vCPU0's node) first; memory-only
	// slices follow the compute slices.
	seen := map[int]bool{}
	var nodes []int
	for _, n := range cfg.Placement {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	for _, n := range cfg.MemoryNodes {
		if !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}

	vm := &VM{Env: env, Layer: layer, Layout: &mem.Layout{}, cfg: cfg, nodes: nodes,
		ctr: metrics.NewCounters(), tr: trace.FromEnv(env)}
	vm.DSM = dsm.New(env, layer, nodes, cfg.DSM)

	vm.VCPUs = vcpu.NewManager(env, layer, nodes, cfg.Placement, cfg.VCPU)
	for i, n := range cfg.Placement {
		vm.VCPUs.Repin(i, n, vm.freePCPU(i, n))
	}
	vm.Kernel = guest.New(env, vm.DSM, vm.Layout, vm.VCPUs, len(cfg.Placement),
		cfg.MemBytes, cfg.Guest)

	// The bootstrap slice owns the physical devices.
	owner := nodes[0]
	vm.Net = virtio.NewNet(env, vm.DSM, layer, vm.VCPUs, vm.Layout, cfg.Cluster.Client,
		virtio.Config{Owner: owner, Multiqueue: cfg.Multiqueue, Bypass: cfg.DSMBypass})
	vm.Blk = virtio.NewBlk(env, vm.DSM, layer, vm.VCPUs, vm.Layout, cfg.Cluster.Node(owner).SSD,
		virtio.Config{Owner: owner, Multiqueue: cfg.Multiqueue, Bypass: cfg.DSMBypass})
	return vm
}

// Config returns the VM's configuration.
func (vm *VM) Config() Config { return vm.cfg }

// Counters returns the VM's failure-detection and recovery counters
// (hb.*, recover.*).
func (vm *VM) Counters() *metrics.Counters { return vm.ctr }

// Nodes returns the distinct slice nodes, bootstrap first.
func (vm *VM) Nodes() []int { return append([]int(nil), vm.nodes...) }

// NVCPU returns the vCPU count.
func (vm *VM) NVCPU() int { return vm.VCPUs.N() }

// Boot starts the VM: the bootstrap slice contacts every companion slice
// (handshake + vCPU thread creation, §6.2) and charges the per-slice
// setup cost. Boot must be called from a process before workloads run.
func (vm *VM) Boot(p *sim.Proc) {
	if vm.booted {
		panic("hypervisor: VM booted twice")
	}
	vm.booted = true
	boot := vm.nodes[0]
	if vm.tr != nil {
		sp := vm.tr.Begin(p.Span(), trace.CatTask, boot, "boot")
		prev := p.Span()
		p.SetSpan(sp)
		defer func() {
			vm.tr.End(sp)
			p.SetSpan(prev)
		}()
	}
	for _, n := range vm.nodes[1:] {
		// A slice declared dead before it answered simply stays out.
		_, _ = vm.Layer.Call(p, boot, n, vcpuService(vm), "handshake", 256, nil)
	}
	p.Sleep(vm.cfg.BootCost * sim.Time(len(vm.nodes)))
}

// vcpuService returns a per-VM slice-management service. Each VM registers
// its own so multiple VMs can share a messaging layer.
func vcpuService(vm *VM) *msg.Service {
	if vm.sliceSvc == nil {
		vm.sliceSvc = vm.Layer.Register(fmt.Sprintf("slice%d", vm.Layer.Instance("slice")))
		for _, n := range vm.nodes {
			vm.sliceSvc.Handle(n, func(m *msg.Message) {
				switch m.Kind {
				case "handshake":
					m.Reply(64, nil)
				default:
					panic(fmt.Sprintf("hypervisor: unknown slice message %q", m.Kind))
				}
			})
		}
	}
	return vm.sliceSvc
}

// Run spawns a guest program on a vCPU and returns its process. With
// tracing enabled the program's whole lifetime becomes a root task span —
// the unit the critical-path analyzer attributes.
func (vm *VM) Run(vcpuID int, name string, fn func(*vcpu.Ctx)) *sim.Proc {
	return vm.Env.Spawn(name, func(p *sim.Proc) {
		if vm.tr != nil {
			sp := vm.tr.Begin(0, trace.CatTask, vm.VCPUs.NodeOf(vcpuID), name)
			p.SetSpan(sp)
			defer vm.tr.End(sp)
		}
		fn(vm.VCPUs.NewCtx(p, vcpuID))
	})
}

// MigrateVCPU live-migrates a vCPU to the given node, onto the core
// freePCPU picks there, returning the migration latency. It panics for
// profiles without mobility (GiantVM).
func (vm *VM) MigrateVCPU(p *sim.Proc, vcpuID, node int) sim.Time {
	if !vm.cfg.Mobility {
		panic("hypervisor: this profile does not implement vCPU migration")
	}
	return vm.VCPUs.Migrate(p, vcpuID, node, vm.freePCPU(vcpuID, node))
}

// freePCPU is the one rule that places a vCPU, at boot, on migration
// and on restart alike: the pCPU on node holding the fewest of the VM's
// other vCPUs, the lowest index on a tie. So a vCPU gets a core of its
// own while the node has one, and vCPUs share cores round-robin once it
// has none. New pins the vCPUs in ID order, so a vCPU not placed yet
// (no pCPU) holds nothing. It sees only this VM's vCPUs.
func (vm *VM) freePCPU(vcpuID, node int) *sim.PS {
	pcpus := vm.cfg.Cluster.Node(node).PCPUs
	holders := make([]int, len(pcpus))
	for i := 0; i < vm.VCPUs.N(); i++ {
		if v := vm.VCPUs.VCPU(i); i != vcpuID && v.Node() == node && v.PCPU() != nil {
			holders[slices.Index(pcpus, v.PCPU())]++
		}
	}
	return pcpus[slices.Index(holders, slices.Min(holders))]
}

// VCPUNodes returns the node currently hosting each vCPU.
func (vm *VM) VCPUNodes() []int {
	out := make([]int, vm.VCPUs.N())
	for i := range out {
		out[i] = vm.VCPUs.NodeOf(i)
	}
	return out
}

// Consolidated reports whether all vCPUs currently share one node.
func (vm *VM) Consolidated() bool {
	nodes := vm.VCPUNodes()
	for _, n := range nodes[1:] {
		if n != nodes[0] {
			return false
		}
	}
	return true
}
