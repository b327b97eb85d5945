// Package vcpu implements FragVisor's distributed virtual CPUs.
//
// Each vCPU of an Aggregate VM runs as a thread of the hypervisor instance
// hosting its slice, pinned to one pCPU. vCPUs carry private state
// (registers, local APIC, timer) that needs no cross-node consistency, plus
// a replicated location table mapping every vCPU to its current node —
// the structure that lets any slice route IPIs and interrupts.
//
// The package provides the three distributed-vCPU mechanisms of the paper:
//
//   - IPI forwarding: inter-processor interrupts to a remote vCPU become
//     messages to the hypervisor instance hosting it (§5.2).
//   - Live vCPU migration: register dump, state transfer, re-pin on the
//     destination pCPU, and a location-table update broadcast (§6.2) —
//     the mobility mechanism that distinguishes a resource-borrowing
//     hypervisor from earlier distributed VMs.
//   - Execution contexts: workload code computes on whatever pCPU the
//     vCPU is currently pinned to, so overcommitment and consolidation
//     fall out of pCPU sharing.
package vcpu

import (
	"fmt"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// The distributed-vCPU costs every profile shares. They match the
// paper's measured migration latency of ~86 us average, of which 38 us is
// the register dump.
const (
	// ipiLocal is the cost of an IPI between vCPUs on the same node.
	ipiLocal = 200 * sim.Nanosecond
	// RegDump is the time to dump registers and FPU state at migration
	// start (the paper measures 38 us).
	RegDump = 38 * sim.Microsecond
	// restore is the destination-side cost to rebuild the vCPU thread,
	// re-pin it, and resume execution.
	restore = 40 * sim.Microsecond
	// StateBytes is the migrated vCPU state size on the wire.
	StateBytes = 16 << 10
	// locUpdateBytes is the size of a location-table update message.
	locUpdateBytes = 16
)

// Params is the part of the distributed-vCPU cost model that differs
// between profiles.
type Params struct {
	// RemoteWakeup is the destination-side latency from a cross-node
	// IPI's arrival to the target vCPU actually running the woken task:
	// interrupt injection into a halted vCPU, the VM entry, and the
	// guest scheduler picking the task up. FragVisor pays this on every
	// cross-slice wakeup; GiantVM's polling helper threads hide most of
	// it (its vCPUs never halt), which is why the paper finds GiantVM's
	// remote vCPU communication faster for short LEMP requests (§7.2).
	RemoteWakeup sim.Time
	// CPUEfficiency scales guest compute throughput: 1.0 runs at native
	// speed. GiantVM's QEMU-based virtualization (extra exits, emulated
	// paths, userspace I/O threads on the vCPU's core) costs a flat tax
	// that the paper observes as FragVisor's ~1.5x advantage even on
	// pure-compute NPB kernels (Fig 9).
	CPUEfficiency float64
}

// DefaultParams returns FragVisor's vCPU profile.
func DefaultParams() Params {
	return Params{RemoteWakeup: 800 * sim.Microsecond, CPUEfficiency: 1.0}
}

// GiantVMParams returns the baseline's vCPU cost model: its QEMU helper
// threads poll for cross-node events, so remote wakeups land almost
// immediately.
func GiantVMParams() Params {
	return Params{RemoteWakeup: 15 * sim.Microsecond, CPUEfficiency: 0.68}
}

// VCPU is one virtual CPU of an Aggregate VM.
type VCPU struct {
	id   int
	node int
	pcpu *sim.PS
}

// ID returns the vCPU index within the VM.
func (v *VCPU) ID() int { return v.id }

// Node returns the node currently hosting the vCPU.
func (v *VCPU) Node() int { return v.node }

// PCPU returns the physical CPU the vCPU is pinned to (nil before its
// first Repin).
func (v *VCPU) PCPU() *sim.PS { return v.pcpu }

// Manager is the distributed vCPU service of one Aggregate VM. Construct
// with NewManager.
type Manager struct {
	env     *sim.Env
	layer   *msg.Layer
	service *msg.Service
	params  Params
	vcpus   []*VCPU
	nodes   []int

	migrations    int64
	migrationTime sim.Time
	tr            *trace.Tracer
}

// NewManager creates the vCPU set. placement[i] is the node hosting vCPU
// i; nodes lists every slice of the VM for location broadcasts. No vCPU
// has a pCPU yet: the caller pins each with Repin before it runs
// (several vCPUs may share one pCPU — that is overcommitment).
func NewManager(env *sim.Env, layer *msg.Layer, nodes []int, placement []int, p Params) *Manager {
	if len(placement) == 0 {
		panic("vcpu: placement must be non-empty")
	}
	m := &Manager{
		env:     env,
		layer:   layer,
		service: layer.Register(fmt.Sprintf("vcpu%d", layer.Instance("vcpu"))),
		params:  p,
		nodes:   append([]int(nil), nodes...),
		tr:      trace.FromEnv(env),
	}
	for i := range placement {
		m.vcpus = append(m.vcpus, &VCPU{id: i, node: placement[i]})
	}
	for _, n := range nodes {
		m.service.Handle(n, m.handle)
	}
	return m
}

// N returns the number of vCPUs.
func (m *Manager) N() int { return len(m.vcpus) }

// VCPU returns vCPU i.
func (m *Manager) VCPU(i int) *VCPU {
	if i < 0 || i >= len(m.vcpus) {
		panic(fmt.Sprintf("vcpu: index %d out of range [0,%d)", i, len(m.vcpus)))
	}
	return m.vcpus[i]
}

// NodeOf implements guest.Notifier: the location-table lookup.
func (m *Manager) NodeOf(vcpu int) int { return m.VCPU(vcpu).node }

// Wakeup implements guest.Notifier: an IPI that invokes deliver when it
// reaches the vCPU's node.
func (m *Manager) Wakeup(p *sim.Proc, fromNode, toVCPU int, deliver func()) {
	m.IPI(p, fromNode, toVCPU, deliver)
}

// IPI sends an inter-processor interrupt to a vCPU. Same-node IPIs cost
// only local APIC delivery; cross-node IPIs become fabric messages routed
// by the location table (§5.2). deliver runs at the destination node when
// the interrupt lands; it may be nil.
func (m *Manager) IPI(p *sim.Proc, fromNode, toVCPU int, deliver func()) {
	dest := m.VCPU(toVCPU).node
	if dest == fromNode {
		p.Sleep(ipiLocal)
		if deliver != nil {
			m.env.Defer(0, deliver)
		}
		return
	}
	m.layer.Send(p.Span(), fromNode, dest, m.service, "ipi", locUpdateBytes, deliver)
}

// handle processes vCPU-service messages at a slice.
func (m *Manager) handle(msg *msg.Message) {
	switch msg.Kind {
	case "ipi":
		if msg.Payload != nil {
			if deliver, ok := msg.Payload.(func()); ok && deliver != nil {
				// Injection into a (possibly halted) vCPU plus guest
				// scheduling delay before the woken task runs.
				m.env.Defer(m.params.RemoteWakeup, deliver)
			}
		}
	case "migrate":
		// Destination-side admission of a migrating vCPU: rebuild the
		// thread and ack. The restore cost is charged before the ack so
		// the source observes the full handoff latency.
		m.env.Defer(restore, func() {
			msg.Reply(locUpdateBytes, nil)
		})
	case "locupdate":
		// Replicated location tables are canonical in the model; the
		// message exists for its traffic cost.
	default:
		panic(fmt.Sprintf("vcpu: unknown message kind %q", msg.Kind))
	}
}

// Migrate moves a vCPU to a node and pCPU: dump registers, ship state,
// restore at the destination, broadcast the new location to every other
// slice (§6.2). It returns the migration latency. Same-node calls just
// re-pin the vCPU at no cost.
func (m *Manager) Migrate(p *sim.Proc, vcpuID, destNode int, destPCPU *sim.PS) sim.Time {
	v := m.VCPU(vcpuID)
	if destPCPU == nil {
		panic("vcpu: Migrate needs a destination pCPU")
	}
	if v.node == destNode {
		v.pcpu = destPCPU
		return 0
	}
	start := p.Now()
	src := v.node
	sp := m.tr.Begin(p.Span(), trace.CatMigrate, src, "vcpu.migrate")
	p.Sleep(RegDump)
	if _, err := m.layer.Call(p, src, destNode, m.service, "migrate", StateBytes, vcpuID); err != nil {
		// An end was declared dead mid-handshake: the vCPU stays put,
		// and recovery re-pins it if its own slice is the dead one.
		m.tr.End(sp)
		return p.Now() - start
	}
	v.node = destNode
	v.pcpu = destPCPU
	for _, n := range m.nodes {
		if n != src && n != destNode {
			m.layer.Send(0, destNode, n, m.service, "locupdate", locUpdateBytes, vcpuID)
		}
	}
	m.tr.End(sp)
	d := p.Now() - start
	m.migrations++
	m.migrationTime += d
	return d
}

// Repin administratively moves a vCPU to a node and pCPU with no protocol
// traffic or cost. It is the boot and restart path: at boot each vCPU
// takes its first pCPU, and after a slice crash the vCPUs it hosted are
// rebuilt from checkpoint state on surviving nodes, where the dead node
// cannot participate in the live-migration handshake.
func (m *Manager) Repin(vcpuID, node int, pcpu *sim.PS) {
	if pcpu == nil {
		panic("vcpu: Repin needs a destination pCPU")
	}
	v := m.VCPU(vcpuID)
	v.node = node
	v.pcpu = pcpu
}

// Migrations returns the number of completed migrations and their mean
// latency (zero if none).
func (m *Manager) Migrations() (count int64, mean sim.Time) {
	if m.migrations == 0 {
		return 0, 0
	}
	return m.migrations, m.migrationTime / sim.Time(m.migrations)
}

// Ctx is a vCPU execution context handed to workload programs. All compute
// is charged to the pCPU the vCPU is pinned to at the moment of the call,
// so overcommitment slows programs down and migrations speed them up
// without the workload knowing.
type Ctx struct {
	P *sim.Proc
	M *Manager
	V *VCPU
}

// NewCtx builds an execution context for a vCPU.
func (m *Manager) NewCtx(p *sim.Proc, vcpuID int) *Ctx {
	return &Ctx{P: p, M: m, V: m.VCPU(vcpuID)}
}

// Compute consumes d of CPU service at native speed (longer under pCPU
// sharing or a CPUEfficiency below 1).
func (c *Ctx) Compute(d sim.Time) {
	eff := c.M.params.CPUEfficiency
	if eff <= 0 {
		eff = 1
	}
	if tr := c.M.tr; tr != nil {
		sp := tr.Begin(c.P.Span(), trace.CatCompute, c.V.node, "compute")
		c.V.pcpu.ConsumeTime(c.P, sim.Time(float64(d)/eff))
		tr.End(sp)
		return
	}
	c.V.pcpu.ConsumeTime(c.P, sim.Time(float64(d)/eff))
}

// Node returns the node currently hosting the context's vCPU.
func (c *Ctx) Node() int { return c.V.node }

// ID returns the vCPU id.
func (c *Ctx) ID() int { return c.V.id }
