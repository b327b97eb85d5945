// Failure detection and recovery for Aggregate VMs. An Aggregate VM
// borrows resources from lender nodes, so a lender crash takes a slice of
// the VM with it. The bootstrap slice detects the loss through unanswered
// heartbeat probes, declares the slice dead, reconciles the DSM, and (with
// package checkpoint) restarts the VM on the surviving slices — the
// recovery story of §6.4.
package hypervisor

import "repro/internal/sim"

// The failure detector probes every hbInterval, and a probe is answered
// when its round trip fits in hbTimeout. hbMissThreshold is how many
// consecutive unanswered probes declare a slice dead: two, so a single
// fault-injected drop or delay of a probe (or its reply) is not mistaken
// for a crash.
const (
	hbInterval      = 2 * sim.Millisecond
	hbTimeout       = sim.Millisecond
	hbMissThreshold = 2
)

// Alive reports whether a slice node is still considered part of the VM:
// the DSM has not fenced it out. The fence is the VM's one record of
// declared deaths.
func (vm *VM) Alive(node int) bool { return !vm.DSM.Fenced(node) }

// AliveNodes returns the surviving slice nodes, bootstrap first.
func (vm *VM) AliveNodes() []int {
	var out []int
	for _, n := range vm.nodes {
		if vm.Alive(n) {
			out = append(out, n)
		}
	}
	return out
}

// MarkDead declares a slice failed: it is excluded from future heartbeats
// and checkpoints, and the DSM re-homes everything it owned. The bootstrap
// slice cannot die in this model — it holds the DSM directory, and the
// paper restarts from its checkpoint rather than re-electing a directory —
// so the DSM panics for it, as for a node that is not a slice.
func (vm *VM) MarkDead(node int) {
	if !vm.Alive(node) {
		return
	}
	vm.DSM.MarkDead(node)
	vm.ctr.Inc("recover.dead_slices", 1)
}

// StartHeartbeat arms the failure detector: every hbInterval the
// bootstrap slice probes every companion slice over the fabric
// (topo.Fabric.Probe, the fleet heartbeat's rule too) and declares a
// slice dead after hbMissThreshold consecutive unanswered probes. The
// detector is a self-re-arming timer, not a proc. Each declared slice is
// handed to a separate vm-recovery process, which runs onFailure (it may
// block, e.g. in a checkpoint restore) for one slice at a time in
// declaration order. The detector re-arms until StopHeartbeat, so a test
// that drives the event loop directly must stop it or the simulation
// never drains; the recovery process ends with it, once it has run every
// callback already handed over.
//
// Detection never waits on a recovery. A restore can take longer than the
// fault it recovers from, and the VM transport retransmits every message
// and checkpoint chunk toward a lost slice until it is declared dead: a
// detector blocked in a restore that itself waits on such a send would
// wait forever on a second lost slice.
//
// Detection is batched per tick: every live companion is probed before
// any newly-missing slice is declared, so the slices lost to one event (a
// rack cut kills several at once) are declared together.
func (vm *VM) StartHeartbeat(onFailure func(p *sim.Proc, node int)) {
	boot := vm.nodes[0]
	declared := sim.NewQueue[int](vm.Env) // declared slices; -1 ends recovery
	vm.Env.Spawn("vm-recovery", func(p *sim.Proc) {
		for n := declared.Get(p); n >= 0; n = declared.Get(p) {
			if onFailure != nil {
				onFailure(p, n)
			}
		}
	})
	misses := make(map[int]int)
	var next *sim.Timer
	var tick func()
	tick = func() {
		next = vm.Env.After(hbInterval, tick)
		var lost []int
		for _, n := range vm.nodes[1:] {
			if !vm.Alive(n) {
				continue
			}
			if vm.Layer.Net().Probe(boot, n, hbTimeout) {
				misses[n] = 0
				continue
			}
			misses[n]++
			vm.ctr.Inc("hb.miss", 1)
			if misses[n] >= hbMissThreshold {
				lost = append(lost, n)
			}
		}
		for _, n := range lost {
			vm.ctr.Inc("hb.declared_dead", 1)
			vm.MarkDead(n)
			declared.Put(n)
		}
	}
	next = vm.Env.After(hbInterval, tick)
	vm.hbStop = func() {
		next.Cancel()
		declared.Put(-1)
	}
}

// StopHeartbeat disarms the failure detector and ends the recovery
// process once it has run every callback already handed over.
func (vm *VM) StopHeartbeat() {
	if vm.hbStop != nil {
		vm.hbStop()
		vm.hbStop = nil
	}
}

// Restart re-pins every vCPU hosted by a dead slice, in vCPU order, the
// k-th onto node onto[k%len(onto)] and there onto the core freePCPU
// picks (administratively: the dead host cannot take part in live
// migration), and returns how many vCPUs moved. Recovery passes the
// survivors (AliveNodes) or the fleet's replacement fragment. Combine
// with checkpoint.Restore to rebuild their memory image.
func (vm *VM) Restart(onto []int) int {
	moved := 0
	for i := 0; i < vm.VCPUs.N(); i++ {
		if vm.Alive(vm.VCPUs.NodeOf(i)) {
			continue
		}
		dst := onto[moved%len(onto)]
		vm.VCPUs.Repin(i, dst, vm.freePCPU(i, dst))
		moved++
	}
	vm.ctr.Inc("recover.vcpus_moved", int64(moved))
	return moved
}
