// Node-failure handling: a heartbeat tick probes every node over the
// cluster fabric; fragments lost with a node whose probes stop coming
// back are re-placed on the survivors, and VMs bound to a live Aggregate
// VM are restarted from their checkpoint image on the new slices —
// restart, not eviction.
package fleet

import (
	"fmt"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/hypervisor"
	"repro/internal/sched"
	"repro/internal/sim"
)

// probeMissThreshold is the consecutive missed probes that declare a
// node down, the same count as the VM detector's (hypervisor
// hbMissThreshold). probeFrom is the node the controller probes from:
// node 0, which hosts the control plane. Its view is authoritative, so
// it always answers itself and is never declared down.
const (
	probeMissThreshold = 2
	probeFrom          = 0
)

// armHeartbeat starts failure detection when HeartbeatEvery is set.
func (f *Fleet) armHeartbeat() {
	if f.cfg.HeartbeatEvery <= 0 {
		return
	}
	misses := make([]int, f.cfg.Nodes)
	f.every(f.cfg.HeartbeatEvery, func() { f.heartbeat(misses) })
}

// heartbeat is one probe round, the fleet's only liveness input: node 0
// probes every other node over the fabric (topo.Fabric.Probe) at the
// tick, and a probe is answered when its round trip fits in one
// heartbeat period. probeMissThreshold misses in a row declare the node
// down, and one answered probe brings a down node back. A crash, a partition, a cut
// link or a drop storm all look the same from node 0, so a storm can
// (correctly) produce false positives that heal on the next answered
// probe.
func (f *Fleet) heartbeat(misses []int) {
	for n := 0; n < f.cfg.Nodes; n++ {
		if n == probeFrom {
			continue
		}
		if f.cfg.Fabric.Probe(probeFrom, n, f.cfg.HeartbeatEvery) {
			misses[n] = 0
			if f.down[n] {
				f.handleNodeUp(n)
			}
			continue
		}
		misses[n]++
		f.stats.ProbeMisses++
		if misses[n] >= probeMissThreshold && !f.down[n] {
			f.handleNodeDown(n)
		}
	}
	f.verify()
}

// handleNodeDown fail-stops a node in the fleet's books: every fragment
// hosted there is lost and either restarted on surviving capacity (bound
// VMs additionally restore from their checkpoint) or, when the survivors
// cannot hold it, the whole VM returns to the admission queue with its
// remaining duration.
func (f *Fleet) handleNodeDown(node int) {
	f.down[node] = true
	f.stats.NodeFailures++
	f.log("node-down", -1, -1, node, 0, -1)

	// The victims are gathered first, in ID order: a requeue releases
	// its VM from f.vms.
	var victims []*vmRec
	for _, rec := range f.vms {
		if rec.pl.CPUs(node) > 0 {
			victims = append(victims, rec)
		}
	}
	for _, rec := range victims {
		id := rec.req.ID
		lost := rec.pl.CPUs(node)
		// Bring work accrual current before the placement changes: the
		// vCPUs lost with the node ran at full membership until now.
		f.accrueWork(rec)
		// The fragment is gone with the node; keep the dead node's books
		// whole so capacity is intact when it heals.
		rec.pl.Add(node, -lost)
		f.vacate(rec, node, lost)

		b := rec.bound
		if b != nil {
			b.markDead(node)
		}
		target, ok := f.replaceLost(rec, node, lost)
		if !ok {
			if b != nil {
				panic(fmt.Sprintf("fleet: bound VM %d lost node %d and no survivor capacity remains", id, node))
			}
			f.requeue(rec)
			continue
		}
		f.stats.Restarts++
		f.log("restart", id, node, -1, lost, -1)
		if b != nil {
			var onto []int
			for _, fr := range target {
				for i := 0; i < fr.CPUs; i++ {
					onto = append(onto, fr.Node)
				}
			}
			b.vm.Restart(onto)
			f.queueLive(id, func(p *sim.Proc) { checkpoint.Restore(p, b.vm, b.img) })
		}
	}
	f.maintain()
}

// replaceLost gang-places a lost fragment's k vCPUs on surviving
// capacity, committing it into the VM's placement. It returns the
// replacement fragments.
func (f *Fleet) replaceLost(rec *vmRec, deadNode, k int) (sched.Placement, bool) {
	target, ok := f.placeFragment(f.effective(rec.req.memPerCPU()), rec, deadNode, k)
	if !ok {
		return nil, false
	}
	for _, fr := range target {
		f.occupy(rec, fr.Node, fr.CPUs)
		rec.pl.Add(fr.Node, fr.CPUs)
	}
	f.syncLeases(rec)
	return target, true
}

// requeue sends a VM that lost its node back to the admission queue with
// whatever duration it had left. Under resize the remainder comes from
// the exact work accounting (a ballooned VM got less done per second);
// otherwise the armed deadline is the remainder.
func (f *Fleet) requeue(rec *vmRec) {
	r := rec.req
	timed := r.Duration > 0
	if timed && f.cfg.Reclaim == ReclaimResize {
		f.accrueWork(rec)
		prov := int64(r.VCPUs)
		r.Duration = sim.Time((rec.workNeeded - rec.workDone + prov - 1) / prov)
	} else if timed {
		r.Duration = rec.endAt - f.env.Now()
	}
	r.Arrival = f.env.Now()
	f.release(r.ID)
	f.stats.Requeues++
	f.log("requeue", r.ID, -1, -1, r.VCPUs, -1)
	if timed && r.Duration <= 0 {
		return // it would have finished by now anyway
	}
	f.enqueue(r)
}

// handleNodeUp returns a healed node's capacity to the fleet.
func (f *Fleet) handleNodeUp(node int) {
	f.down[node] = false
	f.log("node-up", -1, -1, node, 0, -1)
	f.maintain()
}

// binding couples a fleet VM id to a live Aggregate VM: committed moves
// become real vCPU migrations, and failure recovery restarts the lost
// slices from the checkpoint image.
type binding struct {
	vm  *hypervisor.VM
	img *checkpoint.Image
}

// Bind attaches a live Aggregate VM to an admitted fleet VM. From here
// on, every fleet decision about vmID drives the live VM: committed
// moves execute vCPU migrations, and a node failure restarts the lost
// slices on the replacement placement and restores memory from img, a
// checkpoint the caller took (checkpoint.Take). img may be nil only when
// the fleet runs no heartbeat.
func (f *Fleet) Bind(vmID int, live *hypervisor.VM, img *checkpoint.Image) {
	rec := f.vm(vmID)
	if rec == nil {
		panic(fmt.Sprintf("fleet: binding unknown VM %d", vmID))
	}
	if rec.bound != nil {
		panic(fmt.Sprintf("fleet: VM %d already bound", vmID))
	}
	if img == nil && f.cfg.HeartbeatEvery > 0 {
		panic(fmt.Sprintf("fleet: VM %d bound without a checkpoint under failure detection", vmID))
	}
	rec.bound = &binding{vm: live, img: img}
}

// migrate executes one committed move on the live VM: n of its vCPUs
// currently on from live-migrate to to.
func (b *binding) migrate(p *sim.Proc, from, to, n int) {
	moved := 0
	for id, node := range b.vm.VCPUNodes() {
		if node == from && moved < n {
			b.vm.MigrateVCPU(p, id, to)
			moved++
		}
	}
}

// markDead declares the slice failed on the live VM (idempotent).
func (b *binding) markDead(node int) {
	if slices.Contains(b.vm.Nodes(), node) {
		b.vm.MarkDead(node)
	}
}
