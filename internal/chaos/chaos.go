// Package chaos is the deterministic chaos-search engine of the
// FragVisor reproduction: Jepsen-style fault exploration made fully
// reproducible on the DES core.
//
// The engine generates randomized fault schedules from a weighted
// grammar over every existing fault primitive (node crashes,
// partitions, message drop/delay/duplicate storms, CPU/disk/link
// degradation, link-domain cuts) composed with a workload — an
// Aggregate VM recovery run on the faulttest harness, or a fleet
// control-plane run with reclaim and arrival storms. Each episode runs
// in its own sim.Env across a worker pool (sweep.ForEach), so a search
// is deterministic in grid order: the same (seed, episode count)
// produces the same episodes, the same violations, and byte-identical
// artifacts at any parallelism.
//
// At quiescence every episode is judged by a registry of
// cross-subsystem invariant oracles (oracle.go): sim progress (typed
// StallErrors instead of hangs), DSM coherence and pattern integrity,
// fleet conservation (fleet.VerifyReport), reliable-transport
// exactly-once, and fabric endpoint accounting. A violating episode is
// shrunk by delta-debugging (shrink.go) — drop events, narrow wildcard
// domains, shorten storms — to a minimal repro that still trips the
// same oracle, and exported as a replayable JSON artifact
// (artifact.go) that cmd/fragchaos -replay re-executes byte-
// identically.
package chaos

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Workload names. The vm workload drives an Aggregate VM with
// checkpoint-restart recovery through the faulttest harness; the fleet
// workloads drive the control plane under one reclaim policy each,
// with probing heartbeats and storm-capable admission.
const (
	WorkloadVM               = "vm-recovery"
	WorkloadFleetConsolidate = "fleet-consolidate"
	WorkloadFleetEvict       = "fleet-evict"
	WorkloadFleetResize      = "fleet-resize"
)

// AllWorkloads lists every workload in grammar order.
func AllWorkloads() []string {
	return []string{WorkloadVM, WorkloadFleetConsolidate, WorkloadFleetEvict, WorkloadFleetResize}
}

// Hooks selects which fixed historical bugs to re-introduce in every
// episode (topo.TestHooks, reliable.TestHooks). The zero value — the
// production configuration — re-enables nothing; a search over seed
// code must come back clean. Hooks exist so the engine can prove it
// finds the bugs this codebase actually had.
type Hooks struct {
	PhantomEndpoints bool `json:"phantom_endpoints,omitempty"`
	NoDedup          bool `json:"no_dedup,omitempty"`
}

// Any reports whether any bug is re-enabled.
func (h Hooks) Any() bool { return h.PhantomEndpoints || h.NoDedup }

// install applies the hooks to a freshly built cluster's fabrics and
// reliable transport.
func (h Hooks) install(c *cluster.Cluster) {
	if !h.Any() {
		return
	}
	fh := topo.TestHooks{PhantomEndpoints: h.PhantomEndpoints}
	c.Fabric.SetTestHooks(fh)
	c.Client.SetTestHooks(fh)
	c.Reliable.SetTestHooks(reliable.TestHooks{NoDedup: h.NoDedup})
}

// Storm is a workload-side chaos element: a burst of short-lived VM
// arrivals landing in a tight window at At, forcing the reclaim policy
// (and, under fleet-resize, the balloon ledger) to absorb pressure
// mid-run. Ignored by the vm workload.
type Storm struct {
	At   sim.Time `json:"at"`
	VMs  int      `json:"vms"`
	Seed int64    `json:"seed"`
}

// Episode is one chaos trial: a workload instance composed with a
// fault schedule and arrival storms. Everything a run needs is in the
// value — replaying an episode needs no generator state.
type Episode struct {
	Index    int            `json:"index"`
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Scale    float64        `json:"scale"`
	Schedule fault.Schedule `json:"schedule"`
	Storms   []Storm        `json:"storms,omitempty"`
}

// Size is the episode's shrinkable element count: schedule events plus
// storms.
func (ep Episode) Size() int { return len(ep.Schedule.Events) + len(ep.Storms) }

// String labels the episode for logs.
func (ep Episode) String() string {
	return fmt.Sprintf("ep%d/%s/seed=%d/events=%d/storms=%d",
		ep.Index, ep.Workload, ep.Seed, len(ep.Schedule.Events), len(ep.Storms))
}

// Config sizes a chaos search.
type Config struct {
	Episodes  int      // schedules to explore
	Seed      int64    // root seed; sub-seeds derive per episode
	Scale     float64  // workload scale (0.02 = unit-test scale)
	Parallel  int      // worker pool width (0 = GOMAXPROCS); never affects results
	MaxEvents int      // fault-event budget per schedule
	Workloads []string // workload subset (nil = AllWorkloads)
	Hooks     Hooks    // bug re-introduction, for engine self-validation

	// ShrinkBudget caps how many episode re-runs one finding's shrink
	// may spend. Shrinking is sequential and deterministic.
	ShrinkBudget int
}

func (c Config) withDefaults() Config {
	if c.Episodes == 0 {
		c.Episodes = 64
	}
	if c.Scale == 0 {
		c.Scale = 0.02
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 12
	}
	if len(c.Workloads) == 0 {
		c.Workloads = AllWorkloads()
	}
	if c.ShrinkBudget == 0 {
		c.ShrinkBudget = 200
	}
	return c
}
