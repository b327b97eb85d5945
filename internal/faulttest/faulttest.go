// Package faulttest is the reusable failure-schedule harness of the
// FragVisor reproduction: it boots an Aggregate VM on a fresh simulated
// cluster, plants a seeded byte pattern into guest memory, checkpoints,
// arms the heartbeat failure detector with checkpoint-restart recovery,
// applies a fault schedule, and drives an NPB workload across every vCPU
// to completion — then checks the survivors for deadlock-freedom, DSM
// coherence, and byte-identical guest memory.
//
// Every source of time and randomness lives inside the simulation, so a
// (Scenario, seed) pair replays bit-identically; Result.Metrics renders
// the run's observable behavior as a single string for golden
// comparisons across runs.
package faulttest

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/fault"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vcpu"
	"repro/internal/workload"
)

// The fixed shape of every run: a VM of one vCPU on each of four nodes
// with 8 GiB of guest RAM running the NPB kernel named by kernel on
// every vCPU, and patternPages guest pages planted with a seeded pattern
// before the checkpoint and verified byte-for-byte after the run.
const (
	nodeCount    = 4
	guestMem     = 8 << 30
	kernel       = "IS"
	patternPages = 64
)

// Scenario configures one end-to-end run under a fault schedule. The
// zero value runs at 1% scale with no faults and no checkpoint.
type Scenario struct {
	// Topo selects the fabric topology (cluster.Params.Topo): nil is the
	// flat default; a tree spec routes DSM and checkpoint
	// traffic over racks and a spine, which is what link-level fault
	// domains (CutLink "tor1", ...) act on.
	Topo *topo.Spec

	Scale float64 // workload scale factor

	// Schedule is authored in workload-relative time: it is applied the
	// instant the workload starts (after boot, pattern writes, and the
	// checkpoint). Schedules must not crash node 0 — the bootstrap slice
	// hosts the DSM directory and the failure detector.
	Schedule fault.Schedule
	Seed     int64 // pattern-content seed

	// DatasetBytes bulk guest bytes are first-touched (spread across the
	// slices) before the checkpoint, so the image — and therefore the
	// recovery path — carries a dataset of that size.
	DatasetBytes int64

	// Checkpoint takes an image before faults start and restores it when
	// the heartbeat declares a slice dead. Without it, recovery re-pins
	// vCPUs but re-homed memory keeps whatever stale bytes the origin
	// held, so the pattern check is skipped if anything was declared dead.
	Checkpoint bool

	// ExpectDeaths is how many recoveries the driver waits for at least
	// before stopping the detector. It always waits for every node the
	// schedule crashes to be declared dead and recovered; link-cut
	// schedules, whose deaths are not crashes, set it explicitly.
	ExpectDeaths int

	// Hook, when set, runs against the freshly built cluster before the
	// VM exists — the chaos engine uses it to install bug-reintroduction
	// test hooks (topo.TestHooks) on the fabrics, which the VM's
	// transport reads too.
	Hook func(c *cluster.Cluster)

	// Watchdog, when positive, arms the sim no-progress watchdog with
	// that window: a run that deadlocks or livelocks stops with a typed
	// Result.Stall instead of hanging the host test. Progress is marked
	// on every workload completion, death declaration, and recovery.
	Watchdog sim.Time
}

func (s Scenario) withDefaults() Scenario {
	if s.Scale == 0 {
		s.Scale = 0.01
	}
	return s
}

// Result is everything a test asserts on after a harness run.
type Result struct {
	Wall      sim.Time   // workload start to last assertion
	Detected  []sim.Time // heartbeat death declarations, relative to workload start
	DeadAt    []int      // the nodes declared dead, in order
	Recovered []sim.Time // recovery (restart + restore) completions, relative
	Restores  []sim.Time // checkpoint-restore duration per recovery

	CheckpointBytes int64    // guest state captured in the image
	CheckpointTime  sim.Time // how long Take blocked the VM

	PatternMismatches []string        // pages whose contents diverged, human-readable
	PatternChecked    bool            // false when skipped (dead slices, no checkpoint)
	CoherenceErr      error           // dsm.Validate result
	LiveProcs         []string        // processes still blocked after env.Run — deadlock
	Stall             *sim.StallError // watchdog verdict; nil when progress never stopped
	// Granting lists the pages whose DSM grant was still in flight after
	// env.Run (dsm.DSM.Granting): the directory runs no process, so a
	// grant wedged on an unreachable requester shows here, not in
	// LiveProcs.
	Granting []mem.PageID

	DSM      dsm.Stats      // aggregate protocol stats
	Reliable reliable.Stats // the VM's transport: every message and checkpoint segment
	Counters string         // injector and VM recovery counters rendering

	env *sim.Env // the run's world, kept open for hooks that read it
}

// Close ends the run's simulation environment (sim.Env.Close). Run leaves
// it open so a caller can still read the world through the objects its
// Scenario.Hook captured (the fabric, say); call Close once done with
// them. The Result's own fields stay valid.
func (r *Result) Close() { r.env.Close() }

// Ok reports whether the run passed every built-in assertion.
func (r *Result) Ok() bool {
	return len(r.LiveProcs) == 0 && len(r.Granting) == 0 && r.CoherenceErr == nil &&
		len(r.PatternMismatches) == 0 && r.Stall == nil
}

// Metrics renders the observable behavior of the run as one deterministic
// string; two runs of the same scenario must produce identical renderings.
func (r *Result) Metrics() string {
	var b strings.Builder
	fmt.Fprintf(&b, "wall=%v\n", r.Wall)
	fmt.Fprintf(&b, "detected=%v dead=%v recovered=%v restores=%v\n", r.Detected, r.DeadAt, r.Recovered, r.Restores)
	fmt.Fprintf(&b, "checkpoint bytes=%d took=%v\n", r.CheckpointBytes, r.CheckpointTime)
	fmt.Fprintf(&b, "pattern checked=%v mismatches=%d\n", r.PatternChecked, len(r.PatternMismatches))
	fmt.Fprintf(&b, "coherent=%v liveprocs=%d stalled=%v\n", r.CoherenceErr == nil, len(r.LiveProcs), r.Stall != nil)
	if r.CoherenceErr != nil {
		fmt.Fprintf(&b, "coherence error: %v\n", r.CoherenceErr)
	}
	if r.Stall != nil {
		fmt.Fprintf(&b, "stall: %v\n", r.Stall)
	}
	if len(r.Granting) > 0 {
		fmt.Fprintf(&b, "grants in flight on pages %v\n", r.Granting)
	}
	fmt.Fprintf(&b, "dsm=%+v\n", r.DSM)
	fmt.Fprintf(&b, "reliable=%+v\n", r.Reliable)
	fmt.Fprintf(&b, "counters: %s\n", r.Counters)
	return b.String()
}

// patternBytes is the seeded content planted at the head of pattern page
// i: four words of a splitmix64 stream started at seed + 7919*i, cheap
// enough to derive twice per page.
func patternBytes(seed, i int64) []byte {
	x := uint64(seed + 7919*i)
	b := make([]byte, 32)
	for o := 0; o < len(b); o += 8 {
		x += 0x9e3779b97f4a7c15
		z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(b[o:], z^(z>>31))
	}
	return b
}

// Run executes the scenario to completion and returns the observations.
// It owns the event loop: everything happens under one env.Run, and the
// heartbeat is stopped once the workload and any expected recoveries are
// done, so the queue drains and deadlocks are observable as LiveProcs.
// The world stays open for the caller, who ends it with Result.Close.
func Run(s Scenario) *Result {
	s = s.withDefaults()
	env := sim.NewEnv()
	returned := false
	defer func() {
		if !returned { // a panic leaves no Result to close the world through
			env.Close()
		}
	}()
	params := cluster.DefaultParams()
	params.Topo = s.Topo
	c := cluster.New(env, nodeCount, params)
	inj := fault.New(c)
	if s.Hook != nil {
		s.Hook(c)
	}

	nodes := make([]int, nodeCount)
	for i := range nodes {
		nodes[i] = i
	}
	vm := hypervisor.New(hypervisor.FragVisorConfig(c, hypervisor.SpreadPlacement(nodes, nodeCount), guestMem))

	res := &Result{env: env}
	// The driver waits for a recovery of every crashed slice, and for at
	// least ExpectDeaths recoveries in all. A count alone would not do: a
	// drop burst can get a live slice declared dead too, and that false
	// positive must not stand in for a crash nobody has declared yet.
	unrecovered := map[int]bool{}
	for _, e := range s.Schedule.Events {
		if e.Kind == fault.CrashNode {
			unrecovered[e.Node] = true
		}
	}
	awaitRecovery := len(unrecovered) > 0 || s.ExpectDeaths > 0

	env.Spawn("faulttest.driver", func(p *sim.Proc) {
		vm.Boot(p)

		// Plant the pattern: pages are written from the slice that will
		// own them, spread round-robin so lenders hold exclusive data
		// that a crash genuinely endangers.
		region := vm.Layout.Alloc("faulttest.pattern", patternPages, mem.KindHeap)
		vmNodes := vm.Nodes()
		for i := int64(0); i < patternPages; i++ {
			writer := vmNodes[int(i)%len(vmNodes)]
			vm.DSM.Write(p, writer, region.Page(i), 0, patternBytes(s.Seed, i))
		}

		// Optional bulk dataset: contiguous per-slice chunks first-touched
		// as writes, so every slice owns real state the checkpoint must
		// collect and a crash genuinely endangers.
		if s.DatasetBytes > 0 {
			pages := (s.DatasetBytes + mem.PageSize - 1) / mem.PageSize
			ds := vm.Layout.Alloc("faulttest.dataset", pages, mem.KindHeap)
			per := pages / int64(len(vmNodes))
			for ni, n := range vmNodes {
				lo := int64(ni) * per
				hi := lo + per
				if ni == len(vmNodes)-1 {
					hi = pages
				}
				if hi > lo {
					vm.DSM.TouchRange(p, n, ds.Page(lo), hi-lo, true)
				}
			}
		}

		var img *checkpoint.Image
		if s.Checkpoint {
			img = checkpoint.Take(p, vm, vm.DSM.Origin())
			res.CheckpointBytes = img.Bytes
			res.CheckpointTime = img.Duration
		}

		// Failure detector with checkpoint-restart recovery: the VM's
		// recovery proc re-pins the dead slice's vCPUs onto survivors and
		// rolls explicit guest pages back to the checkpoint image.
		start := p.Now()
		recoveredAll := new(sim.Event)
		vm.StartHeartbeat(func(hp *sim.Proc, node int) {
			env.MarkProgress() // a death declaration is forward motion
			res.Detected = append(res.Detected, hp.Now()-start)
			res.DeadAt = append(res.DeadAt, node)
			vm.Restart(vm.AliveNodes())
			if img != nil {
				res.Restores = append(res.Restores, checkpoint.Restore(hp, vm, img))
			}
			res.Recovered = append(res.Recovered, hp.Now()-start)
			env.MarkProgress()
			delete(unrecovered, node)
			if len(unrecovered) == 0 && len(res.Recovered) >= s.ExpectDeaths && !recoveredAll.Fired() {
				recoveredAll.Fire()
			}
		})

		inj.Apply(s.Schedule.Shifted(start))

		// One workload instance per vCPU, spawned directly (not through
		// RunMultiProcess, which would call env.Run itself): the harness
		// owns the event loop so it can stop the heartbeat afterwards.
		b := workload.ByName(kernel)
		var done []*sim.Event
		for i := 0; i < vm.NVCPU(); i++ {
			wp := vm.Run(i, fmt.Sprintf("faulttest.%s-%d", kernel, i), func(ctx *vcpu.Ctx) {
				b.RunInstance(vm, ctx, s.Scale)
			})
			done = append(done, wp.Done())
		}
		p.WaitAll(done...)
		if awaitRecovery {
			p.Wait(recoveredAll)
		}
		vm.StopHeartbeat()

		// Verify the pattern from a surviving slice (the last one, so
		// reads exercise the protocol rather than origin-local hits).
		// Without a checkpoint, memory declared dead was re-homed with
		// whatever stale bytes the origin held — data loss is the
		// expected outcome, so the byte check is skipped.
		res.PatternChecked = s.Checkpoint || len(res.DeadAt) == 0
		if res.PatternChecked {
			alive := vm.AliveNodes()
			reader := alive[len(alive)-1]
			for i := int64(0); i < patternPages; i++ {
				want := patternBytes(s.Seed, i)
				got := vm.DSM.Read(p, reader, region.Page(i))
				if !bytesEqual(got[:len(want)], want) {
					res.PatternMismatches = append(res.PatternMismatches,
						fmt.Sprintf("page %d: got % x want % x", region.Page(i), got[:len(want)], want))
				}
			}
		}
		res.CoherenceErr = vm.DSM.Validate()
		res.Wall = p.Now() - start
	})

	if s.Watchdog > 0 {
		env.WatchProgress(s.Watchdog)
	}
	env.Run()
	res.Stall = env.Stalled()
	res.LiveProcs = env.LiveProcs()
	res.Granting = vm.DSM.Granting()
	res.DSM = vm.DSM.TotalStats()
	res.Reliable = vm.Layer.Transport().Stats()
	// The injector's counters and the VM's hb.*/recover.* counters share
	// no name, so the merge renders each set unchanged.
	ctr := metrics.NewCounters()
	ctr.Merge(inj.Counters())
	ctr.Merge(vm.Counters())
	res.Counters = ctr.String()
	returned = true
	return res
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
