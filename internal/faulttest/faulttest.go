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
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/fault"
	"repro/internal/hypervisor"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vcpu"
	"repro/internal/workload"
)

// Scenario configures one end-to-end run under a fault schedule. The
// zero value is filled in by defaults (4 nodes, 4 vCPUs, IS at 1% scale,
// 64 pattern pages, checkpointing on, 2 ms heartbeats).
type Scenario struct {
	Nodes    int
	VCPUs    int
	MemBytes int64

	// Topo selects the fabric topology (cluster.Params.Topo): nil is the
	// flat default; a tree spec routes DSM and checkpoint
	// traffic over racks and a spine, which is what link-level fault
	// domains (CutLink "tor1", ...) act on.
	Topo *topo.Spec

	Kernel string  // NPB kernel run on every vCPU
	Scale  float64 // workload scale factor

	// Schedule is authored in workload-relative time: it is applied the
	// instant the workload starts (after boot, pattern writes, and the
	// checkpoint). Schedules must not crash node 0 — the bootstrap slice
	// hosts the DSM directory and the failure detector.
	Schedule fault.Schedule
	Seed     int64 // pattern-content seed

	// PatternPages guest pages are filled with a seeded pattern before
	// the checkpoint and verified byte-for-byte after the run.
	PatternPages int64

	// DatasetBytes bulk guest bytes are first-touched (spread across the
	// slices) before the checkpoint, so the image — and therefore the
	// recovery path — carries a dataset of that size.
	DatasetBytes int64

	// Checkpoint takes an image before faults start and restores it when
	// the heartbeat declares a slice dead. Without it, recovery re-pins
	// vCPUs but re-homed memory keeps whatever stale bytes the origin
	// held, so the pattern check is skipped if anything was declared dead.
	Checkpoint bool

	// HeartbeatInterval/HeartbeatTimeout arm the failure detector; an
	// interval of 0 with HeartbeatOff leaves it disarmed.
	HeartbeatInterval sim.Time
	HeartbeatTimeout  sim.Time
	HeartbeatOff      bool

	// ExpectDeaths is how many heartbeat death declarations the driver
	// waits for before stopping the detector. 0 derives it from the
	// schedule's CrashNode count — link-cut schedules, whose deaths are
	// not crashes, must set it explicitly.
	ExpectDeaths int

	// Hook, when set, runs against the freshly built cluster before the
	// VM boots — the chaos engine uses it to install bug-reintroduction
	// test hooks (topo.TestHooks, reliable.TestHooks) on the fabrics
	// and transport.
	Hook func(c *cluster.Cluster)

	// Watchdog, when positive, arms the sim no-progress watchdog with
	// that window: a run that deadlocks or livelocks stops with a typed
	// Result.Stall instead of hanging the host test. Progress is marked
	// on every workload completion, death declaration, and recovery.
	Watchdog sim.Time
}

func (s Scenario) withDefaults() Scenario {
	if s.Nodes == 0 {
		s.Nodes = 4
	}
	if s.VCPUs == 0 {
		s.VCPUs = s.Nodes
	}
	if s.MemBytes == 0 {
		s.MemBytes = 8 << 30
	}
	if s.Kernel == "" {
		s.Kernel = "IS"
	}
	if s.Scale == 0 {
		s.Scale = 0.01
	}
	if s.PatternPages == 0 {
		s.PatternPages = 64
	}
	if s.HeartbeatInterval == 0 {
		s.HeartbeatInterval = 2 * sim.Millisecond
	}
	if s.HeartbeatTimeout == 0 {
		s.HeartbeatTimeout = sim.Millisecond
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

	DSM       dsm.Stats      // aggregate protocol stats
	MsgFaults msg.FaultStats // messaging-layer fault stats
	Reliable  reliable.Stats // ack/retransmit transport stats (checkpoint chunks)
	Counters  string         // injector counters rendering

	env *sim.Env // the run's world, kept open for hooks that read it
}

// Close ends the run's simulation environment (sim.Env.Close). Run leaves
// it open so a caller can still read the world through the objects its
// Scenario.Hook captured (the fabric, say); call Close once done with
// them. The Result's own fields stay valid.
func (r *Result) Close() { r.env.Close() }

// Ok reports whether the run passed every built-in assertion.
func (r *Result) Ok() bool {
	return len(r.LiveProcs) == 0 && r.CoherenceErr == nil &&
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
	fmt.Fprintf(&b, "dsm=%+v\n", r.DSM)
	fmt.Fprintf(&b, "msg=%+v\n", r.MsgFaults)
	fmt.Fprintf(&b, "reliable=%+v\n", r.Reliable)
	fmt.Fprintf(&b, "counters: %s\n", r.Counters)
	return b.String()
}

// patternBytes is the seeded content planted at the head of pattern page i.
func patternBytes(seed, i int64) []byte {
	rng := rand.New(rand.NewSource(seed + 7919*i))
	b := make([]byte, 32)
	rng.Read(b)
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
	c := cluster.New(env, s.Nodes, params)
	inj := fault.New(c)
	if s.Hook != nil {
		s.Hook(c)
	}

	nodes := make([]int, s.Nodes)
	for i := range nodes {
		nodes[i] = i
	}
	cfg := hypervisor.FragVisorConfig(c, hypervisor.SpreadPlacement(nodes, s.VCPUs), s.MemBytes)
	cfg.Fault = inj
	cfg.DSM.Retry = msg.DefaultRetryPolicy()
	vm := hypervisor.New(cfg)

	res := &Result{env: env}
	expectedDeaths := s.ExpectDeaths
	if expectedDeaths == 0 {
		expectedDeaths = s.Schedule.Count(fault.CrashNode)
	}

	env.Spawn("faulttest.driver", func(p *sim.Proc) {
		vm.Boot(p)

		// Plant the pattern: pages are written from the slice that will
		// own them, spread round-robin so lenders hold exclusive data
		// that a crash genuinely endangers.
		region := vm.Layout.Alloc("faulttest.pattern", s.PatternPages, mem.KindHeap)
		vmNodes := vm.Nodes()
		for i := int64(0); i < s.PatternPages; i++ {
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

		// Failure detector with checkpoint-restart recovery: the detector
		// proc re-pins the dead slice's vCPUs onto survivors and rolls
		// explicit guest pages back to the checkpoint image.
		start := p.Now()
		recoveredAll := env.NewEvent()
		recoveries := 0
		if !s.HeartbeatOff {
			vm.StartHeartbeat(s.HeartbeatInterval, s.HeartbeatTimeout, func(hp *sim.Proc, node int) {
				env.MarkProgress() // a death declaration is forward motion
				res.Detected = append(res.Detected, hp.Now()-start)
				res.DeadAt = append(res.DeadAt, node)
				vm.RestartOnSurvivors()
				if img != nil {
					res.Restores = append(res.Restores, checkpoint.Restore(hp, vm, img))
				}
				res.Recovered = append(res.Recovered, hp.Now()-start)
				env.MarkProgress()
				recoveries++
				if recoveries == expectedDeaths {
					recoveredAll.Fire()
				}
			})
		}

		inj.Apply(s.Schedule.Shifted(start))

		// One workload instance per vCPU, spawned directly (not through
		// RunMultiProcess, which would call env.Run itself): the harness
		// owns the event loop so it can stop the heartbeat afterwards.
		b := workload.ByName(s.Kernel)
		var done []*sim.Event
		for i := 0; i < vm.NVCPU(); i++ {
			wp := vm.Run(i, fmt.Sprintf("faulttest.%s-%d", s.Kernel, i), func(ctx *vcpu.Ctx) {
				b.RunInstance(vm, ctx, s.Scale)
			})
			done = append(done, wp.Done())
		}
		p.WaitAll(done...)
		if expectedDeaths > 0 && !s.HeartbeatOff {
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
			for i := int64(0); i < s.PatternPages; i++ {
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
	res.DSM = vm.DSM.TotalStats()
	res.MsgFaults = vm.Layer.FaultStats()
	res.Reliable = c.Reliable.Stats()
	res.Counters = inj.Counters().String()
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
