package workload

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/giantvm"
	"repro/internal/hypervisor"
	"repro/internal/overcommit"
	"repro/internal/sim"
)

// fragVM builds a FragVisor Aggregate VM with one vCPU per node.
func fragVM(nVCPU int) *hypervisor.VM {
	env := sim.NewEnv()
	c := cluster.NewDefault(env, nVCPU)
	nodes := make([]int, nVCPU)
	for i := range nodes {
		nodes[i] = i
	}
	return hypervisor.New(hypervisor.FragVisorConfig(c, hypervisor.SpreadPlacement(nodes, nVCPU), 4<<30))
}

// ocVM builds an overcommitted VM: nVCPU vCPUs on a node with k cores.
func ocVM(nVCPU, k int) *hypervisor.VM {
	p := cluster.DefaultParams()
	p.CoresPerNode = k
	return overcommit.New(cluster.New(sim.NewEnv(), 1, p), 0, nVCPU, 4<<30)
}

// gVM builds a GiantVM distributed VM with one vCPU per node.
func gVM(nVCPU int) *hypervisor.VM {
	env := sim.NewEnv()
	c := cluster.NewDefault(env, nVCPU)
	nodes := make([]int, nVCPU)
	for i := range nodes {
		nodes[i] = i
	}
	return giantvm.New(c, nodes, nVCPU, 4<<30)
}

func TestSharingLoopModes(t *testing.T) {
	const iters = 200
	noShare := SharingLoop(fragVM(2), NoSharing, iters)
	falseShare := SharingLoop(fragVM(2), FalseSharing, iters)
	trueShare := SharingLoop(fragVM(2), TrueSharing, iters)
	// A faulting writer's rival keeps hitting locally until the
	// invalidation lands, so sharing costs batch — but it must still be
	// severalfold slower than independent pages.
	if falseShare < 2*noShare {
		t.Errorf("false sharing (%v) not much slower than no sharing (%v)", falseShare, noShare)
	}
	// Fig 4: false and true sharing behave the same (page granularity).
	ratio := float64(trueShare) / float64(falseShare)
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("true/false sharing ratio = %.2f, want ~1", ratio)
	}
}

func TestSharingLoopScalesWithNodes(t *testing.T) {
	// Fig 4: remote-access cost grows roughly linearly with node count.
	const iters = 150
	t2 := SharingLoop(fragVM(2), TrueSharing, iters)
	t4 := SharingLoop(fragVM(4), TrueSharing, iters)
	ratio := float64(t4) / float64(t2)
	if ratio < 1.5 || ratio > 3.2 {
		t.Errorf("4-node/2-node sharing-loop ratio = %.2f, want ~2", ratio)
	}
}

func TestConcurrentWritesFragVisor(t *testing.T) {
	// Fig 5: with a vCPU per node, no-sharing throughput is ~4x a single
	// pCPU; max-sharing collapses below it.
	window := 50 * sim.Millisecond
	noShare := ConcurrentWrites(fragVM(4), WriteNoSharing, window)
	maxShare := ConcurrentWrites(fragVM(4), WriteMaxSharing, window)
	if noShare < 5*maxShare {
		t.Errorf("no-sharing ops (%d) not >> max-sharing ops (%d)", noShare, maxShare)
	}
}

func TestConcurrentWritesOvercommitFlat(t *testing.T) {
	// Overcommit on one pCPU: total ops are the pCPU's capacity
	// regardless of the sharing pattern (all pages local).
	window := 50 * sim.Millisecond
	noShare := ConcurrentWrites(ocVM(4, 1), WriteNoSharing, window)
	maxShare := ConcurrentWrites(ocVM(4, 1), WriteMaxSharing, window)
	ratio := float64(noShare) / float64(maxShare)
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("overcommit ops ratio no/max = %.2f, want ~1", ratio)
	}
}

func TestNPBSuiteLookup(t *testing.T) {
	if ByName("IS").Dataset != 700<<20 {
		t.Error("IS dataset wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown kernel did not panic")
		}
	}()
	ByName("ZZ")
}

// TestRunMultiProcessSpawnsOneProcPerVCPU: the instances time
// themselves, so a run spawns its NVCPU workers and no join proc.
func TestRunMultiProcessSpawnsOneProcPerVCPU(t *testing.T) {
	vm := fragVM(4)
	defer vm.Env.Close()
	if RunMultiProcess(vm, ByName("EP"), 0.01) <= 0 {
		t.Fatal("EP took no time")
	}
	if got := vm.Env.Spawned(); got != vm.NVCPU() {
		t.Errorf("RunMultiProcess spawned %d procs, want %d", got, vm.NVCPU())
	}
}

func TestNPBEPScalesNearLinearly(t *testing.T) {
	// Fig 8: EP on 4 distributed vCPUs vs overcommitting 4 vCPUs on 1
	// pCPU approaches 4x.
	const scale = 0.02
	ep := ByName("EP")
	frag := RunMultiProcess(fragVM(4), ep, scale)
	oc := RunMultiProcess(ocVM(4, 1), ep, scale)
	speedup := float64(oc) / float64(frag)
	if speedup < 3.3 || speedup > 4.2 {
		t.Errorf("EP speedup = %.2f, want ~3.9", speedup)
	}
}

func TestNPBISSubLinear(t *testing.T) {
	// Fig 8: IS's allocation phase suffers DSM contention; its speedup
	// must be clearly below EP's.
	const scale = 0.02
	is := ByName("IS")
	frag := RunMultiProcess(fragVM(4), is, scale)
	oc := RunMultiProcess(ocVM(4, 1), is, scale)
	speedup := float64(oc) / float64(frag)
	if speedup > 3.2 {
		t.Errorf("IS speedup = %.2f, expected sub-linear (<3.2)", speedup)
	}
	if speedup < 1.2 {
		t.Errorf("IS speedup = %.2f, should still beat overcommit", speedup)
	}
}

func TestNPBFragVisorBeatsGiantVM(t *testing.T) {
	// Fig 9: FragVisor outruns GiantVM on both compute-bound and
	// allocation-heavy kernels.
	const scale = 0.02
	for _, name := range []string{"EP", "IS"} {
		b := ByName(name)
		frag := RunMultiProcess(fragVM(4), b, scale)
		giant := RunMultiProcess(gVM(4), b, scale)
		ratio := float64(giant) / float64(frag)
		if ratio < 1.2 {
			t.Errorf("%s: GiantVM/FragVisor = %.2f, want >= 1.2", name, ratio)
		}
	}
}

func TestOMPSharingSpectrum(t *testing.T) {
	// Fig 1: low-sharing OMP kernels run near single-machine speed on
	// DSM; high-sharing ones collapse.
	const scale = 0.02
	slowdown := func(b OMP) float64 {
		dist := RunOMP(fragVM(2), b, scale, 42)
		local := RunOMP(ocVM(2, 2), b, scale, 42) // 2 vCPUs on 2 pCPUs: no DSM
		return float64(dist) / float64(local)
	}
	ep := slowdown(OMPSuite[0]) // EP-omp
	ft := slowdown(OMPSuite[4]) // FT-omp
	if ep > 1.3 {
		t.Errorf("EP-omp DSM slowdown = %.2f, want ~1", ep)
	}
	if ft < 1.5 {
		t.Errorf("FT-omp DSM slowdown = %.2f, want substantial", ft)
	}
	if ft <= ep {
		t.Errorf("sharing spectrum inverted: EP %.2f vs FT %.2f", ep, ft)
	}
}

func TestLEMPCompletesAndCounts(t *testing.T) {
	cfg := DefaultLEMP(25 * sim.Millisecond)
	cfg.Requests = 20
	res := RunLEMP(fragVM(2), cfg)
	if res.Throughput <= 0 || res.MeanLatency <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestLEMPCrossover(t *testing.T) {
	// Fig 12: short requests lose to overcommitment (cross-node socket
	// stalls dominate); long requests win (remote compute dominates).
	run := func(vm *hypervisor.VM, proc sim.Time, reqs int) float64 {
		cfg := DefaultLEMP(proc)
		cfg.Requests = reqs
		return RunLEMP(vm, cfg).Throughput
	}
	shortFrag := run(fragVM(4), 25*sim.Millisecond, 40)
	shortOC := run(ocVM(4, 1), 25*sim.Millisecond, 40)
	if shortFrag >= shortOC {
		t.Errorf("25ms: FragVisor %.1f req/s should lose to overcommit %.1f req/s",
			shortFrag, shortOC)
	}
	longFrag := run(fragVM(4), 250*sim.Millisecond, 30)
	longOC := run(ocVM(4, 1), 250*sim.Millisecond, 30)
	if longFrag <= 1.5*longOC {
		t.Errorf("250ms: FragVisor %.2f req/s should clearly beat overcommit %.2f req/s",
			longFrag, longOC)
	}
}

func TestOpenLambdaPhases(t *testing.T) {
	res := RunOpenLambda(fragVM(2), 0.1)
	if res.Download <= 0 || res.Extract <= 0 || res.Detect <= 0 {
		t.Fatalf("phases = %+v", res)
	}
	if res.Total < res.Download+res.Extract+res.Detect {
		t.Fatalf("total %v less than phase sum", res.Total)
	}
}

func TestOpenLambdaFragVisorBeatsOvercommit(t *testing.T) {
	// Fig 13: detection dominates and scales with real cores, so the
	// Aggregate VM wins overall.
	const scale = 0.1
	frag := RunOpenLambda(fragVM(4), scale)
	oc := RunOpenLambda(ocVM(4, 1), scale)
	if ratio := float64(oc.Detect) / float64(frag.Detect); ratio < 2.5 {
		t.Errorf("detect speedup = %.2f, want >= 2.5", ratio)
	}
	if ratio := float64(oc.Total) / float64(frag.Total); ratio < 1.5 {
		t.Errorf("total speedup = %.2f, want >= 1.5", ratio)
	}
}

func TestOpenLambdaFragVisorBeatsGiantVM(t *testing.T) {
	const scale = 0.1
	frag := RunOpenLambda(fragVM(4), scale)
	giant := RunOpenLambda(gVM(4), scale)
	for phase, pair := range map[string][2]sim.Time{
		"download": {frag.Download, giant.Download},
		"extract":  {frag.Extract, giant.Extract},
		"detect":   {frag.Detect, giant.Detect},
		"total":    {frag.Total, giant.Total},
	} {
		if pair[0] >= pair[1] {
			t.Errorf("%s: FragVisor %v not faster than GiantVM %v", phase, pair[0], pair[1])
		}
	}
}
