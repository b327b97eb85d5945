package balloon

import (
	"testing"

	"repro/internal/dsm"
	"repro/internal/guest"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topo"
)

// instantNotifier delivers wakeups instantly and pins vCPU i on node i%n.
type instantNotifier struct{ n int }

func (f *instantNotifier) Wakeup(p *sim.Proc, fromNode, toVCPU int, deliver func()) {
	p.Env().After(0, deliver)
}
func (f *instantNotifier) NodeOf(vcpu int) int { return vcpu % f.n }

// newTestGuest builds an env + guest kernel over nNodes with a heap of
// heapBytes, NUMA aware so the balloon addresses per-node arenas.
func newTestGuest(nNodes int, heapBytes int64) (*sim.Env, *guest.Kernel) {
	env := sim.NewEnv()
	fabric := topo.FlatSpec().Build(env, "fabric", 56, 1500*sim.Nanosecond)
	layer := msg.NewLayer(env, fabric)
	nodes := make([]int, nNodes)
	for i := range nodes {
		nodes[i] = i
	}
	d := dsm.New(env, layer, nodes, dsm.DefaultParams())
	k := guest.New(env, d, &mem.Layout{}, &instantNotifier{n: nNodes}, nNodes,
		heapBytes, guest.OptimizedConfig())
	return env, k
}

func TestEstimatorPeakThenDecay(t *testing.T) {
	e := NewEstimator(0.5)
	e.Observe(100)
	if e.Pages() != 100 {
		t.Fatalf("growth should be adopted instantly, got %d", e.Pages())
	}
	e.Observe(0)
	if got := e.Pages(); got != 50 {
		t.Fatalf("one decay step from 100 toward 0 at alpha 0.5 = 50, got %d", got)
	}
	e.Observe(80)
	if e.Pages() != 80 {
		t.Fatalf("re-growth should be adopted instantly, got %d", e.Pages())
	}
}

func TestDriverInflateLimitsAndDegrades(t *testing.T) {
	env, k := newTestGuest(2, 64<<20)
	drv := NewDriver(env, k)
	perNode := k.CapacityPages() / 2

	var stalledTime sim.Time
	env.Spawn("driver", func(p *sim.Proc) {
		// Allocate a working set of 1024 pages on node 0.
		r, err := k.Alloc(p, 0, 0, 1024*mem.PageSize)
		if err != nil {
			t.Errorf("alloc: %v", err)
			return
		}
		if got := drv.WorkingSetPages(); got != 1024 {
			t.Errorf("working set = %d, want 1024", got)
		}
		if drv.Degraded() {
			t.Error("VM should not be degraded before inflation")
		}

		// Balloon node 0 down to nothing free; the guest keeps its
		// allocated pages.
		took := drv.Inflate(p, 0, 0, perNode)
		if want := perNode - 1024; took != want {
			t.Errorf("inflate took %d, want %d (allocated pages are not stealable)", took, want)
		}
		// Node 1 is untouched, so the VM as a whole still holds far
		// more than its working set.
		if drv.Degraded() {
			t.Error("VM should not be degraded with node 1 free")
		}

		// Free the region: the live set drops to 0, but the estimator
		// only decays toward it (alpha 0.2 -> WSS ~820 pages).
		k.Free(p, 0, 0, r)
		wss := drv.WorkingSetPages()
		if wss >= 1024 || wss <= 0 {
			t.Errorf("working set after free = %d, want slow decay below 1024", wss)
		}

		// Now balloon node 1 down to 256 free pages: the VM's usable
		// capacity (live 0 + free 256) is below its estimated working
		// set, so the host has resized it into degradation.
		took2 := drv.Inflate(p, 1, 1, perNode-256)
		if want := perNode - 256; took2 != want {
			t.Errorf("inflate node 1 took %d, want %d", took2, want)
		}
		if !drv.Degraded() {
			t.Error("VM ballooned below its working set should be degraded")
		}

		// An allocation while degraded must stall on simulated
		// reclaim/swap work.
		before := p.Now()
		if _, err := k.Alloc(p, 1, 1, 64*mem.PageSize); err != nil {
			t.Errorf("alloc while degraded: %v", err)
		}
		stalledTime = p.Now() - before
		drv.Deflate(p, 1, 1, 256)
	})
	env.Run()

	st := drv.Stats()
	if st.Stalls == 0 || st.StallTime == 0 {
		t.Fatalf("ballooned-below-WSS allocation should stall: %+v", st)
	}
	if stalledTime < st.StallTime {
		t.Fatalf("stall time %v not charged to the allocating proc (elapsed %v)", st.StallTime, stalledTime)
	}
	if st.Inflations != 2 || st.Deflations != 1 {
		t.Fatalf("stats = %+v, want 2 inflations / 1 deflation", st)
	}
	if st.InflatedPages-st.DeflatedPages != k.BalloonedPages() {
		t.Fatalf("driver pages (%d - %d) disagree with guest pin %d",
			st.InflatedPages, st.DeflatedPages, k.BalloonedPages())
	}
}

func TestDriverChargesBalloonWork(t *testing.T) {
	env, k := newTestGuest(1, 64<<20)
	drv := NewDriver(env, k)
	var elapsed sim.Time
	env.Spawn("driver", func(p *sim.Proc) {
		start := p.Now()
		drv.Inflate(p, 0, 0, 1024)
		elapsed = p.Now() - start
	})
	env.Run()
	if elapsed == 0 {
		t.Fatal("inflation must cost simulated time")
	}
	// 1024 pages / 256 per batch = 4 batches, each at least perBatchCPU.
	if min := 4 * perBatchCPU; elapsed < min {
		t.Fatalf("inflation of 4 batches took %v, want >= %v", elapsed, min)
	}
}
