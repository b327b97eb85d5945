package guest

import (
	"errors"
	"testing"

	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topo"
)

// fakeNotifier delivers wakeups instantly and pins every vCPU i on node
// i%n for tests.
type fakeNotifier struct {
	n     int
	wakes int
}

func (f *fakeNotifier) Wakeup(p *sim.Proc, fromNode, toVCPU int, deliver func()) {
	f.wakes++
	p.Env().After(0, deliver)
}
func (f *fakeNotifier) NodeOf(vcpu int) int { return vcpu % f.n }

// newTestKernel builds a kernel over nNodes nodes with nVCPU vCPUs.
func newTestKernel(nNodes, nVCPU int, cfg Config) (*sim.Env, *dsm.DSM, *Kernel, *fakeNotifier) {
	env := sim.NewEnv()
	fabric := topo.FlatSpec().Build(env, "fabric", 56, 1500*sim.Nanosecond)
	layer := msg.NewLayer(env, fabric)
	nodes := make([]int, nNodes)
	for i := range nodes {
		nodes[i] = i
	}
	d := dsm.New(env, layer, nodes, dsm.DefaultParams())
	notif := &fakeNotifier{n: nNodes}
	layout := &mem.Layout{}
	k := New(env, d, layout, notif, nVCPU, 64<<20, cfg)
	return env, d, k, notif
}

func run(env *sim.Env, fn func(p *sim.Proc)) {
	env.Spawn("test", fn)
	env.Run()
}

func TestVanillaFalseSharingLayout(t *testing.T) {
	_, _, k, _ := newTestKernel(2, 4, VanillaConfig())
	if k.percpu[0] != k.percpu[1] || k.percpu[2] != k.percpu[3] {
		t.Error("vanilla layout should pair vCPUs on shared pages")
	}
	if k.percpu[0] == k.percpu[2] {
		t.Error("different pairs must use different pages")
	}
}

func TestOptimizedLayoutSeparatesPages(t *testing.T) {
	_, _, k, _ := newTestKernel(2, 4, OptimizedConfig())
	seen := map[mem.PageID]bool{}
	for _, pg := range k.percpu {
		if seen[pg] {
			t.Fatal("optimized layout shares a per-CPU page")
		}
		seen[pg] = true
	}
}

func TestVanillaTicksPingPong(t *testing.T) {
	// vCPU0 on node0 and vCPU1 on node1 share a kernel page in the
	// vanilla layout: alternating ticks must fault every time. In the
	// optimized layout they are independent after the first touch.
	ticks := func(cfg Config) int64 {
		env, d, k, _ := newTestKernel(2, 2, cfg)
		run(env, func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				k.Tick(p, 0, 0)
				k.Tick(p, 1, 1)
			}
		})
		return d.TotalStats().WriteFaults
	}
	vanilla, optimized := ticks(VanillaConfig()), ticks(Config{Optimized: true})
	if vanilla < 30 {
		t.Errorf("vanilla write faults = %d, expected ping-pong", vanilla)
	}
	if optimized > 3 {
		t.Errorf("optimized write faults = %d, expected near zero", optimized)
	}
}

func TestAllocNUMAAwareIsLocal(t *testing.T) {
	env, d, k, _ := newTestKernel(2, 2, OptimizedConfig())
	var r mem.Region
	run(env, func(p *sim.Proc) {
		r, _ = k.Alloc(p, 1, 1, 8<<20) // 8 MiB on node 1
	})
	if r.Pages != 2048 {
		t.Fatalf("region pages = %d", r.Pages)
	}
	if d.NodeStats(1).BulkRemotePages != 0 {
		t.Errorf("NUMA-aware alloc moved %d pages remotely", d.NodeStats(1).BulkRemotePages)
	}
	// The arena was pre-delegated, so node 1 owns the memory.
	if owned := d.OwnedBytes(1); owned < 8<<20 {
		t.Errorf("node1 owns %d bytes, want >= 8 MiB", owned)
	}
}

func TestAllocVanillaRemoteCosts(t *testing.T) {
	elapsed := func(node int) sim.Time {
		env, _, k, _ := newTestKernel(2, 2, VanillaConfig())
		var dt sim.Time
		run(env, func(p *sim.Proc) {
			start := p.Now()
			k.Alloc(p, node, node, 8<<20)
			dt = p.Now() - start
		})
		return dt
	}
	local, remote := elapsed(0), elapsed(1)
	if remote < 5*local {
		t.Errorf("remote alloc %v not much slower than local %v", remote, local)
	}
}

func TestAllocSerializesOnSharedLockPage(t *testing.T) {
	// Concurrent allocations from different nodes contend on the
	// allocator lock page: both nodes must see write faults on it.
	env, d, k, _ := newTestKernel(2, 2, VanillaConfig())
	for node := 0; node < 2; node++ {
		node := node
		env.Spawn("alloc", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				k.Alloc(p, node, node, 8<<20)
				p.Sleep(10 * sim.Microsecond)
			}
		})
	}
	env.Run()
	if f := d.NodeStats(1).WriteFaults; f < 3 {
		t.Errorf("node1 write faults = %d, expected allocator contention", f)
	}
}

func TestAllocExhaustionReturnsTypedError(t *testing.T) {
	env, _, k, _ := newTestKernel(1, 1, VanillaConfig())
	run(env, func(p *sim.Proc) {
		_, err := k.Alloc(p, 0, 0, 128<<20) // larger than the 64 MiB heap
		var oom *OutOfMemoryError
		if !errors.As(err, &oom) {
			t.Errorf("heap exhaustion returned %v, want *OutOfMemoryError", err)
			return
		}
		if oom.Pages != (128<<20)/4096 {
			t.Errorf("OOM details = %+v", oom)
		}
		// The failed allocation must not have consumed heap: a
		// page-sized retry still succeeds.
		if _, err := k.Alloc(p, 0, 0, 4096); err != nil {
			t.Errorf("allocation after failed OOM attempt: %v", err)
		}
	})
}

func TestContextualPageTableUpdates(t *testing.T) {
	// With contextual DSM (default), page-table updates from a remote
	// node avoid the write-fault protocol entirely.
	env, d, k, _ := newTestKernel(2, 2, OptimizedConfig())
	run(env, func(p *sim.Proc) {
		k.PageTableUpdate(p, 0, 0)
		k.PageTableUpdate(p, 1, 1)
		k.PageTableUpdate(p, 1, 1)
	})
	st := d.TotalStats()
	// Each update touches the vCPU's page-table page and the shared PGD.
	if st.ContextualWrites != 6 {
		t.Errorf("contextual writes = %d, want 6", st.ContextualWrites)
	}
}

func TestSocketSameNodeCheap(t *testing.T) {
	env, _, k, notif := newTestKernel(1, 2, OptimizedConfig())
	s := k.NewSocket()
	var got int
	env.Spawn("rx", func(p *sim.Proc) { got, _ = s.Recv(p, 0) })
	env.Spawn("tx", func(p *sim.Proc) { s.Send(p, 0, 0, 1, 4096) })
	env.Run()
	if got != 4096 {
		t.Fatalf("received %d bytes", got)
	}
	if notif.wakes != 1 {
		t.Fatalf("wakeups = %d", notif.wakes)
	}
}

func TestSocketCrossNodeFaults(t *testing.T) {
	// A 64 KiB message between vCPUs on different nodes round-trips its
	// buffer pages through the DSM: the receiver must fault per page.
	env, d, k, _ := newTestKernel(2, 2, OptimizedConfig())
	s := k.NewSocket()
	env.Spawn("rx", func(p *sim.Proc) { s.Recv(p, 1) })
	env.Spawn("tx", func(p *sim.Proc) { s.Send(p, 0, 0, 1, 64<<10) })
	env.Run()
	if rf := d.NodeStats(1).ReadFaults; rf != 16 {
		t.Errorf("receiver read faults = %d, want 16", rf)
	}
}

func TestSocketStreamReusesRing(t *testing.T) {
	// Messages bigger than the 16-page ring wrap; repeated sends reuse
	// pages rather than growing memory.
	env, _, k, _ := newTestKernel(1, 2, OptimizedConfig())
	s := k.NewSocket()
	before := k.Layout().TotalPages()
	env.Spawn("rx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			s.Recv(p, 0)
		}
	})
	env.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			s.Send(p, 0, 0, 1, 256<<10) // 64 pages each, ring is 16
		}
	})
	env.Run()
	if s.Pending() != 0 {
		t.Fatalf("pending = %d", s.Pending())
	}
	if after := k.Layout().TotalPages(); after != before {
		t.Fatalf("layout grew from %d to %d pages", before, after)
	}
}

func TestFreeTouchesAllocator(t *testing.T) {
	env, d, k, _ := newTestKernel(2, 2, VanillaConfig())
	run(env, func(p *sim.Proc) {
		r, _ := k.Alloc(p, 1, 1, 1<<20)
		before := d.NodeStats(1).WriteFaults + d.NodeStats(1).LocalHits
		k.Free(p, 1, 1, r)
		after := d.NodeStats(1).WriteFaults + d.NodeStats(1).LocalHits
		if after == before {
			t.Error("Free caused no allocator-page access")
		}
	})
}

// countingObserver records the allocator telemetry stream.
type countingObserver struct {
	allocs, frees int
	pages         int64
}

func (c *countingObserver) AllocPages(p *sim.Proc, node int, pages int64) {
	c.allocs++
	c.pages += pages
}
func (c *countingObserver) FreePages(p *sim.Proc, node int, pages int64) {
	c.frees++
	c.pages -= pages
}

func TestMemObserverSeesAllocAndFree(t *testing.T) {
	env, _, k, _ := newTestKernel(2, 2, OptimizedConfig())
	obs := &countingObserver{}
	k.SetMemObserver(obs)
	run(env, func(p *sim.Proc) {
		r, err := k.Alloc(p, 0, 0, 1<<20)
		if err != nil {
			t.Errorf("Alloc: %v", err)
			return
		}
		k.Free(p, 0, 0, r)
	})
	if obs.allocs != 1 || obs.frees != 1 {
		t.Errorf("observer saw %d allocs, %d frees, want 1 each", obs.allocs, obs.frees)
	}
	if obs.pages != 0 {
		t.Errorf("observer net pages = %d, want 0 after free", obs.pages)
	}
}

func TestBalloonReserveLimitsAllocator(t *testing.T) {
	// Pin everything but one page on both NUMA arenas: the allocator
	// must OOM on a two-page request and succeed after deflation.
	env, _, k, _ := newTestKernel(2, 2, OptimizedConfig())
	run(env, func(p *sim.Proc) {
		var pinned int64
		for n := 0; n < 2; n++ {
			free := k.CapacityPages()/2 - 1 // per-arena capacity minus one
			pinned += k.BalloonReserve(n, free)
		}
		if got := k.BalloonedPages(); got != pinned {
			t.Fatalf("BalloonedPages = %d, want %d", got, pinned)
		}
		if _, err := k.Alloc(p, 0, 0, 2*4096); err == nil {
			t.Error("allocation beyond ballooned capacity succeeded")
		}
		if _, err := k.Alloc(p, 0, 0, 4096); err != nil {
			t.Errorf("single free page should still be allocatable: %v", err)
		}
		k.BalloonReturn(0, 1)
		if _, err := k.Alloc(p, 1, 1, 4096); err != nil {
			t.Errorf("allocation after balloon return failed: %v", err)
		}
	})
}

func TestBalloonReserveCappedByFreePages(t *testing.T) {
	// The balloon never steals allocated pages: a reservation larger
	// than the arena's free space is truncated.
	env, _, k, _ := newTestKernel(1, 1, VanillaConfig())
	run(env, func(p *sim.Proc) {
		if _, err := k.Alloc(p, 0, 0, 1<<20); err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		free := k.CapacityPages() - k.AllocatedPages()
		if got := k.BalloonReserve(0, free+1000); got != free {
			t.Errorf("BalloonReserve took %d pages, want %d (free)", got, free)
		}
		if got := k.BalloonReserve(0, 1); got != 0 {
			t.Errorf("second reservation took %d pages from an empty arena", got)
		}
	})
}
