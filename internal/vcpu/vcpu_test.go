package vcpu

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/sim"
)

// newTestManager places one vCPU per node across n nodes.
func newTestManager(n int) (*sim.Env, *cluster.Cluster, *Manager) {
	env := sim.NewEnv()
	c := cluster.NewDefault(env, n)
	layer := msg.NewLayer(env, c.Fabric)
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	m := NewManager(env, layer, nodes, nodes, DefaultParams())
	for i := range nodes {
		m.Repin(i, i, c.Node(i).PCPUs[0])
	}
	return env, c, m
}

func TestLocalIPICheap(t *testing.T) {
	env, _, m := newTestManager(2)
	var cost sim.Time
	delivered := false
	env.Spawn("sender", func(p *sim.Proc) {
		start := p.Now()
		m.IPI(p, 0, 0, func() { delivered = true })
		cost = p.Now() - start
	})
	env.Run()
	if !delivered {
		t.Fatal("local IPI not delivered")
	}
	if cost != ipiLocal {
		t.Fatalf("local IPI cost = %v", cost)
	}
}

func TestRemoteIPIUsesFabric(t *testing.T) {
	env, c, m := newTestManager(2)
	var deliveredAt sim.Time
	env.Spawn("sender", func(p *sim.Proc) {
		m.IPI(p, 0, 1, func() { deliveredAt = env.Now() })
	})
	env.Run()
	if deliveredAt == 0 {
		t.Fatal("remote IPI not delivered")
	}
	if deliveredAt <= c.Fabric.Latency() {
		t.Fatalf("remote IPI arrived at %v, faster than fabric latency", deliveredAt)
	}
	if c.Fabric.Stats().Messages == 0 {
		t.Fatal("remote IPI sent no fabric message")
	}
}

func TestMigrationLatency(t *testing.T) {
	env, c, m := newTestManager(2)
	var d sim.Time
	env.Spawn("orchestrator", func(p *sim.Proc) {
		d = m.Migrate(p, 0, 1, c.Node(1).PCPUs[1])
	})
	env.Run()
	// The paper reports ~86 us average including the 38 us register dump.
	if d < 78*sim.Microsecond || d > 95*sim.Microsecond {
		t.Fatalf("migration latency = %v, want ~86us", d)
	}
	if m.VCPU(0).Node() != 1 {
		t.Fatal("vCPU not rehomed")
	}
	count, mean := m.Migrations()
	if count != 1 || mean != d {
		t.Fatalf("migration stats: count=%d mean=%v", count, mean)
	}
}

func TestSameNodeMigrationFree(t *testing.T) {
	env, c, m := newTestManager(2)
	env.Spawn("orchestrator", func(p *sim.Proc) {
		if d := m.Migrate(p, 0, 0, c.Node(0).PCPUs[3]); d != 0 {
			t.Errorf("same-node re-pin took %v", d)
		}
	})
	env.Run()
	if m.VCPU(0).PCPU() != c.Node(0).PCPUs[3] {
		t.Fatal("vCPU not re-pinned")
	}
}

func TestMigrationBroadcastsLocation(t *testing.T) {
	env, c, m := newTestManager(4)
	env.Spawn("orchestrator", func(p *sim.Proc) {
		m.Migrate(p, 0, 1, c.Node(1).PCPUs[1])
	})
	env.Run()
	if m.NodeOf(0) != 1 {
		t.Fatal("location table not updated")
	}
	// Location updates go to the 2 uninvolved slices.
	msgs, _ := c.Fabric.EndpointSent(1)
	if msgs < 2 {
		t.Fatalf("destination sent %d messages, want >=2 location updates", msgs)
	}
}

func TestComputeFollowsMigration(t *testing.T) {
	// A context computing before and after migration must land its work
	// on different pCPUs.
	env, c, m := newTestManager(2)
	env.Spawn("worker", func(p *sim.Proc) {
		ctx := m.NewCtx(p, 0)
		ctx.Compute(10 * sim.Millisecond)
		m.Migrate(p, 0, 1, c.Node(1).PCPUs[0])
		ctx.Compute(10 * sim.Millisecond)
	})
	env.Run()
	cyc := cluster.CyclesFor(10 * sim.Millisecond)
	if got := c.Node(0).PCPUs[0].TotalDone(); got < cyc*0.99 || got > cyc*1.01 {
		t.Errorf("node0 pCPU did %v cycles, want ~%v", got, cyc)
	}
	if got := c.Node(1).PCPUs[0].TotalDone(); got < cyc*0.99 || got > cyc*1.01 {
		t.Errorf("node1 pCPU did %v cycles, want ~%v", got, cyc)
	}
}

func TestOvercommitSharesPCPU(t *testing.T) {
	// Two vCPUs pinned on one pCPU each take twice as long.
	env := sim.NewEnv()
	c := cluster.NewDefault(env, 1)
	layer := msg.NewLayer(env, c.Fabric)
	pcpu := c.Node(0).PCPUs[0]
	m := NewManager(env, layer, []int{0}, []int{0, 0}, DefaultParams())
	m.Repin(0, 0, pcpu)
	m.Repin(1, 0, pcpu)
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		env.Spawn("worker", func(p *sim.Proc) {
			m.NewCtx(p, i).Compute(100 * sim.Millisecond)
			done[i] = p.Now()
		})
	}
	env.Run()
	for i, d := range done {
		if d < 199*sim.Millisecond || d > 201*sim.Millisecond {
			t.Errorf("vCPU %d finished at %v, want ~200ms", i, d)
		}
	}
}

func TestVCPUOutOfRangePanics(t *testing.T) {
	_, _, m := newTestManager(2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range VCPU() did not panic")
		}
	}()
	m.VCPU(5)
}
