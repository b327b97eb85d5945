package cluster

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestNewDefault(t *testing.T) {
	env := sim.NewEnv()
	c := NewDefault(env, 4)
	if len(c.Nodes) != 4 {
		t.Fatalf("node count = %d", len(c.Nodes))
	}
	n := c.Node(2)
	if n.ID != 2 || len(n.PCPUs) != 8 || n.RAM != 32<<30 {
		t.Fatalf("node = %+v", n)
	}
	if c.Fabric.Latency() != 1500*sim.Nanosecond {
		t.Fatalf("fabric latency = %v", c.Fabric.Latency())
	}
}

func TestNodeOutOfRangePanics(t *testing.T) {
	env := sim.NewEnv()
	c := NewDefault(env, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range node access did not panic")
		}
	}()
	c.Node(2)
}

func TestCyclesFor(t *testing.T) {
	got := CyclesFor(sim.Second)
	if math.Abs(got-2.1e9) > 1 {
		t.Fatalf("CyclesFor(1s) = %v", got)
	}
}

func TestDiskBandwidth(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 500e6)
	var done sim.Time
	env.Spawn("io", func(p *sim.Proc) {
		d.Transfer(p, 500e6) // 1 second at 500 MB/s
		done = p.Now()
	})
	env.Run()
	if math.Abs(done.Seconds()-1.0) > 1e-6 {
		t.Fatalf("500MB transfer took %v", done)
	}
	if d.TotalBytes() != 500e6 {
		t.Fatalf("TotalBytes = %d", d.TotalBytes())
	}
}

func TestDiskFIFOSerialization(t *testing.T) {
	env := sim.NewEnv()
	d := NewDisk(env, 1e6) // 1 MB/s
	var a, b sim.Time
	env.Spawn("a", func(p *sim.Proc) { d.Transfer(p, 1e6); a = p.Now() })
	env.Spawn("b", func(p *sim.Proc) { d.Transfer(p, 1e6); b = p.Now() })
	env.Run()
	if math.Abs(a.Seconds()-1.0) > 1e-6 || math.Abs(b.Seconds()-2.0) > 1e-6 {
		t.Fatalf("transfers finished at %v and %v, want 1s and 2s", a, b)
	}
}

func TestInvalidClusterParams(t *testing.T) {
	env := sim.NewEnv()
	for _, fn := range []func(){
		func() { New(env, 0, DefaultParams()) },
		func() { New(env, 1, Params{}) },
		func() { NewDisk(env, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
