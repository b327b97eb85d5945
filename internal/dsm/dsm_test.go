package dsm

import (
	"bytes"
	"testing"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topo"
)

// newTestDSM builds a DSM over n nodes (fabric ids 0..n-1) with FragVisor
// default parameters.
func newTestDSM(n int, p Params) (*sim.Env, *DSM) {
	env := sim.NewEnv()
	fabric := topo.FlatSpec().Build(env, "fabric", 56, 1500*sim.Nanosecond)
	layer := msg.NewLayer(env, fabric)
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	return env, New(env, layer, nodes, p)
}

// run executes fn in a process and runs the simulation to completion.
func run(env *sim.Env, fn func(p *sim.Proc)) {
	env.Spawn("test", fn)
	env.Run()
}

func TestReadFaultReplicates(t *testing.T) {
	env, d := newTestDSM(2, DefaultParams())
	pg := mem.PageID(7)
	run(env, func(p *sim.Proc) {
		d.Write(p, 0, pg, 0, []byte("hello"))
		got := d.Read(p, 1, pg)
		if !bytes.HasPrefix(got, []byte("hello")) {
			t.Errorf("remote read = %q", got[:5])
		}
	})
	if s := d.PageState(1, pg); s != Shared {
		t.Errorf("node1 state = %v, want shared", s)
	}
	owner, copyset, ok := d.DirEntry(pg)
	if !ok || owner != 0 || len(copyset) != 2 {
		t.Errorf("dir = owner %d copyset %v ok %v", owner, copyset, ok)
	}
	if f := d.NodeStats(1).ReadFaults; f != 1 {
		t.Errorf("node1 read faults = %d", f)
	}
}

func TestWriteFaultInvalidates(t *testing.T) {
	env, d := newTestDSM(3, DefaultParams())
	pg := mem.PageID(3)
	run(env, func(p *sim.Proc) {
		d.Write(p, 0, pg, 0, []byte("v0"))
		d.Read(p, 1, pg)
		d.Read(p, 2, pg)
		d.Write(p, 1, pg, 0, []byte("v1"))
	})
	if s := d.PageState(0, pg); s != Invalid {
		t.Errorf("node0 state = %v, want invalid", s)
	}
	if s := d.PageState(2, pg); s != Invalid {
		t.Errorf("node2 state = %v, want invalid", s)
	}
	if s := d.PageState(1, pg); s != Exclusive {
		t.Errorf("node1 state = %v, want exclusive", s)
	}
	owner, copyset, _ := d.DirEntry(pg)
	if owner != 1 || len(copyset) != 1 || copyset[0] != 1 {
		t.Errorf("dir owner=%d copyset=%v", owner, copyset)
	}
	// Node 0 and 2 each received one invalidation.
	if n := d.NodeStats(0).Invalidations + d.NodeStats(2).Invalidations; n != 2 {
		t.Errorf("invalidations = %d, want 2", n)
	}
}

func TestReadAfterRemoteWrite(t *testing.T) {
	env, d := newTestDSM(2, DefaultParams())
	pg := mem.PageID(11)
	run(env, func(p *sim.Proc) {
		d.Write(p, 1, pg, 100, []byte("remote-data"))
		got := d.Read(p, 0, pg)
		if !bytes.Equal(got[100:111], []byte("remote-data")) {
			t.Errorf("read after remote write = %q", got[100:111])
		}
	})
}

func TestLocalHitsAreFree(t *testing.T) {
	env, d := newTestDSM(2, DefaultParams())
	pg := mem.PageID(1)
	var faultTime, hitTime sim.Time
	run(env, func(p *sim.Proc) {
		start := p.Now()
		d.Touch(p, 1, pg, true)
		faultTime = p.Now() - start
		start = p.Now()
		for i := 0; i < 100; i++ {
			d.Touch(p, 1, pg, true)
			d.Touch(p, 1, pg, false)
		}
		hitTime = p.Now() - start
	})
	if faultTime == 0 {
		t.Error("fault took zero time")
	}
	if hitTime != 0 {
		t.Errorf("200 local hits took %v, want 0", hitTime)
	}
	if h := d.NodeStats(1).LocalHits; h != 200 {
		t.Errorf("local hits = %d", h)
	}
}

func TestUpgradeSharedToExclusiveMovesNoData(t *testing.T) {
	env, d := newTestDSM(2, DefaultParams())
	pg := mem.PageID(5)
	run(env, func(p *sim.Proc) {
		d.Write(p, 0, pg, 0, []byte("x")) // node0 exclusive
		d.Read(p, 1, pg)                  // node1 shared
		before := d.NodeStats(1).BytesMoved
		d.Touch(p, 1, pg, true) // upgrade: node1 already has the bytes
		if moved := d.NodeStats(1).BytesMoved - before; moved != 0 {
			t.Errorf("upgrade moved %d bytes, want 0", moved)
		}
	})
	if s := d.PageState(1, pg); s != Exclusive {
		t.Errorf("node1 state = %v", s)
	}
	if s := d.PageState(0, pg); s != Invalid {
		t.Errorf("node0 state = %v", s)
	}
}

func TestPingPongCostScalesWithNodes(t *testing.T) {
	// Figure 4's mechanism: N writers on one page take ~N times longer
	// than a single writer, because every write transfers ownership.
	elapsed := func(n int) sim.Time {
		env, d := newTestDSM(n, DefaultParams())
		pg := mem.PageID(9)
		const iters = 50
		run(env, func(p *sim.Proc) {
			for i := 0; i < iters; i++ {
				for node := 0; node < n; node++ {
					d.Touch(p, node, pg, true)
				}
			}
		})
		return env.Now()
	}
	t2, t4 := elapsed(2), elapsed(4)
	if ratio := float64(t4) / float64(t2); ratio < 1.6 || ratio > 2.6 {
		t.Errorf("4-node/2-node ping-pong ratio = %.2f, want ~2", ratio)
	}
}

func TestUserSpaceDSMIsSlower(t *testing.T) {
	work := func(p Params) sim.Time {
		env, d := newTestDSM(2, p)
		pg := mem.PageID(2)
		run(env, func(proc *sim.Proc) {
			for i := 0; i < 20; i++ {
				d.Touch(proc, 0, pg, true)
				d.Touch(proc, 1, pg, true)
			}
		})
		return env.Now()
	}
	kernel, user := work(DefaultParams()), work(GiantVMParams())
	if user <= kernel {
		t.Errorf("user-space DSM (%v) not slower than kernel DSM (%v)", user, kernel)
	}
}

func TestContextualPiggybackSkipsProtocol(t *testing.T) {
	env, d := newTestDSM(2, DefaultParams())
	layout := &mem.Layout{}
	ctx := layout.Alloc("pgtables", 4, mem.KindContext)
	d.MarkContextual(ctx)
	pg := ctx.Page(0)
	run(env, func(p *sim.Proc) {
		d.Write(p, 0, pg, 0, []byte("pte0"))
		d.Read(p, 1, pg) // replicate to node 1
		before := d.NodeStats(0)
		d.Write(p, 0, pg, 0, []byte("pte1"))
		after := d.NodeStats(0)
		if after.WriteFaults != before.WriteFaults {
			t.Error("contextual write ran the fault protocol")
		}
		if after.ContextualWrites != before.ContextualWrites+1 {
			t.Error("contextual write not counted")
		}
		// The replica on node 1 was updated in place.
		got := d.Read(p, 1, pg)
		if !bytes.HasPrefix(got, []byte("pte1")) {
			t.Errorf("node1 sees %q after piggybacked update", got[:4])
		}
	})
}

func TestContextualDisabledRunsProtocol(t *testing.T) {
	p := DefaultParams()
	p.ContextualPiggyback = false
	env, d := newTestDSM(2, p)
	layout := &mem.Layout{}
	ctx := layout.Alloc("pgtables", 4, mem.KindContext)
	d.MarkContextual(ctx)
	pg := ctx.Page(0)
	run(env, func(proc *sim.Proc) {
		d.Touch(proc, 0, pg, true)
		d.Touch(proc, 1, pg, true)
	})
	if f := d.NodeStats(1).WriteFaults; f != 1 {
		t.Errorf("write faults with piggyback disabled = %d, want 1", f)
	}
}

func TestDirtyBitTrackingAddsFaults(t *testing.T) {
	p := DefaultParams()
	p.DirtyBitTracking = true
	env, d := newTestDSM(3, p)
	run(env, func(proc *sim.Proc) {
		// Non-origin nodes, so each data access is a genuine write fault.
		d.Touch(proc, 1, 100, true)
		d.Touch(proc, 2, 101, true)
		d.Touch(proc, 1, 102, true)
	})
	total := d.TotalStats()
	if total.DirtyFaults != 3 {
		t.Errorf("dirty faults = %d, want 3", total.DirtyFaults)
	}
	// The shared dirty-tracking page itself ping-pongs between writers.
	if total.WriteFaults < 5 {
		t.Errorf("write faults = %d, want >=5 (3 data + dirty-page traffic)", total.WriteFaults)
	}
}

func TestSingleNodeDSMAllLocal(t *testing.T) {
	env, d := newTestDSM(1, DefaultParams())
	run(env, func(p *sim.Proc) {
		d.Write(p, 0, 1, 0, []byte("x"))
		d.Read(p, 0, 1)
		d.TouchRange(p, 0, 1000, 100, true)
	})
	if msgs := d.layer.Net().Stats().Messages; msgs != 0 {
		t.Errorf("single-node DSM sent %d fabric messages", msgs)
	}
}

func TestStatsAggregation(t *testing.T) {
	env, d := newTestDSM(3, DefaultParams())
	run(env, func(p *sim.Proc) {
		d.Touch(p, 1, 1, true)  // write fault at node 1
		d.Touch(p, 2, 1, false) // read fault at node 2
		d.Touch(p, 2, 2, true)  // write fault at node 2
	})
	total := d.TotalStats()
	if total.ReadFaults != 1 || total.WriteFaults != 2 {
		t.Errorf("total = %+v", total)
	}
	if total.Faults() != 3 {
		t.Errorf("Faults() = %d", total.Faults())
	}
}

func TestOriginFirstAccessIsLocal(t *testing.T) {
	// The bootstrap slice (origin) backs the whole guest physical space,
	// so its first touch of an untouched page is a hit, not a fault.
	env, d := newTestDSM(2, DefaultParams())
	run(env, func(p *sim.Proc) {
		d.Touch(p, 0, 55, true)
	})
	if s := d.NodeStats(0); s.WriteFaults != 0 || s.LocalHits != 1 {
		t.Errorf("origin stats = %+v", s)
	}
}

func TestWriteOutsidePagePanics(t *testing.T) {
	env, d := newTestDSM(1, DefaultParams())
	defer func() {
		if recover() == nil {
			t.Error("out-of-page write did not panic")
		}
	}()
	run(env, func(p *sim.Proc) {
		d.Write(p, 0, 1, mem.PageSize-1, []byte("too long"))
	})
}

func TestConcurrentWritersSerializePerPage(t *testing.T) {
	// Two nodes hammer one page concurrently; the directory must
	// serialize grants so exactly one owner exists at any time and the
	// final directory state is consistent.
	env, d := newTestDSM(3, DefaultParams())
	pg := mem.PageID(33)
	const iters = 25
	for node := 1; node < 3; node++ {
		node := node
		env.Spawn("writer", func(p *sim.Proc) {
			for i := 0; i < iters; i++ {
				d.Touch(p, node, pg, true)
				p.Sleep(sim.Microsecond)
			}
		})
	}
	env.Run()
	owner, copyset, ok := d.DirEntry(pg)
	if !ok {
		t.Fatal("no dir entry")
	}
	if len(copyset) != 1 || copyset[0] != owner {
		t.Fatalf("owner=%d copyset=%v", owner, copyset)
	}
	// Both writers should have faulted many times (ping-pong).
	if f := d.NodeStats(1).WriteFaults + d.NodeStats(2).WriteFaults; f < 10 {
		t.Errorf("write faults = %d, expected heavy ping-pong", f)
	}
	exclusive := 0
	for node := 0; node < 3; node++ {
		if d.PageState(node, pg) == Exclusive {
			exclusive++
		}
	}
	if exclusive != 1 {
		t.Errorf("%d exclusive copies, want exactly 1", exclusive)
	}
}
