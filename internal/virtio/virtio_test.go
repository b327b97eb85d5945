package virtio

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/vcpu"
)

// harness wires a cluster, DSM, and vCPU manager with one vCPU per node.
type harness struct {
	env    *sim.Env
	c      *cluster.Cluster
	layer  *msg.Layer
	d      *dsm.DSM
	vm     *vcpu.Manager
	layout *mem.Layout
}

func newHarness(nNodes int) *harness {
	env := sim.NewEnv()
	c := cluster.NewDefault(env, nNodes)
	layer := msg.NewLayer(env, c.Fabric)
	nodes := make([]int, nNodes)
	for i := range nodes {
		nodes[i] = i
	}
	d := dsm.New(env, layer, nodes, dsm.DefaultParams())
	vm := vcpu.NewManager(env, layer, nodes, nodes, vcpu.DefaultParams())
	for i := range nodes {
		vm.Repin(i, i, c.Node(i).PCPUs[0])
	}
	return &harness{env: env, c: c, layer: layer, d: d, vm: vm, layout: &mem.Layout{}}
}

func (h *harness) net(cfg Config) *NetDev {
	return NewNet(h.env, h.d, h.layer, h.vm, h.layout, h.c.Client, cfg)
}

func (h *harness) blk(cfg Config) *BlkDev {
	return NewBlk(h.env, h.d, h.layer, h.vm, h.layout, h.c.Node(cfg.Owner).SSD, cfg)
}

const clientAddr = cluster.ClientID

func TestNetRequestResponseLocalVCPU(t *testing.T) {
	h := newHarness(2)
	nd := h.net(Config{Owner: 0, Multiqueue: true})
	cl := nd.NewClient(clientAddr)
	// Server on vCPU 0 (same node as the NIC: local I/O).
	h.env.Spawn("server", func(p *sim.Proc) {
		ctx := h.vm.NewCtx(p, 0)
		from, n := nd.Recv(ctx)
		if from != clientAddr || n != 1000 {
			t.Errorf("server got from=%d n=%d", from, n)
		}
		nd.Send(ctx, clientAddr, 2000)
	})
	var resp int
	h.env.Spawn("client", func(p *sim.Proc) {
		cl.Send(p, 0, 1000)
		_, resp = cl.Recv(p)
	})
	h.env.Run()
	if resp != 2000 {
		t.Fatalf("client received %d bytes", resp)
	}
	st := nd.Stats()
	if st.RxPackets != 1 || st.TxPackets != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNetDelegatedSlowerThanLocal(t *testing.T) {
	// Fig 6's mechanism: serving from a vCPU on a remote slice pays
	// delegation (DSM ring + payload + fabric) on top of the wire.
	elapsed := func(serverVCPU int) sim.Time {
		h := newHarness(2)
		nd := h.net(Config{Owner: 0, Multiqueue: true})
		cl := nd.NewClient(clientAddr)
		h.env.Spawn("server", func(p *sim.Proc) {
			ctx := h.vm.NewCtx(p, serverVCPU)
			for i := 0; i < 10; i++ {
				nd.Recv(ctx)
				nd.Send(ctx, clientAddr, 64<<10)
			}
		})
		var done sim.Time
		h.env.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				cl.Send(p, serverVCPU, 500)
				cl.Recv(p)
			}
			done = p.Now()
		})
		h.env.Run()
		return done
	}
	local, delegated := elapsed(0), elapsed(1)
	if delegated <= local {
		t.Fatalf("delegated I/O (%v) not slower than local (%v)", delegated, local)
	}
	// But delegation must stay a bounded overhead, not a collapse: the
	// 1 GbE wire and the remote wake-from-halt dominate, not the DSM.
	if ratio := float64(delegated) / float64(local); ratio > 3.5 {
		t.Fatalf("delegation ratio = %.2f, implausibly slow", ratio)
	}
}

func TestNetBypassAvoidsDSM(t *testing.T) {
	run := func(bypass bool) (sim.Time, dsm.Stats) {
		h := newHarness(2)
		nd := h.net(Config{Owner: 0, Multiqueue: true, Bypass: bypass})
		cl := nd.NewClient(clientAddr)
		h.env.Spawn("server", func(p *sim.Proc) {
			ctx := h.vm.NewCtx(p, 1) // remote vCPU
			for i := 0; i < 5; i++ {
				nd.Recv(ctx)
				nd.Send(ctx, clientAddr, 256<<10)
			}
		})
		var done sim.Time
		h.env.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				cl.Send(p, 1, 500)
				cl.Recv(p)
			}
			done = p.Now()
		})
		h.env.Run()
		return done, h.d.TotalStats()
	}
	tDSM, sDSM := run(false)
	tBypass, sBypass := run(true)
	if tBypass >= tDSM {
		t.Errorf("bypass (%v) not faster than DSM path (%v)", tBypass, tDSM)
	}
	if sBypass.Faults() >= sDSM.Faults() {
		t.Errorf("bypass faults (%d) not fewer than DSM faults (%d)",
			sBypass.Faults(), sDSM.Faults())
	}
}

func TestSingleQueueRingContention(t *testing.T) {
	// Without multiqueue, concurrent senders on different slices share
	// queue 0: its ring pages carry data between three nodes instead of
	// two, and one vhost worker serializes all packets. Multiqueue must
	// finish the same offered load sooner and move fewer page bytes.
	measure := func(multiqueue bool) (sim.Time, dsm.Stats) {
		h := newHarness(3)
		nd := h.net(Config{Owner: 0, Multiqueue: multiqueue})
		nd.NewClient(clientAddr)
		for v := 1; v < 3; v++ {
			v := v
			h.env.Spawn("sender", func(p *sim.Proc) {
				ctx := h.vm.NewCtx(p, v)
				for i := 0; i < 20; i++ {
					nd.Send(ctx, clientAddr, 1000)
					p.Sleep(5 * sim.Microsecond)
				}
			})
		}
		h.env.Run()
		return h.env.Now(), h.d.TotalStats()
	}
	tSingle, sSingle := measure(false)
	tMulti, sMulti := measure(true)
	if tSingle <= tMulti {
		t.Errorf("single-queue run (%v) not slower than multiqueue (%v)", tSingle, tMulti)
	}
	if sSingle.BytesMoved <= sMulti.BytesMoved {
		t.Errorf("single-queue moved %d bytes, multiqueue %d: sharing should cost data movement",
			sSingle.BytesMoved, sMulti.BytesMoved)
	}
}

func TestBlkLocalBandwidthDiskBound(t *testing.T) {
	h := newHarness(2)
	bd := h.blk(Config{Owner: 0, Multiqueue: true})
	const total = 64 << 20 // 64 MiB
	var done sim.Time
	h.env.Spawn("io", func(p *sim.Proc) {
		bd.Read(h.vm.NewCtx(p, 0), total)
		done = p.Now()
	})
	h.env.Run()
	bw := float64(total) / done.Seconds()
	// Local reads must achieve close to the 500 MB/s SSD.
	if bw < 400e6 || bw > 510e6 {
		t.Fatalf("local blk bandwidth = %.0f MB/s", bw/1e6)
	}
}

func TestBlkDelegationBandwidthOrdering(t *testing.T) {
	// Fig 7: local >= remote-bypass >> remote-DSM.
	bw := func(vcpuID int, bypass bool) float64 {
		h := newHarness(2)
		bd := h.blk(Config{Owner: 0, Multiqueue: true, Bypass: bypass})
		const total = 16 << 20
		var done sim.Time
		h.env.Spawn("io", func(p *sim.Proc) {
			bd.Read(h.vm.NewCtx(p, vcpuID), total)
			done = p.Now()
		})
		h.env.Run()
		return float64(total) / done.Seconds()
	}
	local := bw(0, false)
	remoteDSM := bw(1, false)
	remoteBypass := bw(1, true)
	if !(local > remoteBypass && remoteBypass > remoteDSM) {
		t.Fatalf("bandwidth ordering wrong: local=%.0f bypass=%.0f dsm=%.0f MB/s",
			local/1e6, remoteBypass/1e6, remoteDSM/1e6)
	}
	if remoteBypass < 0.55*local {
		t.Errorf("bypass bandwidth %.0f MB/s should be a large fraction of local %.0f MB/s",
			remoteBypass/1e6, local/1e6)
	}
}

func TestBlkWriteReadSymmetry(t *testing.T) {
	h := newHarness(2)
	bd := h.blk(Config{Owner: 0, Multiqueue: true})
	h.env.Spawn("io", func(p *sim.Proc) {
		ctx := h.vm.NewCtx(p, 1)
		bd.Write(ctx, 1<<20)
		bd.Read(ctx, 1<<20)
	})
	h.env.Run()
	st := bd.Stats()
	if st.TxBytes != 1<<20 || st.RxBytes != 1<<20 {
		t.Fatalf("stats = %+v", st)
	}
	if h.c.Node(0).SSD.TotalBytes() != 2<<20 {
		t.Fatalf("disk moved %d bytes", h.c.Node(0).SSD.TotalBytes())
	}
}

func TestClientDuplicateAddrPanics(t *testing.T) {
	h := newHarness(1)
	nd := h.net(Config{Owner: 0})
	nd.NewClient(5)
	defer func() {
		if recover() == nil {
			t.Error("duplicate client did not panic")
		}
	}()
	nd.NewClient(5)
}
