package checkpoint

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/hypervisor"
	"repro/internal/overcommit"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/vcpu"
)

func fragVM(nVCPU int, memBytes int64) *hypervisor.VM {
	env := sim.NewEnv()
	c := cluster.NewDefault(env, nVCPU)
	nodes := make([]int, nVCPU)
	for i := range nodes {
		nodes[i] = i
	}
	return hypervisor.New(hypervisor.FragVisorConfig(c, hypervisor.SpreadPlacement(nodes, nVCPU), memBytes))
}

// fillVM allocates datasetBytes on each vCPU's node so the checkpoint has
// distributed state to collect.
func fillVM(vm *hypervisor.VM, datasetBytes int64) {
	for i := 0; i < vm.NVCPU(); i++ {
		vm.Run(i, "fill", func(ctx *vcpu.Ctx) {
			if _, err := vm.Kernel.Alloc(ctx.P, ctx.Node(), ctx.ID(), datasetBytes); err != nil {
				panic(err)
			}
		})
	}
	vm.Env.Run()
}

func TestCheckpointDiskBound(t *testing.T) {
	// Fig 11's finding: checkpoint time ~= dataset / disk bandwidth; the
	// fabric hop for remote memory adds little.
	const dataset = 1 << 30 // 1 GiB total across 4 slices
	vm := fragVM(4, 8<<30)
	fillVM(vm, dataset/4)
	var img *Image
	vm.Env.Spawn("ckpt", func(p *sim.Proc) { img = Take(p, vm, 0) })
	vm.Env.Run()
	if img.Bytes < dataset {
		t.Fatalf("checkpointed %d bytes, want >= %d", img.Bytes, dataset)
	}
	diskTime := float64(img.Bytes) / 500e6
	got := img.Duration.Seconds()
	if got < diskTime {
		t.Fatalf("duration %v below disk lower bound %.3fs", img.Duration, diskTime)
	}
	if got > diskTime*1.10 {
		t.Fatalf("duration %v more than 10%% over disk bound %.3fs — not disk-bound", img.Duration, diskTime)
	}
}

func TestCheckpointScalesWithDataset(t *testing.T) {
	dur := func(dataset int64) sim.Time {
		vm := fragVM(2, 8<<30)
		fillVM(vm, dataset/2)
		var img *Image
		vm.Env.Spawn("ckpt", func(p *sim.Proc) { img = Take(p, vm, 0) })
		vm.Env.Run()
		return img.Duration
	}
	d1 := dur(512 << 20)
	d2 := dur(1024 << 20)
	ratio := float64(d2) / float64(d1)
	if math.Abs(ratio-2.0) > 0.2 {
		t.Fatalf("2x dataset -> %.2fx duration, want ~2x", ratio)
	}
}

func TestCheckpointVsSingleNodeOverheadSmall(t *testing.T) {
	// FragVisor's distributed checkpoint must stay within ~10% of an
	// equivalent single-node VM's checkpoint (§7.1).
	const dataset = 1 << 30
	distributed := func() sim.Time {
		vm := fragVM(3, 8<<30)
		fillVM(vm, dataset/3)
		var img *Image
		vm.Env.Spawn("ckpt", func(p *sim.Proc) { img = Take(p, vm, 0) })
		vm.Env.Run()
		return sim.FromSeconds(img.Duration.Seconds() / (float64(img.Bytes) / 500e6))
	}
	single := func() sim.Time {
		env := sim.NewEnv()
		c := cluster.NewDefault(env, 1)
		vm := overcommit.New(c, 0, 3, 8<<30)
		fillVM(vm, dataset/3)
		var img *Image
		env.Spawn("ckpt", func(p *sim.Proc) { img = Take(p, vm, 0) })
		env.Run()
		return sim.FromSeconds(img.Duration.Seconds() / (float64(img.Bytes) / 500e6))
	}
	d, s := distributed(), single()
	overhead := float64(d)/float64(s) - 1
	if overhead > 0.10 {
		t.Fatalf("distributed checkpoint overhead = %.1f%%, want <= 10%%", overhead*100)
	}
}

func TestRestoreRoundTripPreservesBytes(t *testing.T) {
	vm := fragVM(2, 4<<30)
	// Write recognizable data through the DSM on both nodes.
	vm.Env.Spawn("writer", func(p *sim.Proc) {
		vm.DSM.Write(p, 0, 100, 0, []byte("node0-data"))
		vm.DSM.Write(p, 1, 200, 0, []byte("node1-data"))
	})
	vm.Env.Run()
	var img *Image
	vm.Env.Spawn("ckpt", func(p *sim.Proc) { img = Take(p, vm, 0) })
	vm.Env.Run()

	// Clobber the pages, then restore.
	vm.Env.Spawn("clobber-restore", func(p *sim.Proc) {
		vm.DSM.Write(p, 0, 100, 0, []byte("xxxxxxxxxx"))
		vm.DSM.Write(p, 0, 200, 0, []byte("yyyyyyyyyy"))
		if d := Restore(p, vm, img); d <= 0 {
			t.Errorf("restore duration = %v", d)
		}
		if got := vm.DSM.Read(p, 0, 100); !bytes.HasPrefix(got, []byte("node0-data")) {
			t.Errorf("page 100 after restore = %q", got[:10])
		}
		if got := vm.DSM.Read(p, 1, 200); !bytes.HasPrefix(got, []byte("node1-data")) {
			t.Errorf("page 200 after restore = %q", got[:10])
		}
	})
	vm.Env.Run()
}

func TestCheckpointAfterNodeLossRecoversOnSurvivor(t *testing.T) {
	// Failure-injection flow: checkpoint, "lose" node 1 (its vCPU is
	// migrated away), restore on node 0 and keep running.
	vm := fragVM(2, 4<<30)
	fillVM(vm, 256<<20)
	var img *Image
	vm.Env.Spawn("ops", func(p *sim.Proc) {
		img = Take(p, vm, 0)
		// Predicted failure of node 1: consolidate away from it.
		vm.MigrateVCPU(p, 1, 0)
		Restore(p, vm, img)
	})
	vm.Env.Run()
	if !vm.Consolidated() {
		t.Fatal("VM not consolidated on survivor")
	}
	if img.Bytes == 0 {
		t.Fatal("checkpoint was empty")
	}
}

// reverseDropper is a fault filter that passes every frame except the
// first `drops` ones from node 1 to node 0.
type reverseDropper struct{ drops int }

func (d *reverseDropper) Outcome(from, to, size int) topo.Outcome {
	if from == 1 && to == 0 && d.drops > 0 {
		d.drops--
		return topo.Outcome{Drop: true}
	}
	return topo.Outcome{}
}

// TestRestoreSegmentDoneOnArrival: a restore segment is done when its
// bytes arrive, whatever becomes of its ack. Over a faulted fabric, a
// restore from node 0 to node 1 whose first segment's ack (the first
// 1→0 frame) is lost must finish within the transport's RTO pad of the
// same restore with no loss: the segment must not wait for the
// retransmitted frame's ack.
func TestRestoreSegmentDoneOnArrival(t *testing.T) {
	const rtoSlack = 5 * sim.Millisecond // reliable's RTO queueing pad
	restore := func(drops int) sim.Time {
		vm := fragVM(2, 4<<30)
		defer vm.Env.Close()
		fillVM(vm, 4<<20)
		var img *Image
		vm.Env.Spawn("ckpt", func(p *sim.Proc) { img = Take(p, vm, 0) })
		vm.Env.Run()
		filter := &reverseDropper{drops: drops}
		vm.Layer.Net().SetFilter(filter)
		var d sim.Time
		vm.Env.Spawn("restore", func(p *sim.Proc) { d = Restore(p, vm, img) })
		vm.Env.Run()
		if filter.drops != 0 {
			t.Fatalf("restore sent no ack from node 1 to drop")
		}
		if st := vm.Layer.Transport().Stats(); st.Sent == 0 || st.Delivered != st.Sent {
			t.Fatalf("restore segments not all delivered: %+v", st)
		}
		return d
	}
	clean, lossy := restore(0), restore(1)
	if lossy > clean+rtoSlack {
		t.Fatalf("restore with its first ack lost took %v, want within %v of the clean %v", lossy, rtoSlack, clean)
	}
}
