package virtio

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/sim"
)

// fifoNoLossTrial runs one randomized trial of the virtqueue delivery
// property: a vCPU on a remote slice transmits nPkts packets with
// strictly increasing sizes (size encodes sequence number) while the
// fault injector delays and duplicates messages aimed at the owner node
// — where every doorbell lands. The external client must observe every
// packet exactly once, in transmit order: the ring+doorbell split makes
// duplicated or delayed kicks no-ops, so the property holds under any
// such schedule.
func fifoNoLossTrial(t *testing.T, seed int64, nPkts int, multiqueue, bypass bool) bool {
	t.Helper()
	h := newHarness(2)
	inj := fault.New(h.c)
	nd := h.net(Config{Owner: 0, Multiqueue: multiqueue, Bypass: bypass})
	cl := nd.NewClient(clientAddr)

	// Seeded schedule of delay and duplication bursts. Rules target the
	// owner endpoint only: wildcard destinations would also delay the
	// external wire, whose reordering is not the virtqueue's to prevent.
	rng := rand.New(rand.NewSource(seed))
	var sched fault.Schedule
	for i, rules := 0, 2+rng.Intn(4); i < rules; i++ {
		at := sim.Time(1 + rng.Int63n(int64(500*sim.Microsecond)))
		if rng.Intn(2) == 0 {
			sched.Add(fault.Event{At: at, Kind: fault.DelayMessages, From: fault.Any, To: 0,
				Count: 1 + rng.Intn(4), Delay: sim.Time(1 + rng.Int63n(int64(100*sim.Microsecond)))})
		} else {
			sched.Add(fault.Event{At: at, Kind: fault.DupMessages, From: fault.Any, To: 0,
				Count: 1 + rng.Intn(4)})
		}
	}
	inj.Apply(sched)

	const base = 100
	h.env.Spawn("sender", func(p *sim.Proc) {
		ctx := h.vm.NewCtx(p, 1) // vCPU 1 lives on node 1: every kick crosses the fabric
		for i := 0; i < nPkts; i++ {
			nd.Send(ctx, clientAddr, base+i)
		}
	})
	got := make([]int, 0, nPkts)
	h.env.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < nPkts; i++ {
			_, n := cl.Recv(p)
			got = append(got, n)
		}
	})
	h.env.Run()

	if procs := h.env.LiveProcs(); len(procs) != 0 {
		t.Logf("seed %d: deadlock, live procs %v", seed, procs)
		return false
	}
	if len(got) != nPkts {
		t.Logf("seed %d: received %d of %d packets", seed, len(got), nPkts)
		return false
	}
	for i, n := range got {
		if n != base+i {
			t.Logf("seed %d: position %d got size %d want %d (out of order or lost)", seed, i, n, base+i)
			return false
		}
	}
	if extra := nd.clients[clientAddr].Len(); extra != 0 {
		t.Logf("seed %d: %d duplicate packets left in the client inbox", seed, extra)
		return false
	}
	return true
}

// TestVirtqueueFIFONoLossUnderFaults is the testing/quick property:
// for random seeds, packet counts, and queue configurations, virtqueue
// delivery is exactly-once and FIFO under message delay and duplication.
func TestVirtqueueFIFONoLossUnderFaults(t *testing.T) {
	prop := func(seed int64, raw uint8, multiqueue, bypass bool) bool {
		return fifoNoLossTrial(t, seed, 1+int(raw%24), multiqueue, bypass)
	}
	cfg := &quick.Config{Rand: rand.New(rand.NewSource(20230423)), MaxCount: 40}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
