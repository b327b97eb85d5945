package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/sched"
	"repro/internal/sim"
)

// memoEvery is the sampling period of TestVerifyMemoIsSound, shorter
// than every tick period it samples. memoTick is the tick period of its
// small worlds: it does not divide a second, so a sample falls between
// an owner reclaim (on a whole second) and the tick that follows it.
const (
	memoEvery = 700 * sim.Microsecond
	memoTick  = 3 * sim.Millisecond
)

// reclaimHorizon is the virtual length of newReclaimWorld.
const reclaimHorizon = 60 * sim.Second

// newReclaimWorld builds a small auto-reclaim fleet under pol, ticking
// every memoTick, with seeded arrivals and twelve random owner reclaims.
// Seed 34 makes the resize world re-inflate a ballooned VM onto a slice
// it already holds (quietDeflates).
func newReclaimWorld(pol ReclaimPolicy) (*sim.Env, *Fleet) {
	const nodes = 6
	env := sim.NewEnv()
	f := New(env, Config{
		Nodes: nodes, CPUsPerNode: 8, MemPerNode: 32 * gig,
		Policy: sched.MinFrag, AutoReclaim: true, Reclaim: pol,
		RebalanceEvery: memoTick, Horizon: reclaimHorizon,
	})
	rng := rand.New(rand.NewSource(34))
	f.Submit(GenerateBurst(rng, 20, 40*sim.Second, 2*gig))
	for i := 0; i < 12; i++ {
		at := sim.Time(1+rng.Intn(50)) * sim.Second
		node := rng.Intn(nodes)
		env.At(at, func() { f.Reclaim(node) })
	}
	return env, f
}

// booksPrint appends to fp a fingerprint of everything verify reads: the
// free vectors, down, every VM record (its ID, provisioned vCPUs and
// memory, home, ballooned vCPUs, and placement in node order), the
// waiting IDs in queue order, the lease ledger's (ID, State, CPUs), and
// the outstanding-lease index's IDs in order.
func booksPrint(f *Fleet, fp []int64) []int64 {
	for n := range f.freeCPU {
		down := int64(0)
		if f.down[n] {
			down = 1
		}
		fp = append(fp, int64(f.freeCPU[n]), f.freeMem[n], down)
	}
	ids := sortedVMs(f.vms)
	fp = append(fp, int64(len(ids)))
	for _, id := range ids {
		rec := f.vm(id)
		fp = append(fp, int64(id), int64(rec.req.VCPUs), rec.req.MemBytes,
			int64(rec.home), rec.ballooned, int64(len(rec.pl)))
		for _, fr := range rec.pl {
			fp = append(fp, int64(fr.Node), int64(fr.CPUs))
		}
	}
	fp = append(fp, int64(len(f.waiting)))
	for _, r := range f.waiting {
		fp = append(fp, int64(r.ID))
	}
	fp = append(fp, int64(len(f.leases)))
	for _, l := range f.leases {
		fp = append(fp, int64(l.ID), int64(l.State), int64(l.CPUs))
	}
	fp = append(fp, int64(len(f.live)))
	for _, l := range f.live {
		fp = append(fp, int64(l.ID))
	}
	return fp
}

// memoCounts records how often each premise was actually exercised, so a
// world that never holds still cannot pass vacuously.
type memoCounts struct {
	still    int // samples whose log had not grown since the previous one
	memoHits int // log lengths at which verify would skip, scanned by (b)
	settled  int // log lengths at which the tick sleeps, replayed by (c)
	armed    int // samples with the books changed since, checked by (d)
}

// watchMemo samples the fleet every memoEvery of virtual time up to end
// and checks, at every sample, the premises verify's memo and the
// rebalance tick's sleep rest on:
//
//	(a) when the log has not grown since the previous sample, the books
//	    are unchanged;
//	(b) when verify would skip (verified == len(events)), the full scan
//	    finds nothing;
//	(c) when the rebalance tick sleeps (settled == len(events)), its
//	    pass (consolidateAll, drainQueue, deflateAll) logs nothing, plans
//	    no live move and leaves the books as they were;
//	(d) otherwise a tick is armed, now or later, unless the next instant
//	    of its grid passes the horizon.
func watchMemo(t *testing.T, env *sim.Env, f *Fleet, end sim.Time) *memoCounts {
	t.Helper()
	c := &memoCounts{}
	prevLen, replayed := -1, -1
	var prevFP, fp []int64
	var sample func()
	sample = func() {
		n := len(f.events)
		fp = booksPrint(f, fp[:0])
		still := n == prevLen
		if still {
			c.still++
			if !slices.Equal(fp, prevFP) {
				t.Errorf("t=%v: books changed while the event log stayed at %d entries", env.Now(), n)
				return
			}
		}
		prevLen, prevFP, fp = n, fp, prevFP
		// Books equal to the previous sample's (a) scan as they did then,
		// so (b) needs one scan per log length.
		if f.verified == n && !still {
			c.memoHits++
			if vs := f.VerifyReport(); len(vs) > 0 {
				t.Errorf("t=%v: verify memo hit on broken books: %v", env.Now(), vs)
				return
			}
		}
		// The pass reads only the books, so (c) too needs one replay per
		// log length. The tick may settle a length after its first sample.
		if f.settled == n && replayed != n {
			replayed = n
			c.settled++
			work := f.consolidateAll()
			f.drainQueue()
			f.deflateAll()
			if len(f.events) != n || work > 0 {
				t.Errorf("t=%v: a skipped tick pass would have logged %v and moved %v",
					env.Now(), f.events[n:], work)
				return
			}
			if !slices.Equal(booksPrint(f, nil), prevFP) {
				t.Errorf("t=%v: a skipped tick pass would have changed the books", env.Now())
				return
			}
		}
		if open := f.cfg.Horizon == 0 || env.Now()+f.cfg.RebalanceEvery <= f.cfg.Horizon; f.settled != n && open {
			c.armed++
			if f.nextTick < env.Now() {
				t.Errorf("t=%v: the books changed at log length %d after the pass settled at %d, but no tick is armed",
					env.Now(), n, f.settled)
				return
			}
		}
		if env.Now()+memoEvery <= end {
			env.After(memoEvery, sample)
		}
	}
	env.At(0, sample)
	return c
}

// quietDeflates counts deflations that a tick made onto slices the VM
// already held: the first entry logged at its instant, and not followed
// by a lease. Only the deflate entry records such a write, so without
// these a missing deflate entry would go unseen by (a).
func quietDeflates(evs []Event) int {
	n := 0
	for i, e := range evs {
		first := i == 0 || evs[i-1].T != e.T
		leased := i+1 < len(evs) && evs[i+1].T == e.T && evs[i+1].Kind == "lease" && evs[i+1].VM == e.VM
		if e.Kind == "deflate" && first && !leased {
			n++
		}
	}
	return n
}

// requireExercised fails a world whose samples never hit a premise.
func requireExercised(t *testing.T, c *memoCounts) {
	t.Helper()
	if c.still == 0 || c.memoHits == 0 || c.settled == 0 || c.armed == 0 {
		t.Fatalf("premises not exercised: %+v", *c)
	}
	t.Logf("%+v", *c)
}

// TestVerifyMemoIsSound proves verify's memo and the tick's sleep are
// sound: an unchanged event log means unchanged books (every write to
// the books logs an Event), books the memo would not re-scan scan clean,
// a tick pass the sleep leaves out would have done nothing, and books
// changed since the tick settled have a tick armed. It samples
// three kinds of world: the fleet soak, small auto-reclaim fleets under
// each reclaim policy with random owner reclaims, and a heartbeat fleet
// whose node crashes and heals.
func TestVerifyMemoIsSound(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("soak-seed%d", seed), func(t *testing.T) {
			env, f := newSoak(seed, 8)
			c := watchMemo(t, env, f, soakWindow)
			env.Run()
			f.Verify()
			requireExercised(t, c)
		})
	}
	for _, pol := range Policies() {
		t.Run("reclaim-"+pol.String(), func(t *testing.T) {
			env, f := newReclaimWorld(pol)
			c := watchMemo(t, env, f, reclaimHorizon)
			env.Run()
			f.Verify()
			st := f.Stats()
			if st.Reclaims+st.Evictions+st.ReclaimsDeferred == 0 {
				t.Fatalf("no reclaim took effect: %+v", st)
			}
			if pol == ReclaimResize && quietDeflates(f.events) == 0 {
				t.Fatal("no tick re-inflated a VM onto a slice it already held")
			}
			requireExercised(t, c)
		})
	}
	t.Run("heartbeat", func(t *testing.T) {
		const horizon = 40 * sim.Second
		env := sim.NewEnv()
		cl := cluster.NewDefault(env, 4)
		inj := fault.New(cl)
		cfg := ClusterConfig(cl, sched.MinFrag)
		cfg.HeartbeatEvery = 100 * sim.Millisecond
		cfg.RebalanceEvery = memoTick
		cfg.AutoReclaim = true
		cfg.Horizon = horizon
		f := New(env, cfg)
		f.Submit(GenerateBurst(rand.New(rand.NewSource(5)), 24, 20*sim.Second, 2*gig))
		var sch fault.Schedule
		sch.Add(fault.Event{At: 8 * sim.Second, Kind: fault.CrashNode, Node: 1})
		sch.Add(fault.Event{At: 16 * sim.Second, Kind: fault.HealNode, Node: 1})
		inj.Apply(sch)
		c := watchMemo(t, env, f, horizon)
		env.Run()
		f.Verify()
		if st := f.Stats(); st.NodeFailures != 1 || st.Restarts+st.Requeues == 0 {
			t.Fatalf("crash did not take effect: %+v", st)
		}
		requireExercised(t, c)
	})
}
