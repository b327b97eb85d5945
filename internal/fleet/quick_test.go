package fleet

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sched"
	"repro/internal/sim"
)

// TestQuickFleetInvariants drives randomized bursts plus random explicit
// reclaims through the control plane and checks, for every seed:
//
//   - no placement ever exceeds node capacity and no lease is ever
//     double-booked (the fleet's verify panics mid-run otherwise — it
//     scans at every quiescent point where the event log has grown,
//     which is every state the books reach, not just the end);
//   - admission reclaim never reclaims without admitting: a reclaim
//     logged for a request (VM >= 0) is followed, at the same instant and
//     before any other reclaim, by that request's admit;
//   - the same seed produces the identical event log.
func TestQuickFleetInvariants(t *testing.T) {
	admissionReclaims := 0
	prop := func(seed int64, nn, rr uint8) bool {
		nodes := 2 + int(nn%5)
		pol := sched.MinFrag
		if seed%2 == 0 {
			pol = sched.MinNodes
		}
		run := func() []Event {
			env := sim.NewEnv()
			f := New(env, Config{
				Nodes: nodes, CPUsPerNode: 8, MemPerNode: 32 * gig,
				Policy: pol, AutoReclaim: true,
				Reclaim:        ReclaimPolicy(rr % 3), // rotate consolidate/evict/resize
				RebalanceEvery: 4 * sim.Second, Horizon: 90 * sim.Second,
			})
			rng := rand.New(rand.NewSource(seed))
			f.Submit(GenerateBurst(rng, 20+int(rr%30), 40*sim.Second, 2*gig))
			// Random owner-driven reclaims stress the lease machinery.
			for i := 0; i < 3; i++ {
				at := sim.Time(1+rng.Intn(60)) * sim.Second
				node := rng.Intn(nodes)
				env.At(at, func() { f.Reclaim(node) })
			}
			env.RunUntil(90 * sim.Second)
			f.Verify()
			// Belt and braces on top of Verify: recompute per-node load
			// straight from the placements.
			used := make([]int, nodes)
			for _, s := range []Snapshot{f.Snapshot()} {
				for n, free := range s.FreeCPU {
					used[n] = 8 - free
					if free < 0 || free > 8 {
						t.Errorf("seed %d: node %d free CPUs out of range: %d", seed, n, free)
						return nil
					}
				}
			}
			evs := f.Events()
			for _, e := range evs {
				if e.Kind == "reclaim" && e.VM >= 0 {
					admissionReclaims++
				}
			}
			if err := reclaimsAdmit(evs); err != "" {
				t.Errorf("seed %d, policy %v: %s", seed, ReclaimPolicy(rr%3), err)
				return nil
			}
			return evs
		}
		a, b := run(), run()
		if a == nil || b == nil {
			return false
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("seed %d: same seed produced different event logs (%d vs %d events)", seed, len(a), len(b))
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if admissionReclaims == 0 {
		t.Error("no world reclaimed for admission: the reclaim property checked nothing")
	}
}

// reclaimsAdmit checks that every admission reclaim in the log (a
// reclaim event with VM >= 0) is followed by that VM's admit at the same
// instant, before any other reclaim. It returns what broke, or "".
func reclaimsAdmit(evs []Event) string {
	for i, e := range evs {
		if e.Kind != "reclaim" || e.VM < 0 {
			continue
		}
		admitted := false
		for _, g := range evs[i+1:] {
			if g.T != e.T || g.Kind == "reclaim" {
				break
			}
			if g.Kind == "admit" && g.VM == e.VM {
				admitted = true
				break
			}
		}
		if !admitted {
			return fmt.Sprintf("reclaim of node %d for VM %d at %v is not followed by its admit", e.To, e.VM, e.T)
		}
	}
	return ""
}

// TestQuickSchedPlacementsFitCapacity checks the pure placement functions
// the fleet decides with: BestFit picks a fitting node that no other
// fitting node beats on leftover capacity, FragPlacement never hands out
// more than a node has free, and a gang placement covers the request
// exactly.
func TestQuickSchedPlacementsFitCapacity(t *testing.T) {
	prop := func(seed int64, nn uint8, need uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 1 + int(nn%8)
		free := make([]int, nodes)
		total := 0
		for i := range free {
			free[i] = rng.Intn(9)
			total += free[i]
		}
		k := 1 + int(need%16)
		n, ok := sched.BestFit(free, k, nil, nil)
		if ok && free[n] < k {
			t.Errorf("BestFit(%v, %d) picked node %d with only %d free", free, k, n, free[n])
			return false
		}
		for m, f := range free {
			if f >= k && (!ok || f < free[n]) {
				t.Errorf("BestFit(%v, %d) = %d (ok=%v), but node %d fits tighter", free, k, n, ok, m)
				return false
			}
		}
		pl, ok := sched.FragPlacement(free, k, sched.MinFrag, nil, nil)
		if ok != (total >= k) {
			t.Errorf("FragPlacement(%v, %d) ok=%v, want %v", free, k, ok, total >= k)
			return false
		}
		if !ok {
			return true
		}
		sum := 0
		for _, fr := range pl {
			n, c := fr.Node, fr.CPUs
			if c <= 0 || c > free[n] {
				t.Errorf("FragPlacement(%v, %d) overbooks node %d: %d", free, k, n, c)
				return false
			}
			sum += c
		}
		if sum != k {
			t.Errorf("FragPlacement(%v, %d) covers %d vCPUs", free, k, sum)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
