// Weighted fault-schedule grammar. Generate derives one independent
// sub-seed per episode with a splitmix64 chain, so the episode set is a
// pure function of (root seed, count, config) — independent of worker
// count, iteration order, and everything else. Each episode's schedule
// is drawn from a weighted menu of productions over the fault package's
// primitives, composed under per-workload safety constraints:
//
//   - node 0 is never crashed or cut (it hosts the DSM directory and
//     the failure detector on vm episodes, the fleet controller and
//     probe source on fleet episodes);
//   - vm episodes crash distinct nodes only and never cut link domains,
//     so the harness's expected-death accounting stays exact (every
//     dead node is declared exactly once);
//   - partitions on vm episodes always heal, so DSM traffic between
//     survivors cannot be severed past the workload's end.
//
// Fleet episodes get the full menu — cuts and crashes may stay
// unhealed (a down node at quiescence is a legal fleet state) — plus
// arrival storms, the workload-side chaos element.
package chaos

import (
	"math/rand"

	"repro/internal/fault"
	"repro/internal/sim"
)

// chaosNodes is the cluster size every episode runs on (2 racks x 2
// hosts, matching the netstorm topology).
const chaosNodes = 4

// splitmix64 is the SplitMix64 mixing function: a bijective avalanche
// over the seed chain, so consecutive episode indices get statistically
// independent sub-seeds.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed derives episode i's seed from the root seed.
func subSeed(root int64, i int) int64 {
	return int64(splitmix64(uint64(root) + splitmix64(uint64(i)+1)))
}

// Generate builds the search's episode list: cfg.Episodes schedules in
// index order, each drawn from its own sub-seeded generator.
func Generate(cfg Config) []Episode {
	cfg = cfg.withDefaults()
	eps := make([]Episode, cfg.Episodes)
	for i := range eps {
		eps[i] = generate(i, cfg)
	}
	return eps
}

// generate draws episode i. The workload choice and every schedule
// draw come from the episode's own rng, so episode i is identical no
// matter which other episodes exist.
func generate(i int, cfg Config) Episode {
	seed := subSeed(cfg.Seed, i)
	rng := rand.New(rand.NewSource(seed))
	ep := Episode{
		Index:    i,
		Workload: cfg.Workloads[rng.Intn(len(cfg.Workloads))],
		Seed:     seed,
		Scale:    cfg.Scale,
	}
	n := 1 + rng.Intn(cfg.MaxEvents)
	if ep.Workload == WorkloadVM {
		ep.Schedule = vmSchedule(rng, n)
	} else {
		ep.Schedule, ep.Storms = fleetSchedule(rng, n)
	}
	return ep
}

// pick selects an index from a weight table.
func pick(rng *rand.Rand, weights []int) int {
	total := 0
	for _, w := range weights {
		total += w
	}
	d := rng.Intn(total)
	for i, w := range weights {
		if d < w {
			return i
		}
		d -= w
	}
	return len(weights) - 1
}

// anyOrNode draws a message-rule endpoint: the Any wildcard half the
// time, a concrete node otherwise.
func anyOrNode(rng *rand.Rand) int {
	if rng.Intn(2) == 0 {
		return fault.Any
	}
	return rng.Intn(chaosNodes)
}

// vmSchedule draws a workload-relative schedule for the faulttest
// harness: times in (0, 8ms] cover boot-to-finish of the IS kernel at
// unit-test scale plus its recovery tail.
func vmSchedule(rng *rand.Rand, budget int) fault.Schedule {
	var s fault.Schedule
	at := func() sim.Time { return sim.Time(1+rng.Int63n(8_000_000)) * sim.Nanosecond }
	crashed := map[int]bool{}
	for s.Count(fault.CrashNode) < 2 && len(s.Events) < budget {
		switch pick(rng, []int{25, 15, 10, 10, 10, 10, 10, 10}) {
		case 0: // drop storm
			s.Add(fault.Event{At: at(), Kind: fault.DropMessages,
				From: anyOrNode(rng), To: anyOrNode(rng), Count: 10 + rng.Intn(290)})
		case 1: // delay storm
			s.Add(fault.Event{At: at(), Kind: fault.DelayMessages,
				From: anyOrNode(rng), To: anyOrNode(rng), Count: 10 + rng.Intn(90),
				Delay: sim.Time(10+rng.Int63n(490)) * sim.Microsecond})
		case 2: // dup storm
			s.Add(fault.Event{At: at(), Kind: fault.DupMessages,
				From: anyOrNode(rng), To: anyOrNode(rng), Count: 1 + rng.Intn(50)})
		case 3: // partition between lenders, always healed
			if budget-len(s.Events) < 2 {
				continue
			}
			a := 1 + rng.Intn(chaosNodes-1)
			b := 1 + rng.Intn(chaosNodes-1)
			if a == b {
				continue
			}
			t := at()
			s.Add(fault.Event{At: t, Kind: fault.Partition, A: a, B: b})
			s.Add(fault.Event{At: t + sim.Time(1+rng.Int63n(3))*sim.Millisecond,
				Kind: fault.HealPartition, A: a, B: b})
		case 4: // CPU thief
			node := rng.Intn(chaosNodes)
			t := at()
			s.Add(fault.Event{At: t, Kind: fault.DegradeCPU, Node: node,
				Factor: 0.5 + rng.Float64()*1.5})
			if rng.Intn(2) == 0 && budget-len(s.Events) >= 1 {
				s.Add(fault.Event{At: t + sim.Time(1+rng.Int63n(4))*sim.Millisecond,
					Kind: fault.HealCPU, Node: node})
			}
		case 5: // slow SSD
			node := rng.Intn(chaosNodes)
			t := at()
			s.Add(fault.Event{At: t, Kind: fault.DegradeDisk, Node: node,
				Factor: 1 + rng.Float64()*7})
			if rng.Intn(2) == 0 && budget-len(s.Events) >= 1 {
				s.Add(fault.Event{At: t + sim.Time(1+rng.Int63n(4))*sim.Millisecond,
					Kind: fault.HealDisk, Node: node})
			}
		case 6: // degraded link domain (extra latency, never a cut)
			t := at()
			link := vmLinkDomain(rng)
			s.Add(fault.Event{At: t, Kind: fault.DegradeLink, Link: link,
				Delay: sim.Time(10+rng.Int63n(190)) * sim.Microsecond})
			if rng.Intn(2) == 0 && budget-len(s.Events) >= 1 {
				s.Add(fault.Event{At: t + sim.Time(1+rng.Int63n(4))*sim.Millisecond,
					Kind: fault.HealLink, Link: link})
			}
		case 7: // crash a distinct lender (node 0 hosts the detector)
			node := 1 + rng.Intn(chaosNodes-1)
			if crashed[node] {
				continue
			}
			crashed[node] = true
			s.Add(fault.Event{At: at(), Kind: fault.CrashNode, Node: node})
		}
	}
	return s
}

// vmLinkDomain names a degradable fault domain on the 2x2 tree.
func vmLinkDomain(rng *rand.Rand) string {
	domains := []string{"n0", "n1", "n2", "n3", "tor0", "tor1", "spine"}
	return domains[rng.Intn(len(domains))]
}

// Fleet episode timebase: the control plane runs to fleetHorizon with
// heartbeats every fleetHeartbeat; faults land in the first 50 seconds
// so their consequences (requeues, rejoins, reclaims) settle before
// quiescence.
const (
	fleetHorizon   = 60 * sim.Second
	fleetHeartbeat = 500 * sim.Millisecond
)

// fleetSchedule draws an absolute-time schedule plus arrival storms for
// a fleet episode.
func fleetSchedule(rng *rand.Rand, budget int) (fault.Schedule, []Storm) {
	var s fault.Schedule
	var storms []Storm
	at := func() sim.Time { return sim.Time(1+rng.Int63n(50)) * sim.Second }
	size := func() int { return len(s.Events) + len(storms) }
	for size() < budget {
		switch pick(rng, []int{20, 10, 10, 15, 15, 10, 10, 10}) {
		case 0: // probe-eating drop storm
			s.Add(fault.Event{At: at(), Kind: fault.DropMessages,
				From: anyOrNode(rng), To: anyOrNode(rng), Count: 5 + rng.Intn(55)})
		case 1: // delay storm
			s.Add(fault.Event{At: at(), Kind: fault.DelayMessages,
				From: anyOrNode(rng), To: anyOrNode(rng), Count: 5 + rng.Intn(25),
				Delay: sim.Time(50+rng.Int63n(450)) * sim.Microsecond})
		case 2: // dup storm: inert, since duplication is a messaging-layer
			// verdict and fleet probes are bare fabric frames; still drawn
			// so every generated episode keeps its schedule
			s.Add(fault.Event{At: at(), Kind: fault.DupMessages,
				From: anyOrNode(rng), To: anyOrNode(rng), Count: 1 + rng.Intn(20)})
		case 3: // crash a non-controller node, usually healed for a rejoin
			node := 1 + rng.Intn(chaosNodes-1)
			t := at()
			s.Add(fault.Event{At: t, Kind: fault.CrashNode, Node: node})
			if rng.Intn(10) < 7 && budget-size() >= 1 {
				s.Add(fault.Event{At: t + sim.Time(2+rng.Int63n(8))*sim.Second,
					Kind: fault.HealNode, Node: node})
			}
		case 4: // cut a link domain, usually healed
			link := fleetLinkDomain(rng)
			t := at()
			s.Add(fault.Event{At: t, Kind: fault.CutLink, Link: link})
			if rng.Intn(10) < 7 && budget-size() >= 1 {
				s.Add(fault.Event{At: t + sim.Time(2+rng.Int63n(8))*sim.Second,
					Kind: fault.HealLink, Link: link})
			}
		case 5: // CPU thief on any node
			s.Add(fault.Event{At: at(), Kind: fault.DegradeCPU,
				Node: rng.Intn(chaosNodes), Factor: 0.5 + rng.Float64()*1.5})
		case 6: // slow SSD on any node
			s.Add(fault.Event{At: at(), Kind: fault.DegradeDisk,
				Node: rng.Intn(chaosNodes), Factor: 1 + rng.Float64()*7})
		case 7: // arrival storm: a burst of short VMs forcing reclaim
			storms = append(storms, Storm{At: at(), VMs: 2 + rng.Intn(5),
				Seed: rng.Int63()})
		}
	}
	return s, storms
}

// fleetLinkDomain names a cuttable fault domain: host domains of the
// non-controller nodes, either rack's ToR... but never "spine" or
// "n0", which would sever the controller from everything and turn the
// whole run into missed probes.
func fleetLinkDomain(rng *rand.Rand) string {
	domains := []string{"n1", "n2", "n3", "tor1"}
	return domains[rng.Intn(len(domains))]
}
