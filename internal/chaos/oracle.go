// Invariant oracles: the judges a finished episode must satisfy. Each
// oracle inspects one cross-subsystem invariant over the episode's
// quiescent state and reports typed violations instead of panicking, so
// the search engine can count, shrink, and replay them. Oracles run in
// registry order and every oracle always runs — one episode can violate
// several invariants, and the shrinker needs the full set to know which
// failure it is preserving.
package chaos

import (
	"fmt"

	"repro/internal/faulttest"
	"repro/internal/fleet"
	"repro/internal/reliable"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Oracle names, in registry order.
const (
	OracleProgress     = "progress"
	OracleCoherence    = "dsm-coherence"
	OracleConservation = "fleet-conservation"
	OracleExactlyOnce  = "exactly-once"
	OracleFabric       = "fabric-accounting"
	// OraclePanic is not a registered check: it is the name attached to
	// a panic recovered from an episode run (run.go), so even an
	// untyped invariant failure is a shrinkable finding.
	OraclePanic = "panic"
)

// Violation is one invariant breach, identified by the oracle that
// found it. Detail is human-readable and may vary in wording between
// shrink candidates; findings are matched by Oracle name.
type Violation struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

func (v Violation) String() string { return v.Oracle + ": " + v.Detail }

// hasOracle reports whether any violation came from the named oracle.
func hasOracle(vs []Violation, name string) bool {
	for _, v := range vs {
		if v.Oracle == name {
			return true
		}
	}
	return false
}

// Runtime is the quiescent state of one finished episode, as handed to
// the oracle registry. Workload-specific fields are nil for the other
// workload family.
type Runtime struct {
	Workload  string
	Stall     *sim.StallError // watchdog verdict (nil: progress never stopped)
	LiveProcs []string        // procs still blocked after the queue drained
	Drained   bool            // the event queue ran dry (vm episodes without a stall)

	Fabric *topo.Fabric   // the cluster fabric, for accounting probes
	Rel    reliable.Stats // reliable-transport counters at quiescence

	VM    *faulttest.Result // vm episodes
	Fleet *fleet.Fleet      // fleet episodes
}

// An oracleFn inspects quiescent state and returns its violations.
type oracleFn struct {
	Name  string
	Check func(rt *Runtime) []Violation
}

// oracles is the registry, in severity order: a run that cannot finish
// (progress) outranks wrong answers (coherence, conservation), which
// outrank transport accounting.
func oracles() []oracleFn {
	return []oracleFn{
		{OracleProgress, checkProgress},
		{OracleCoherence, checkCoherence},
		{OracleConservation, checkConservation},
		{OracleExactlyOnce, checkExactlyOnce},
		{OracleFabric, checkFabric},
	}
}

// judge runs every oracle against the runtime, in registry order.
func judge(rt *Runtime) []Violation {
	var vs []Violation
	for _, o := range oracles() {
		vs = append(vs, o.Check(rt)...)
	}
	return vs
}

// checkProgress turns deadlocks and livelocks into typed findings: a
// watchdog stall (the run stopped making progress while work remained)
// or procs still blocked after the event queue drained with no stall
// (a pure deadlock the queue exposed by running dry).
func checkProgress(rt *Runtime) []Violation {
	if rt.Stall != nil {
		return []Violation{{OracleProgress, rt.Stall.Error()}}
	}
	if len(rt.LiveProcs) > 0 {
		return []Violation{{OracleProgress,
			fmt.Sprintf("deadlock: %d procs blocked with empty queue: %v", len(rt.LiveProcs), rt.LiveProcs)}}
	}
	return nil
}

// checkCoherence validates the Aggregate VM's memory: the DSM
// protocol's own invariants and the byte-identical pattern readback.
func checkCoherence(rt *Runtime) []Violation {
	if rt.VM == nil {
		return nil
	}
	var vs []Violation
	if rt.VM.CoherenceErr != nil {
		vs = append(vs, Violation{OracleCoherence, rt.VM.CoherenceErr.Error()})
	}
	if n := len(rt.VM.PatternMismatches); n > 0 {
		vs = append(vs, Violation{OracleCoherence,
			fmt.Sprintf("%d pattern pages diverged; first: %s", n, rt.VM.PatternMismatches[0])})
	}
	return vs
}

// checkConservation runs the fleet's typed verifier: every placement
// backed by books, every lease by a fragment, every balloon by a lease.
func checkConservation(rt *Runtime) []Violation {
	if rt.Fleet == nil {
		return nil
	}
	var vs []Violation
	for _, v := range rt.Fleet.VerifyReport() {
		vs = append(vs, Violation{OracleConservation, string(v.Class) + ": " + v.Msg})
	}
	return vs
}

// checkExactlyOnce audits the reliable transport's contract: dedup must
// hold unconditionally (Delivered can never exceed Sent), and on a
// fully drained run every send must have resolved — delivered or
// reported unreachable, never silently lost.
func checkExactlyOnce(rt *Runtime) []Violation {
	var vs []Violation
	if rt.Rel.Delivered > rt.Rel.Sent {
		vs = append(vs, Violation{OracleExactlyOnce,
			fmt.Sprintf("delivered %d > sent %d: receive-side dedup broken", rt.Rel.Delivered, rt.Rel.Sent)})
	}
	if rt.Drained && rt.Rel.Delivered+rt.Rel.Unreachable < rt.Rel.Sent {
		vs = append(vs, Violation{OracleExactlyOnce,
			fmt.Sprintf("sent %d but delivered %d + unreachable %d: messages silently lost",
				rt.Rel.Sent, rt.Rel.Delivered, rt.Rel.Unreachable)})
	}
	return vs
}

// fabricProbeID is an endpoint id no workload uses: probing it must be
// a pure read.
const fabricProbeID = 1 << 20

// checkFabric audits fabric endpoint accounting: reading an unknown
// endpoint's counters must not materialize a NIC record, and every
// recorded endpoint must have actually sent something.
func checkFabric(rt *Runtime) []Violation {
	if rt.Fabric == nil {
		return nil
	}
	var vs []Violation
	before := len(rt.Fabric.Endpoints())
	rt.Fabric.EndpointSent(fabricProbeID)
	after := rt.Fabric.Endpoints()
	if len(after) != before {
		vs = append(vs, Violation{OracleFabric,
			fmt.Sprintf("probing unused endpoint %d grew the endpoint set from %d to %d",
				fabricProbeID, before, len(after))})
	}
	for _, id := range after {
		if msgs, _ := rt.Fabric.EndpointSent(id); msgs <= 0 {
			vs = append(vs, Violation{OracleFabric,
				fmt.Sprintf("endpoint %d is recorded but never sent", id)})
		}
	}
	return vs
}
