// Package fault is the deterministic fault-injection subsystem of the
// FragVisor reproduction. An Aggregate VM borrows fragmented spare
// resources from lender nodes, so it is structurally exposed to lender
// failure and preemption; this package supplies the machinery to exercise
// that exposure on the simulated testbed.
//
// Faults are driven by a Schedule: a list of timestamped events — crash a
// node, partition a link, drop/delay/duplicate the next K messages on an
// endpoint pair, degrade a node's pCPUs or SSD — optionally healed later.
// An Injector installed on the cluster's fabrics (topo filter) and
// messaging layers (msg filter) applies the schedule from the simulation's
// own event queue, so a given (seed, schedule) pair replays bit-identically.
//
// The injector is the single source of truth for fault state:
//
//   - topo consults it for every fabric message (crashed endpoints,
//     partitioned links, and drop/delay rules);
//   - msg consults it for duplication and for same-node delivery on a
//     crashed node, and surfaces losses as typed timeout errors through
//     CallTimeout;
//   - dsm treats it as the liveness view when re-routing ownership
//     requests away from dead nodes;
//   - hypervisor heartbeats detect crashed slices through the message
//     losses it induces, and checkpoint restart skips dead slices.
//
// Everything the injector does is counted in a metrics.Counters whose
// rendering is deterministic, so fault activity itself is part of the
// bit-identical-metrics contract.
package fault

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Any is the wildcard endpoint for message-fault rules. It is distinct
// from every real endpoint address, including cluster.ClientID (-1).
const Any = -1 << 30

// Kind enumerates fault event types.
type Kind int

const (
	// CrashNode fail-stops a node: all messages to or from it (including
	// its own local deliveries) are dropped until HealNode.
	CrashNode Kind = iota
	// HealNode restarts a crashed node's connectivity.
	HealNode
	// Partition cuts the link between nodes A and B in both directions.
	Partition
	// HealPartition restores the A–B link.
	HealPartition
	// DropMessages discards the next Count fabric messages matching
	// From→To (Any wildcards either side).
	DropMessages
	// DelayMessages delivers the next Count matching messages Delay late.
	DelayMessages
	// DupMessages delivers the next Count matching messaging-layer
	// messages twice.
	DupMessages
	// DegradeCPU adds Factor competing background load to every pCPU of
	// a node (1.0 = one full-time thief) until HealCPU.
	DegradeCPU
	// HealCPU removes the injected CPU degradation from a node.
	HealCPU
	// DegradeDisk multiplies a node's SSD transfer times by Factor until
	// HealDisk.
	DegradeDisk
	// HealDisk restores a node's SSD to full bandwidth.
	HealDisk
	// CutLink severs the named topology fault domain (see Event.Link):
	// every fabric message whose route crosses a cut link is dropped, so
	// cutting a ToR uplink silences a whole rack with one event.
	CutLink
	// HealLink restores the named fault domain, clearing both cuts and
	// degradations on its links.
	HealLink
	// DegradeLink adds Delay of extra propagation latency to every
	// message whose route crosses the named fault domain.
	DegradeLink
)

// String names the kind for diagnostics and counters.
func (k Kind) String() string {
	switch k {
	case CrashNode:
		return "crash"
	case HealNode:
		return "heal"
	case Partition:
		return "partition"
	case HealPartition:
		return "heal-partition"
	case DropMessages:
		return "drop"
	case DelayMessages:
		return "delay"
	case DupMessages:
		return "duplicate"
	case DegradeCPU:
		return "degrade-cpu"
	case HealCPU:
		return "heal-cpu"
	case DegradeDisk:
		return "degrade-disk"
	case HealDisk:
		return "heal-disk"
	case CutLink:
		return "cut-link"
	case HealLink:
		return "heal-link"
	case DegradeLink:
		return "degrade-link"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Event is one scheduled fault. Fields beyond At/Kind are interpreted per
// kind; unused fields are ignored.
type Event struct {
	At   sim.Time
	Kind Kind

	Node int // CrashNode, HealNode, Degrade*/Heal* target
	A, B int // Partition/HealPartition endpoints

	From, To int      // message-rule endpoint scoping (Any = wildcard)
	Count    int      // message-rule budget: how many messages it affects
	Delay    sim.Time // DelayMessages / DegradeLink extra latency
	Factor   float64  // Degrade* magnitude

	// Link names the fault domain of CutLink/HealLink/DegradeLink.
	// Directed link names target one direction: "nX-up" (host X toward
	// its switch), "nX-down" (switch toward host X), "torR-up" (rack R
	// toward the spine), "torR-down" (spine toward rack R). Undirected
	// domains expand to both directions: "nX" (host X's up+down links),
	// "torR" (rack R's spine uplink+downlink), and "spine" (every rack's
	// uplink and downlink — the whole core). On a flat fabric only the
	// host domains exist; ToR/spine domains expand to nothing.
	Link string
}

// Schedule is an ordered list of fault events. The zero value is an empty
// (fault-free) schedule.
type Schedule struct {
	Events []Event `json:"events"`
}

// Add appends an event and returns the schedule for chaining.
func (s *Schedule) Add(e Event) *Schedule {
	s.Events = append(s.Events, e)
	return s
}

// Shifted returns a copy of the schedule with every event offset by dt —
// used to anchor a schedule authored in workload-relative time to the
// simulation instant the workload actually starts.
func (s Schedule) Shifted(dt sim.Time) Schedule {
	out := Schedule{Events: append([]Event(nil), s.Events...)}
	for i := range out.Events {
		out.Events[i].At += dt
	}
	return out
}

// Count returns how many events of the kind the schedule holds.
func (s Schedule) Count(k Kind) int {
	n := 0
	for _, e := range s.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// sorted returns the events in (At, insertion) order without mutating s.
func (s *Schedule) sorted() []Event {
	out := append([]Event(nil), s.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// String summarizes the schedule, one event per line — stable, for logs
// and golden comparisons.
func (s *Schedule) String() string {
	out := ""
	for _, e := range s.sorted() {
		switch e.Kind {
		case CrashNode, HealNode:
			out += fmt.Sprintf("%v %s node=%d\n", e.At, e.Kind, e.Node)
		case Partition, HealPartition:
			out += fmt.Sprintf("%v %s %d<->%d\n", e.At, e.Kind, e.A, e.B)
		case DropMessages, DupMessages:
			out += fmt.Sprintf("%v %s %s->%s count=%d\n", e.At, e.Kind, end(e.From), end(e.To), e.Count)
		case DelayMessages:
			out += fmt.Sprintf("%v %s %s->%s count=%d delay=%v\n", e.At, e.Kind, end(e.From), end(e.To), e.Count, e.Delay)
		case DegradeCPU, DegradeDisk:
			out += fmt.Sprintf("%v %s node=%d factor=%.2f\n", e.At, e.Kind, e.Node, e.Factor)
		case HealCPU, HealDisk:
			out += fmt.Sprintf("%v %s node=%d\n", e.At, e.Kind, e.Node)
		case CutLink, HealLink:
			out += fmt.Sprintf("%v %s link=%s\n", e.At, e.Kind, e.Link)
		case DegradeLink:
			out += fmt.Sprintf("%v %s link=%s delay=%v\n", e.At, e.Kind, e.Link, e.Delay)
		default:
			out += fmt.Sprintf("%v %s\n", e.At, e.Kind)
		}
	}
	return out
}

func end(id int) string {
	if id == Any {
		return "*"
	}
	return fmt.Sprintf("%d", id)
}
