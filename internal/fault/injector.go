package fault

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// rule is one active next-K message fault.
type rule struct {
	kind      Kind // DropMessages, DelayMessages, or DupMessages
	from, to  int
	remaining int
	delay     sim.Time
}

func (r *rule) matches(from, to int) bool {
	return r.remaining > 0 &&
		(r.from == Any || r.from == from) &&
		(r.to == Any || r.to == to)
}

// Injector applies fault schedules to a simulated cluster. Construct with
// New, then Apply one or more schedules. The injector implements
// topo.Filter (drop/delay verdicts for fabric traffic) and msg.Filter
// (duplication, and same-node drops on crashed nodes).
type Injector struct {
	env *sim.Env
	c   *cluster.Cluster

	crashed map[int]bool
	parted  map[[2]int]bool
	// Link-level fault domains (links.go): canonical name tables plus
	// the currently cut and degraded directed links.
	links    *linkNames
	cutLinks map[string]bool
	degLinks map[string]sim.Time
	// dropRules and delayRules apply at the fabric; dupRules apply at the
	// messaging layer (a duplicate must be a marked msg.Message so its
	// Reply can be discarded).
	dropRules  []*rule
	delayRules []*rule
	dupRules   []*rule

	cpuDeg  map[int]float64 // injected background weight per node
	diskDeg map[int]bool    // node SSDs currently degraded

	onCrash []func(node int)
	ctr     *metrics.Counters
	tr      *trace.Tracer
}

// New creates an injector for the cluster and installs it as the fault
// filter of both interconnects (fabric and client network). Messaging
// layers are attached separately with AttachLayer, since they are created
// per VM.
func New(c *cluster.Cluster) *Injector {
	i := &Injector{
		env:      c.Env,
		c:        c,
		tr:       trace.FromEnv(c.Env),
		crashed:  make(map[int]bool),
		parted:   make(map[[2]int]bool),
		links:    newLinkNames(c.Params.Topo, len(c.Nodes)),
		cutLinks: make(map[string]bool),
		degLinks: make(map[string]sim.Time),
		cpuDeg:   make(map[int]float64),
		diskDeg:  make(map[int]bool),
		ctr:      metrics.NewCounters(),
	}
	c.Fabric.SetFilter(i)
	c.Client.SetFilter(i)
	// The reliable transport consults the injector for DupMessages rules
	// on its data frames (fabric-level drops/delays apply regardless).
	c.Reliable.SetFilter(i)
	return i
}

// AttachLayer installs the injector as the fault filter of a messaging
// layer, enabling duplication faults and crashed-node local-delivery drops
// for that layer's traffic.
func (i *Injector) AttachLayer(l *msg.Layer) { l.SetFilter(i) }

// Env returns the simulation environment the injector schedules on.
func (i *Injector) Env() *sim.Env { return i.env }

// Counters returns the injector's deterministic fault counters.
func (i *Injector) Counters() *metrics.Counters { return i.ctr }

// OnCrash registers fn to run (as an event callback) whenever a node
// crashes.
func (i *Injector) OnCrash(fn func(node int)) {
	i.onCrash = append(i.onCrash, fn)
}

// NodeAlive reports whether a node is not currently crashed; it satisfies
// the liveness-view interfaces of dsm and checkpoint.
func (i *Injector) NodeAlive(node int) bool { return !i.crashed[node] }

// Partitioned reports whether the a–b link is currently cut.
func (i *Injector) Partitioned(a, b int) bool { return i.parted[linkKey(a, b)] }

// Alive is a nil-tolerant liveness check: with no injector every node is
// alive. It lets fault-aware packages (checkpoint, hypervisor) consult an
// optional injector without branching on nil at every call site.
func Alive(i *Injector, node int) bool { return i == nil || !i.crashed[node] }

func linkKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// Apply schedules every event of the schedule on the simulation's event
// queue. Events in the past panic (as sim.At does). Apply may be called
// multiple times; state changes compose.
func (i *Injector) Apply(s Schedule) {
	for _, e := range s.sorted() {
		e := e
		i.env.At(e.At, func() { i.fire(e) })
	}
}

// fire applies one fault event now.
func (i *Injector) fire(e Event) {
	i.ctr.Inc("fault."+e.Kind.String(), 1)
	if i.tr != nil {
		i.tr.Instant(0, trace.CatFault, e.Node, i.tr.Key("fault", e.Kind.String()))
	}
	switch e.Kind {
	case CrashNode:
		if i.crashed[e.Node] {
			return
		}
		i.crashed[e.Node] = true
		for _, fn := range i.onCrash {
			fn(e.Node)
		}
	case HealNode:
		delete(i.crashed, e.Node)
	case Partition:
		i.parted[linkKey(e.A, e.B)] = true
	case HealPartition:
		delete(i.parted, linkKey(e.A, e.B))
	case DropMessages:
		i.dropRules = append(i.dropRules, &rule{kind: e.Kind, from: e.From, to: e.To, remaining: e.Count})
	case DelayMessages:
		i.delayRules = append(i.delayRules, &rule{kind: e.Kind, from: e.From, to: e.To, remaining: e.Count, delay: e.Delay})
	case DupMessages:
		i.dupRules = append(i.dupRules, &rule{kind: e.Kind, from: e.From, to: e.To, remaining: e.Count})
	case DegradeCPU:
		if e.Factor <= 0 {
			panic(fmt.Sprintf("fault: DegradeCPU factor %v must be positive", e.Factor))
		}
		i.cpuDeg[e.Node] += e.Factor
		for _, ps := range i.c.Node(e.Node).PCPUs {
			ps.SetBackgroundWeight(ps.BackgroundWeight() + e.Factor)
		}
	case HealCPU:
		if deg := i.cpuDeg[e.Node]; deg > 0 {
			delete(i.cpuDeg, e.Node)
			for _, ps := range i.c.Node(e.Node).PCPUs {
				ps.SetBackgroundWeight(ps.BackgroundWeight() - deg)
			}
		}
	case DegradeDisk:
		if e.Factor < 1 {
			panic(fmt.Sprintf("fault: DegradeDisk factor %v must be >= 1", e.Factor))
		}
		i.diskDeg[e.Node] = true
		i.c.Node(e.Node).SSD.SetSlowdown(e.Factor)
	case HealDisk:
		delete(i.diskDeg, e.Node)
		i.c.Node(e.Node).SSD.SetSlowdown(1)
	case CutLink:
		for _, l := range i.links.expand(e.Link) {
			i.cutLinks[l] = true
		}
	case HealLink:
		for _, l := range i.links.expand(e.Link) {
			delete(i.cutLinks, l)
			delete(i.degLinks, l)
		}
	case DegradeLink:
		if e.Delay <= 0 {
			panic(fmt.Sprintf("fault: DegradeLink delay %v must be positive", e.Delay))
		}
		for _, l := range i.links.expand(e.Link) {
			i.degLinks[l] += e.Delay
		}
	default:
		panic(fmt.Sprintf("fault: unknown event kind %v", e.Kind))
	}
}

// take consumes one unit of the first matching rule in rules, returning it.
func take(rules []*rule, from, to int) *rule {
	for _, r := range rules {
		if r.matches(from, to) {
			r.remaining--
			return r
		}
	}
	return nil
}

// Outcome implements topo.Filter: crash and partition state silences
// endpoints, cut links drop everything routed across them, and
// drop/delay rules consume their next-K budgets in delivery order, which
// keeps replays deterministic. Degraded links add their delay on top of
// any delay rule.
func (i *Injector) Outcome(from, to, size int) topo.Outcome {
	if i.crashed[from] || i.crashed[to] {
		i.ctr.Inc("drop.crashed", 1)
		return topo.Outcome{Drop: true}
	}
	if i.parted[linkKey(from, to)] {
		i.ctr.Inc("drop.partitioned", 1)
		return topo.Outcome{Drop: true}
	}
	cut, linkDelay := i.linkVerdict(from, to)
	if cut {
		i.ctr.Inc("drop.link-cut", 1)
		return topo.Outcome{Drop: true}
	}
	if r := take(i.dropRules, from, to); r != nil {
		i.ctr.Inc("drop.rule", 1)
		return topo.Outcome{Drop: true}
	}
	var delay sim.Time
	if r := take(i.delayRules, from, to); r != nil {
		i.ctr.Inc("delay.rule", 1)
		delay = r.delay
	}
	if linkDelay > 0 {
		i.ctr.Inc("delay.link", 1)
		delay += linkDelay
	}
	return topo.Outcome{Delay: delay}
}

// MsgOutcome implements msg.Filter: same-node deliveries on a crashed node
// are dropped (they never reach the fabric filter), and duplication rules
// consume their budgets here so the duplicate can be delivered as a marked
// message.
func (i *Injector) MsgOutcome(from, to int, service, kind string) msg.MsgOutcome {
	var out msg.MsgOutcome
	if from == to && i.crashed[from] {
		i.ctr.Inc("drop.crashed", 1)
		out.Drop = true
		return out
	}
	if from != to && !i.crashed[from] && !i.crashed[to] && !i.parted[linkKey(from, to)] {
		if cut, _ := i.linkVerdict(from, to); !cut {
			if r := take(i.dupRules, from, to); r != nil {
				i.ctr.Inc("dup.rule", 1)
				out.Duplicate = true
			}
		}
	}
	return out
}
