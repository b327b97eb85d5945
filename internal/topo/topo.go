// Package topo is the repository's message fabric. A fabric connects
// integer-addressed endpoints (cluster nodes, plus external hosts such
// as load generators); a cluster builds two flat instances by default to
// model the paper's testbed, a 56 Gbps InfiniBand fabric between
// hypervisor instances and a 1 Gbps Ethernet network toward clients and
// load generators. A topology — node → NIC → top-of-rack switch → spine
// — is compiled into a link graph over the DES core, and every message
// occupies every link on its path: each hop is store-and-forward with a
// FIFO queue per link, so shared links (a rack's spine uplink, a
// receiver's downlink) resolve contention deterministically, in offer
// order.
//
// Two topology kinds are supported:
//
//   - Flat: one implicit full-bisection switch, and the default for every
//     cluster interconnect (the paper's InfiniBand fabric and the client
//     Ethernet). The path of every message is exactly one link — the
//     sender's egress NIC — so concurrent sends from one endpoint queue
//     behind each other while different senders never contend.
//   - Tree: racks of nodes under top-of-rack switches joined by a spine.
//     Host links carry the fabric's nominal bandwidth; each ToR uplink
//     carries NodesPerRack×host/Oversub — a 4:1 oversubscribed spine makes
//     cross-rack borrowing measurably more expensive than rack-local
//     borrowing, which is what the locality-aware placement layers key on.
//
// Receiver-side (ingress) serialization exists only on the tree path: N
// senders converging on one receiver queue on its downlink. The flat path
// is egress-only, which is the model every paper figure was calibrated on.
//
// Beyond sending, the package exposes Spec.Distance, a pure function of
// the topology shape usable by placement layers without a live fabric,
// and Fabric.LinkStats, per-link occupancy for utilization tables and
// tests. A fault Filter (package fault) rules on every message, and
// TestHooks re-introduce a fixed accounting bug for the chaos engine.
package topo

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/sim"
	"repro/internal/trace"
)

// Outcome is a fault filter's verdict on one message: deliver normally,
// drop it, or deliver it late.
type Outcome struct {
	Drop  bool
	Delay sim.Time // extra propagation delay on top of the fabric latency
}

// Filter inspects every message offered to the fabric. Implemented by the
// fault injector (package fault) to model node crashes, link partitions,
// and lossy or slow links. A nil-filter fabric delivers everything.
type Filter interface {
	Outcome(from, to, size int) Outcome
}

// Stats aggregates fabric-wide traffic counters.
type Stats struct {
	Messages int64
	Bytes    int64
	Dropped  int64 // messages discarded by the fault filter
	Delayed  int64 // messages delivered late by the fault filter
}

// TestHooks re-enable fixed historical bugs behind an explicit opt-in.
// They exist for the chaos engine's self-validation: a search harness
// that claims to find invariant violations must demonstrably find the
// bugs this codebase actually had. Production code never sets hooks;
// the zero value is the fixed behavior.
type TestHooks struct {
	// PhantomEndpoints re-introduces the pre-fix EndpointSent behavior:
	// probing an endpoint that never sent allocates an endpoint record, so
	// reads grow Endpoints() with zero-traffic phantoms and fabric
	// accounting reports break.
	PhantomEndpoints bool
}

// Spec describes a topology shape independent of link speeds: the same
// spec can be compiled against any host-link bandwidth/latency (taken
// from cluster.Params at Build time).
type Spec struct {
	// Flat selects the single-switch topology; the tree fields are
	// ignored.
	Flat bool

	// Racks and NodesPerRack shape the tree: node ids are assigned
	// rack-major, so node i lives in rack i/NodesPerRack.
	Racks        int
	NodesPerRack int
	// Oversub is the spine oversubscription ratio (>= 1): each ToR
	// uplink's bandwidth is NodesPerRack×hostGbps/Oversub. 1 is a
	// full-bisection tree; 4 is the classic 4:1 oversubscribed spine.
	Oversub float64
	// SpineLat is the one-way latency of each ToR↔spine hop; 0 means
	// "same as the host link latency".
	SpineLat sim.Time
}

// FlatSpec returns the single-switch topology every cluster fabric uses
// unless a tree is asked for.
func FlatSpec() *Spec { return &Spec{Flat: true} }

// TreeSpec returns a two-tier tree of racks×nodesPerRack nodes under an
// oversub:1 oversubscribed spine.
func TreeSpec(racks, nodesPerRack int, oversub float64) *Spec {
	s := &Spec{Racks: racks, NodesPerRack: nodesPerRack, Oversub: oversub}
	s.validate()
	return s
}

func (s *Spec) validate() {
	if s.Flat {
		return
	}
	if s.Racks <= 0 || s.NodesPerRack <= 0 {
		panic(fmt.Sprintf("topo: tree needs racks and nodes per rack, got %d×%d", s.Racks, s.NodesPerRack))
	}
	if s.Oversub < 1 {
		panic(fmt.Sprintf("topo: oversubscription %v must be >= 1", s.Oversub))
	}
}

// ParseSpec parses a CLI topology argument: "" (nil spec, which a
// cluster builds as the flat default), "flat" (the same single-switch
// fabric, named explicitly), or "tree:RxN@O" for R racks of N nodes
// under an O:1 oversubscribed spine (e.g. "tree:2x4@4").
func ParseSpec(s string) (*Spec, error) {
	switch {
	case s == "":
		return nil, nil
	case s == "flat":
		return FlatSpec(), nil
	case strings.HasPrefix(s, "tree:"):
		body := strings.TrimPrefix(s, "tree:")
		shape, over, _ := strings.Cut(body, "@")
		rs, ns, ok := strings.Cut(shape, "x")
		if !ok {
			return nil, fmt.Errorf("topo: bad tree spec %q, want tree:RxN@O", s)
		}
		racks, err1 := strconv.Atoi(rs)
		nodes, err2 := strconv.Atoi(ns)
		oversub := 1.0
		var err3 error
		if over != "" {
			oversub, err3 = strconv.ParseFloat(over, 64)
		}
		if err1 != nil || err2 != nil || err3 != nil || racks <= 0 || nodes <= 0 || oversub < 1 {
			return nil, fmt.Errorf("topo: bad tree spec %q, want tree:RxN@O with R,N >= 1 and O >= 1", s)
		}
		return TreeSpec(racks, nodes, oversub), nil
	default:
		return nil, fmt.Errorf("topo: unknown topology %q (want flat or tree:RxN@O)", s)
	}
}

// String renders the spec in ParseSpec syntax.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	if s.Flat {
		return "flat"
	}
	return fmt.Sprintf("tree:%dx%d@%g", s.Racks, s.NodesPerRack, s.Oversub)
}

// Nodes returns the number of addressable nodes (0 = unbounded, flat).
func (s *Spec) Nodes() int {
	if s.Flat {
		return 0
	}
	return s.Racks * s.NodesPerRack
}

// Rack returns the rack hosting a node.
func (s *Spec) Rack(node int) int {
	if s.Flat {
		return 0
	}
	if node < 0 || node >= s.Nodes() {
		panic(fmt.Sprintf("topo: node %d outside the %d×%d tree", node, s.Racks, s.NodesPerRack))
	}
	return node / s.NodesPerRack
}

// Distance is the topology-distance oracle placement layers consume: the
// number of links a message from a to b traverses. 0 for the same node,
// 1 on a flat fabric (the egress NIC), 2 within a rack (up + down), 4
// across the spine (up, ToR uplink, ToR downlink, down). Pure — no
// fabric needed — and symmetric. Anything ≤ 2 shares a leaf switch,
// which is the "rack-local" threshold the fleet's gang accounting uses.
func (s *Spec) Distance(a, b int) int {
	if a == b {
		return 0
	}
	if s.Flat {
		return 1
	}
	if s.Rack(a) == s.Rack(b) {
		return 2
	}
	return 4
}

// link is one directed edge of the compiled graph: a FIFO
// store-and-forward queue with fixed bandwidth and propagation latency.
type link struct {
	name     string
	node     int     // node charged for trace spans (an endpoint of the link)
	bps      float64 // bytes per second
	lat      sim.Time
	nextFree sim.Time
	msgs     int64
	bytes    int64
	busy     sim.Time // cumulative serialization occupancy
	span     string   // interned trace span name
}

// LinkStat is one link's occupancy record, for utilization tables.
type LinkStat struct {
	Name  string
	Gbps  float64
	Msgs  int64
	Bytes int64
	Busy  sim.Time // total time the link spent serializing
}

// Utilization returns the link's busy fraction of the given interval.
func (l LinkStat) Utilization(elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return l.Busy.Seconds() / elapsed.Seconds()
}

// Fabric is a topology-aware message fabric. Construct with Spec.Build.
type Fabric struct {
	env     *sim.Env
	name    string
	spec    Spec
	hostLat sim.Time
	hostBps float64

	// Tree links, indexed by node (up/down) and rack (torUp/torDown).
	up, down       []*link
	torUp, torDown []*link
	// Flat egress links, created lazily per endpoint: any integer id,
	// including external hosts, is addressable.
	flat map[int]*link

	links  []*link // every link, construction order (LinkStats order)
	eps    map[int]*endpoint
	stats  Stats
	filter Filter
	hooks  TestHooks
	tr     *trace.Tracer
}

// SetTestHooks installs (or, with the zero value, clears) the fabric's
// bug-reintroduction hooks.
func (f *Fabric) SetTestHooks(h TestHooks) { f.hooks = h }

// endpoint tracks per-sender counters.
type endpoint struct {
	sent  int64
	bytes int64
}

// Build compiles the spec into a live fabric over the environment. Host
// (node↔switch) links carry hostGbps/hostLat, so a cluster can compile
// its Params against any topology.
func (s *Spec) Build(env *sim.Env, name string, hostGbps float64, hostLat sim.Time) *Fabric {
	if hostGbps <= 0 {
		panic(fmt.Sprintf("topo: bandwidth %v Gbps must be positive", hostGbps))
	}
	if hostLat < 0 {
		panic(fmt.Sprintf("topo: latency %v must be non-negative", hostLat))
	}
	s.validate()
	f := &Fabric{
		env:     env,
		name:    name,
		spec:    *s,
		hostLat: hostLat,
		hostBps: hostGbps * 1e9 / 8,
		eps:     make(map[int]*endpoint),
		tr:      trace.FromEnv(env),
	}
	if s.Flat {
		f.flat = make(map[int]*link)
		return f
	}
	spineLat := s.SpineLat
	if spineLat == 0 {
		spineLat = hostLat
	}
	uplinkBps := float64(s.NodesPerRack) * f.hostBps / s.Oversub
	newLink := func(name string, node int, bps float64, lat sim.Time) *link {
		l := &link{name: name, node: node, bps: bps, lat: lat, span: f.tr.Key("link", name)}
		f.links = append(f.links, l)
		return l
	}
	for n := 0; n < s.Nodes(); n++ {
		r := s.Rack(n)
		f.up = append(f.up, newLink(fmt.Sprintf("n%d-tor%d", n, r), n, f.hostBps, hostLat))
		f.down = append(f.down, newLink(fmt.Sprintf("tor%d-n%d", r, n), n, f.hostBps, hostLat))
	}
	for r := 0; r < s.Racks; r++ {
		f.torUp = append(f.torUp, newLink(fmt.Sprintf("tor%d-spine", r), r*s.NodesPerRack, uplinkBps, spineLat))
		f.torDown = append(f.torDown, newLink(fmt.Sprintf("spine-tor%d", r), r*s.NodesPerRack, uplinkBps, spineLat))
	}
	return f
}

// Latency returns the minimum one-way path latency: the host-link
// latency on a flat fabric, twice it within a rack.
// Protocol cost models use it as their base RTT estimate.
func (f *Fabric) Latency() sim.Time {
	if f.spec.Flat {
		return f.hostLat
	}
	return 2 * f.hostLat
}

// TxTime returns the serialization time for size bytes at a host link.
func (f *Fabric) TxTime(size int) sim.Time {
	if size < 0 {
		panic("topo: negative message size")
	}
	return sim.FromSeconds(float64(size) / f.hostBps)
}

// SetFilter installs (or, with nil, removes) the fabric's fault filter.
func (f *Fabric) SetFilter(flt Filter) { f.filter = flt }

// Filter returns the installed fault filter, or nil. The reliable
// transport keys its zero-fault fast path on this: no filter means
// nothing can be lost, so no acks need to be charged.
func (f *Fabric) Filter() Filter { return f.filter }

// PathTime returns the uncontended one-way delivery time for size bytes
// from one endpoint to another: each link on the route charged at its
// own bandwidth (so an oversubscribed uplink costs what it actually
// costs) plus its latency, store-and-forward. Queueing can only add to
// it — protocol timeout models treat it as the floor.
func (f *Fabric) PathTime(from, to int, size int) sim.Time {
	if size < 0 {
		panic("topo: negative message size")
	}
	var buf hops
	var t sim.Time
	for _, l := range f.route(&buf, from, to) {
		t += sim.FromSeconds(float64(size)/l.bps) + l.lat
	}
	return t
}

// hops holds one route: no path is longer than the four links of a
// cross-spine tree route.
type hops [4]*link

// route fills buf with the links a (from, to) message occupies, in
// traversal order, and returns the filled prefix. The caller owns buf,
// so routing allocates nothing on the per-message path. Flat fabrics
// use exactly the sender's egress NIC; trees hairpin same-rack traffic
// at the ToR and cross the spine otherwise. Same-node tree messages
// still hairpin — callers that want free local delivery short-circuit
// above the fabric, as msg does.
func (f *Fabric) route(buf *hops, from, to int) []*link {
	if f.spec.Flat {
		buf[0] = f.flatLink(from)
		return buf[:1]
	}
	rf, rt := f.spec.Rack(from), f.spec.Rack(to)
	if rf == rt {
		buf[0], buf[1] = f.up[from], f.down[to]
		return buf[:2]
	}
	buf[0], buf[1], buf[2], buf[3] = f.up[from], f.torUp[rf], f.torDown[rt], f.down[to]
	return buf[:4]
}

// flatLink lazily creates the per-endpoint egress link of the flat
// topology.
func (f *Fabric) flatLink(id int) *link {
	l, ok := f.flat[id]
	if !ok {
		// Every egress link of a flat fabric records its occupancy under
		// the fabric's one "nic/<name>" span (tid = node), which the
		// golden trace in internal/trace/testdata pins.
		l = &link{name: fmt.Sprintf("n%d-egress", id), node: id,
			bps: f.hostBps, lat: f.hostLat, span: f.tr.Key("nic", f.name)}
		f.flat[id] = l
		f.links = append(f.links, l)
	}
	return l
}

// Send transmits size bytes from one endpoint to another and invokes
// deliver at the receiver once the message arrives; deliver may be nil
// for fire-and-forget accounting. Send returns the delivery time.
func (f *Fabric) Send(from, to int, size int, deliver func()) sim.Time {
	return f.SendCtx(0, from, to, size, deliver)
}

// SendCtx is Send with a causal tracing parent (see Transmit). Dropped
// messages never invoke deliver; delayed ones arrive late.
func (f *Fabric) SendCtx(span int64, from, to int, size int, deliver func()) sim.Time {
	arrive, delivered := f.Transmit(span, from, to, size)
	if delivered && deliver != nil {
		f.env.DeferAt(arrive, deliver)
	}
	return arrive
}

// Transmit charges the path for size bytes from one endpoint to another
// and returns the arrival time and whether the message survived the
// fault filter, scheduling nothing: the caller schedules the delivery.
// When traced, every link's occupancy interval is recorded as a network
// span under the given parent — one span per hop, named after the link.
//
// Contention semantics: the message reaches link i at time t; it starts
// serializing at max(t, link.nextFree) — FIFO behind everything the link
// already accepted — occupies the link for size/bandwidth, then
// propagates for the link's latency toward the next hop
// (store-and-forward). The fault filter rules once per message after the
// path has been charged: the sender cannot know the fabric lost its
// frame. A delay verdict is included in the arrival time; for a drop,
// the arrival time is when the frame would have arrived.
func (f *Fabric) Transmit(span int64, from, to int, size int) (arrive sim.Time, delivered bool) {
	var buf hops
	t := f.env.Now()
	for _, l := range f.route(&buf, from, to) {
		start := l.nextFree
		if start < t {
			start = t
		}
		done := start + sim.FromSeconds(float64(size)/l.bps)
		l.nextFree = done
		l.msgs++
		l.bytes += int64(size)
		l.busy += done - start
		if f.tr != nil {
			f.tr.Complete(span, trace.CatNet, l.node, l.span, start, done)
		}
		t = done + l.lat
	}
	ep := f.ep(from)
	ep.sent++
	ep.bytes += int64(size)
	f.stats.Messages++
	f.stats.Bytes += int64(size)
	arrive = t
	if f.filter != nil {
		o := f.filter.Outcome(from, to, size)
		if o.Drop {
			f.stats.Dropped++
			return arrive, false
		}
		if o.Delay > 0 {
			f.stats.Delayed++
			arrive += o.Delay
		}
	}
	return arrive, true
}

// Stats returns a copy of the fabric-wide traffic counters.
func (f *Fabric) Stats() Stats { return f.stats }

// Endpoints returns the ids of every endpoint that has sent, ascending.
func (f *Fabric) Endpoints() []int {
	ids := make([]int, 0, len(f.eps))
	for id := range f.eps {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// EndpointSent returns the messages and bytes sent by an endpoint.
// A pure read: an id that never sent reports zeros without inserting an
// endpoint record, so probing cannot grow Endpoints().
func (f *Fabric) EndpointSent(id int) (msgs, bytes int64) {
	if f.hooks.PhantomEndpoints {
		e := f.ep(id)
		return e.sent, e.bytes
	}
	if e, ok := f.eps[id]; ok {
		return e.sent, e.bytes
	}
	return 0, 0
}

func (f *Fabric) ep(id int) *endpoint {
	e, ok := f.eps[id]
	if !ok {
		e = &endpoint{}
		f.eps[id] = e
	}
	return e
}

// LinkStats returns every link's occupancy record in construction order
// (host links node-major, then ToR uplinks/downlinks rack-major; flat
// egress links in first-send order, which the deterministic DES keeps
// stable across same-seed runs).
func (f *Fabric) LinkStats() []LinkStat {
	out := make([]LinkStat, len(f.links))
	for i, l := range f.links {
		out[i] = LinkStat{Name: l.name, Gbps: l.bps * 8 / 1e9, Msgs: l.msgs, Bytes: l.bytes, Busy: l.busy}
	}
	return out
}
