package topo_test

// Fabric send-path tests through the package's exported surface. Tests
// that hold for every topology run over both shapes; the rest pin the
// flat default the cluster builds.

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// shapes lists the topologies the shape-independent contract tests run
// over: the flat default and a 2×2 tree under a 4:1 spine.
var shapes = []struct {
	name string
	spec *topo.Spec
}{
	{"flat", topo.FlatSpec()},
	{"tree", topo.TreeSpec(2, 2, 4)},
}

// flat builds the single-switch fabric every cluster uses by default.
func flat(env *sim.Env, gbps float64, lat sim.Time) *topo.Fabric {
	return topo.FlatSpec().Build(env, "ib", gbps, lat)
}

func TestTxTime(t *testing.T) {
	env := sim.NewEnv()
	n := flat(env, 56, 1500*sim.Nanosecond) // 56 Gbps = 7e9 B/s
	got := n.TxTime(7000)
	want := sim.Microsecond // 7000 B / 7e9 B/s = 1 us
	if got != want {
		t.Fatalf("TxTime(7000) = %v, want %v", got, want)
	}
}

func TestSendDelivery(t *testing.T) {
	env := sim.NewEnv()
	n := flat(env, 8, 1000*sim.Nanosecond) // 1e9 B/s
	var delivered sim.Time
	n.Send(0, 1, 1000, func() { delivered = env.Now() })
	env.Run()
	// 1000 B / 1e9 B/s = 1 us serialization + 1 us latency.
	if want := 2 * sim.Microsecond; delivered != want {
		t.Fatalf("delivered at %v, want %v", delivered, want)
	}
}

func TestEgressSerialization(t *testing.T) {
	env := sim.NewEnv()
	n := flat(env, 8, 0) // 1e9 B/s, zero latency isolates the NIC
	var first, second sim.Time
	n.Send(0, 1, 1000, func() { first = env.Now() })
	n.Send(0, 2, 1000, func() { second = env.Now() })
	env.Run()
	if first != sim.Microsecond {
		t.Fatalf("first delivery at %v", first)
	}
	// Second message queues behind the first on node 0's NIC.
	if second != 2*sim.Microsecond {
		t.Fatalf("second delivery at %v, want 2us", second)
	}
}

func TestIndependentEgress(t *testing.T) {
	env := sim.NewEnv()
	n := flat(env, 8, 0)
	var a, b sim.Time
	n.Send(0, 2, 1000, func() { a = env.Now() })
	n.Send(1, 2, 1000, func() { b = env.Now() })
	env.Run()
	// Different senders do not serialize against each other.
	if a != sim.Microsecond || b != sim.Microsecond {
		t.Fatalf("deliveries at %v and %v, want both 1us", a, b)
	}
}

// TestEndpointSentPureRead: probing an endpoint that never sent must
// report zeros without manufacturing an endpoint record — a monitoring
// read that grows Endpoints() corrupts per-node traffic reports.
func TestEndpointSentPureRead(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			env := sim.NewEnv()
			n := sh.spec.Build(env, "ib", 56, 0)
			n.Send(0, 1, 100, nil)
			env.Run()
			if msgs, bytes := n.EndpointSent(3); msgs != 0 || bytes != 0 {
				t.Fatalf("phantom endpoint reported %d msgs %d bytes", msgs, bytes)
			}
			if eps := n.Endpoints(); len(eps) != 1 || eps[0] != 0 {
				t.Fatalf("probing EndpointSent(3) grew Endpoints() to %v", eps)
			}
		})
	}
}

// TestPathTimeFlat: on the flat fabric, path time is one serialization
// plus the fabric latency, and matches an uncontended delivery exactly.
func TestPathTimeFlat(t *testing.T) {
	env := sim.NewEnv()
	n := flat(env, 56, 1500*sim.Nanosecond)
	if got, want := n.PathTime(0, 1, 7000), n.TxTime(7000)+n.Latency(); got != want {
		t.Fatalf("PathTime = %v, want %v", got, want)
	}
	var arrived sim.Time
	n.Send(0, 1, 7000, func() { arrived = env.Now() })
	env.Run()
	if arrived != n.PathTime(0, 1, 7000) {
		t.Fatalf("uncontended delivery at %v, PathTime says %v", arrived, n.PathTime(0, 1, 7000))
	}
}

func TestStats(t *testing.T) {
	env := sim.NewEnv()
	n := flat(env, 56, 0)
	n.Send(0, 1, 100, nil)
	n.Send(0, 1, 200, nil)
	n.Send(1, 0, 50, nil)
	env.Run()
	s := n.Stats()
	if s.Messages != 3 || s.Bytes != 350 {
		t.Fatalf("stats = %+v", s)
	}
	msgs, bytes := n.EndpointSent(0)
	if msgs != 2 || bytes != 300 {
		t.Fatalf("endpoint 0 sent %d msgs %d bytes", msgs, bytes)
	}
}

// scriptFilter rules per message index: a table of outcomes applied in
// offer order.
type scriptFilter struct {
	outcomes []topo.Outcome
	next     int
}

func (f *scriptFilter) Outcome(from, to, size int) topo.Outcome {
	if f.next >= len(f.outcomes) {
		return topo.Outcome{}
	}
	o := f.outcomes[f.next]
	f.next++
	return o
}

// TestFilterAccounting pins down the Stats contract under fault
// filtering: every offered message is counted in Messages and Bytes
// (the sender's NIC was charged whether or not the fabric lost the
// frame), Dropped/Delayed count the filter's verdicts, and only
// non-dropped messages deliver.
func TestFilterAccounting(t *testing.T) {
	cases := []struct {
		name     string
		outcomes []topo.Outcome
		want     topo.Stats
		delivers int
	}{
		{"all-deliver", []topo.Outcome{{}, {}, {}},
			topo.Stats{Messages: 3, Bytes: 600}, 3},
		{"all-dropped", []topo.Outcome{{Drop: true}, {Drop: true}, {Drop: true}},
			topo.Stats{Messages: 3, Bytes: 600, Dropped: 3}, 0},
		{"all-delayed", []topo.Outcome{{Delay: sim.Microsecond}, {Delay: sim.Microsecond}, {Delay: sim.Microsecond}},
			topo.Stats{Messages: 3, Bytes: 600, Delayed: 3}, 3},
		{"mixed", []topo.Outcome{{Drop: true}, {Delay: sim.Microsecond}, {}},
			topo.Stats{Messages: 3, Bytes: 600, Dropped: 1, Delayed: 1}, 2},
		{"drop-and-delay-verdicts-drop-wins", []topo.Outcome{{Drop: true, Delay: sim.Microsecond}},
			topo.Stats{Messages: 1, Bytes: 200, Dropped: 1}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			n := flat(env, 56, 0)
			n.SetFilter(&scriptFilter{outcomes: tc.outcomes})
			delivered := 0
			for i := 0; i < len(tc.outcomes); i++ {
				n.Send(0, 1, 200, func() { delivered++ })
			}
			env.Run()
			if got := n.Stats(); got != tc.want {
				t.Errorf("stats = %+v, want %+v", got, tc.want)
			}
			if delivered != tc.delivers {
				t.Errorf("delivered %d messages, want %d", delivered, tc.delivers)
			}
			// Endpoint accounting matches fabric-wide accounting: the
			// sender is charged for dropped frames too.
			msgs, bytes := n.EndpointSent(0)
			if msgs != tc.want.Messages || bytes != tc.want.Bytes {
				t.Errorf("endpoint sent %d/%d, want %d/%d", msgs, bytes, tc.want.Messages, tc.want.Bytes)
			}
		})
	}
}

// TestFilterDelayedArrival checks the delay verdict shifts only the
// arrival, not the NIC occupancy: a delayed message still frees the
// sender's NIC at the undelayed time.
func TestFilterDelayedArrival(t *testing.T) {
	env := sim.NewEnv()
	n := flat(env, 8, 0) // 1e9 B/s: 1000 B = 1 us serialization
	n.SetFilter(&scriptFilter{outcomes: []topo.Outcome{{Delay: 5 * sim.Microsecond}}})
	var first, second sim.Time
	n.Send(0, 1, 1000, func() { first = env.Now() })
	n.Send(0, 1, 1000, func() { second = env.Now() })
	env.Run()
	if first != 6*sim.Microsecond {
		t.Errorf("delayed delivery at %v, want 6us", first)
	}
	if second != 2*sim.Microsecond {
		t.Errorf("second delivery at %v, want 2us (NIC freed at the undelayed time)", second)
	}
}

func TestInvalidParams(t *testing.T) {
	env := sim.NewEnv()
	for _, fn := range []func(){
		func() { flat(env, 0, 0) },
		func() { flat(env, 1, -1) },
		func() { flat(env, 1, 0).TxTime(-1) },
		func() { flat(env, 1, 0).PathTime(0, 1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestPhantomEndpointsHook: with the hook set, probing a silent
// endpoint allocates its endpoint record and grows Endpoints() — the
// historical accounting bug. Without it, probes are pure reads.
func TestPhantomEndpointsHook(t *testing.T) {
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			env := sim.NewEnv()
			n := sh.spec.Build(env, "ib", 56, 0)
			n.Send(0, 1, 100, nil)
			env.Run()

			if msgs, _ := n.EndpointSent(3); msgs != 0 {
				t.Fatalf("silent endpoint reports %d msgs", msgs)
			}
			if eps := n.Endpoints(); len(eps) != 1 {
				t.Fatalf("pure-read probe grew Endpoints() to %v", eps)
			}

			n.SetTestHooks(topo.TestHooks{PhantomEndpoints: true})
			n.EndpointSent(3)
			eps := n.Endpoints()
			if len(eps) != 2 || eps[1] != 3 {
				t.Fatalf("hooked probe produced Endpoints() = %v, want phantom id 3", eps)
			}
		})
	}
}

// TestEndpointsBySlot: endpoints and flat egress links sit in slices
// indexed by a zigzag of the id, so negative ids (the cluster's client
// host is -1) share them with the nodes. Endpoints() is ascending with
// the negative ids first, EndpointSent reads each id's own counters, a
// probe of an id that never sent (below, between or above the senders)
// does not grow Endpoints(), the PhantomEndpoints hook still inserts
// one, and flat LinkStats() stays in first-send order.
func TestEndpointsBySlot(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	n := flat(env, 56, 0)
	senders := []int{3, -1, 0, 7, -4, 1}
	for i, id := range senders {
		for k := 0; k <= i; k++ {
			n.Send(id, 2, 100, nil)
		}
	}
	env.Run()
	if got, want := fmt.Sprint(n.Endpoints()), "[-4 -1 0 1 3 7]"; got != want {
		t.Fatalf("Endpoints() = %s, want %s", got, want)
	}
	for i, id := range senders {
		if msgs, bytes := n.EndpointSent(id); msgs != int64(i+1) || bytes != int64(100*(i+1)) {
			t.Errorf("EndpointSent(%d) = %d msgs %d bytes, want %d, %d", id, msgs, bytes, i+1, 100*(i+1))
		}
	}
	for _, id := range []int{-9, -3, -2, 2, 5, 8, 1 << 20} {
		if msgs, bytes := n.EndpointSent(id); msgs != 0 || bytes != 0 {
			t.Errorf("silent endpoint %d reports %d msgs %d bytes", id, msgs, bytes)
		}
	}
	if got := len(n.Endpoints()); got != len(senders) {
		t.Errorf("probing silent endpoints grew Endpoints() to %v", n.Endpoints())
	}
	var names []string
	for _, l := range n.LinkStats() {
		names = append(names, l.Name)
	}
	if got, want := fmt.Sprint(names), "[n3-egress n-1-egress n0-egress n7-egress n-4-egress n1-egress]"; got != want {
		t.Errorf("LinkStats() order %s, want first-send order %s", got, want)
	}
	n.SetTestHooks(topo.TestHooks{PhantomEndpoints: true})
	n.EndpointSent(-2)
	if got, want := fmt.Sprint(n.Endpoints()), "[-4 -2 -1 0 1 3 7]"; got != want {
		t.Errorf("hooked probe of -2: Endpoints() = %s, want %s", got, want)
	}
}
