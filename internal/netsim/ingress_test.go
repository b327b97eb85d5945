package netsim_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// TestTreeIngressSerialization is the regression test for the
// receiver-side modeling gap: with only sender-egress NICs (the flat
// fabric), N senders deliver to one receiver simultaneously; on the
// topology path the receiver's downlink is a shared FIFO link, so the
// deliveries serialize.
func TestTreeIngressSerialization(t *testing.T) {
	env := sim.NewEnv()
	fab := topo.TreeSpec(1, 3, 1).Build(env, "fabric", 8, 0) // 1e9 B/s, 0 latency
	var a, b sim.Time
	fab.Send(0, 2, 1000, func() { a = env.Now() })
	fab.Send(1, 2, 1000, func() { b = env.Now() })
	env.Run()
	// Each message: 1 us on its own uplink, then node 2's downlink. The
	// second message reaches the downlink at t=1us but finds it busy
	// until 2us — ingress serialization the egress-only model misses.
	if a != 2*sim.Microsecond {
		t.Errorf("first delivery at %v, want 2us", a)
	}
	if b != 3*sim.Microsecond {
		t.Errorf("second delivery at %v, want 3us (serialized on the receiver downlink)", b)
	}
}

// TestFlatNoIngressSerialization pins the flat side: the default
// topology is egress-only, so concurrent senders to one receiver still
// deliver simultaneously — every paper figure is calibrated on it.
func TestFlatNoIngressSerialization(t *testing.T) {
	env := sim.NewEnv()
	fab := topo.FlatSpec().Build(env, "fabric", 8, 0)
	var a, b sim.Time
	fab.Send(0, 2, 1000, func() { a = env.Now() })
	fab.Send(1, 2, 1000, func() { b = env.Now() })
	env.Run()
	if a != sim.Microsecond || b != sim.Microsecond {
		t.Errorf("deliveries at %v and %v, want both 1us", a, b)
	}
}

// TestFlatEquivalence drives a pseudo-random 500-message sequence
// through the flat fabric and requires the delivery times, Stats and
// Endpoints recorded in testdata/flat_reference.json. The file was
// captured from the original egress-only fabric every paper figure was
// calibrated on, so the flat default keeps its exact semantics.
func TestFlatEquivalence(t *testing.T) {
	const (
		lat   = 1500 * sim.Nanosecond
		gbps  = 56
		sends = 500
	)
	type send struct{ from, to, size int }
	rng := rand.New(rand.NewSource(99))
	seq := make([]send, sends)
	for i := range seq {
		seq[i] = send{rng.Intn(4), rng.Intn(4), 1 + rng.Intn(1<<16)}
	}

	env := sim.NewEnv()
	fab := topo.FlatSpec().Build(env, "fabric", gbps, lat)
	// Send's return values first, then the deliver callbacks in the
	// order the DES fires them.
	arrivals := make([]sim.Time, 0, 2*sends)
	for _, s := range seq {
		at := fab.Send(s.from, s.to, s.size, func() {
			arrivals = append(arrivals, env.Now())
		})
		arrivals = append(arrivals, at)
	}
	env.Run()

	raw, err := os.ReadFile("testdata/flat_reference.json")
	if err != nil {
		t.Fatal(err)
	}
	var want struct {
		Arrivals  []sim.Time   `json:"arrivals"`
		Stats     netsim.Stats `json:"stats"`
		Endpoints []int        `json:"endpoints"`
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != len(want.Arrivals) {
		t.Fatalf("event counts differ: got %d, reference %d", len(arrivals), len(want.Arrivals))
	}
	for i := range arrivals {
		if arrivals[i] != want.Arrivals[i] {
			t.Fatalf("event %d: got %v, reference %v", i, arrivals[i], want.Arrivals[i])
		}
	}
	if got := fab.Stats(); got != want.Stats {
		t.Fatalf("stats: got %+v, reference %+v", got, want.Stats)
	}
	if got := fab.Endpoints(); !slices.Equal(got, want.Endpoints) {
		t.Fatalf("endpoints: got %v, reference %v", got, want.Endpoints)
	}
}
