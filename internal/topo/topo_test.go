package topo

import (
	"math"
	"testing"

	"repro/internal/sim"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want string
		err  bool
	}{
		{"", "", false},
		{"flat", "flat", false},
		{"tree:2x4@4", "tree:2x4@4", false},
		{"tree:3x2", "tree:3x2@1", false},
		{"tree:2x4@1.5", "tree:2x4@1.5", false},
		{"tree:0x4@4", "", true},
		{"tree:2x4@0.5", "", true},
		{"tree:2x4@NaN", "", true},
		{"tree:2x4@Inf", "", true},
		{"tree:2x4@+Inf", "", true},
		{"tree:2x4@-Inf", "", true},
		{"tree:24@4", "", true},
		{"ring:4", "", true},
	}
	for _, tc := range cases {
		spec, err := ParseSpec(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("ParseSpec(%q): expected error", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got := spec.String(); got != tc.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestDistance(t *testing.T) {
	flat := FlatSpec()
	if d := flat.Distance(3, 3); d != 0 {
		t.Errorf("flat same-node distance = %d", d)
	}
	if d := flat.Distance(0, 7); d != 1 {
		t.Errorf("flat cross-node distance = %d", d)
	}
	tree := TreeSpec(2, 4, 4) // nodes 0-3 rack 0, 4-7 rack 1
	for _, tc := range []struct{ a, b, want int }{
		{0, 0, 0}, {0, 3, 2}, {4, 7, 2}, {0, 4, 4}, {3, 7, 4},
	} {
		if d := tree.Distance(tc.a, tc.b); d != tc.want {
			t.Errorf("tree Distance(%d,%d) = %d, want %d", tc.a, tc.b, d, tc.want)
		}
	}
}

// TestSharedUplinkContention checks two same-rack senders serialize on
// their rack's single spine uplink even though their host links are
// independent.
func TestSharedUplinkContention(t *testing.T) {
	env := sim.NewEnv()
	// Oversub 2 with 2 nodes/rack: uplink = 2*8/2 = 8 Gbps = 1e9 B/s,
	// same as the hosts; 0 latency isolates serialization.
	f := TreeSpec(2, 2, 2).Build(env, "t", 8, 0)
	var a, b sim.Time
	f.Send(0, 2, 1000, func() { a = env.Now() })
	f.Send(1, 2, 1000, func() { b = env.Now() })
	env.Run()
	// Message A: up0 1us, torUp 1-2us, torDown 2-3us, down2 3-4us.
	if a != 4*sim.Microsecond {
		t.Errorf("first delivery at %v, want 4us", a)
	}
	// Message B clears its own host uplink at 1us but finds the shared
	// ToR uplink busy until 2us, then trails A hop by hop: torUp 2-3us,
	// torDown 3-4us, down2 4-5us.
	if b != 5*sim.Microsecond {
		t.Errorf("second delivery at %v, want 5us (queued on the shared ToR uplink)", b)
	}
}

func TestLinkStats(t *testing.T) {
	env := sim.NewEnv()
	f := TreeSpec(2, 2, 4).Build(env, "t", 56, 1500*sim.Nanosecond)
	f.Send(0, 2, 4096, func() {})
	env.Run()
	byName := map[string]LinkStat{}
	for _, l := range f.LinkStats() {
		byName[l.Name] = l
	}
	for _, name := range []string{"n0-tor0", "tor0-spine", "spine-tor1", "tor1-n2"} {
		l, ok := byName[name]
		if !ok || l.Msgs != 1 || l.Bytes != 4096 || l.Busy <= 0 {
			t.Errorf("link %s: %+v (ok=%v), want 1 msg / 4096 B / busy > 0", name, l, ok)
		}
	}
	if l := byName["n1-tor0"]; l.Msgs != 0 {
		t.Errorf("uninvolved link carried traffic: %+v", l)
	}
	if u := byName["tor0-spine"].Utilization(env.Now()); u <= 0 || u > 1 {
		t.Errorf("uplink utilization = %v, want in (0, 1]", u)
	}
}

// TestPathTimeStoreAndForward: a tree path's uncontended delivery time
// is the sum of per-link serialization and latency over every hop —
// store-and-forward, not end-to-end — and PathTime must equal what an
// uncontended Send actually observes, since the reliable transport's
// RTO floor is built on it.
func TestPathTimeStoreAndForward(t *testing.T) {
	env := sim.NewEnv()
	f := TreeSpec(2, 2, 4).Build(env, "t", 56, 1500*sim.Nanosecond)
	const size = 1 << 20
	for _, tc := range []struct{ from, to int }{{0, 1}, {0, 2}, {3, 0}} {
		var arrived sim.Time
		env2 := sim.NewEnv()
		f2 := TreeSpec(2, 2, 4).Build(env2, "t", 56, 1500*sim.Nanosecond)
		f2.Send(tc.from, tc.to, size, func() { arrived = env2.Now() })
		env2.Run()
		if pt := f.PathTime(tc.from, tc.to, size); arrived != pt {
			t.Errorf("(%d→%d) uncontended delivery at %v, PathTime says %v", tc.from, tc.to, arrived, pt)
		}
	}
	// Cross-rack must cost strictly more than rack-local for the same
	// size: two extra hops, one at the oversubscribed uplink rate.
	if local, cross := f.PathTime(0, 1, size), f.PathTime(0, 2, size); cross <= local {
		t.Errorf("cross-rack PathTime %v not above rack-local %v", cross, local)
	}
}

// TestSendAllocatesNothing: the per-message path — routing, charging
// every link, endpoint and fabric accounting — runs without a heap
// allocation on both topology kinds once the endpoints exist.
func TestSendAllocatesNothing(t *testing.T) {
	for _, spec := range []*Spec{FlatSpec(), TreeSpec(2, 2, 4)} {
		env := sim.NewEnv()
		f := spec.Build(env, "t", 56, 1500*sim.Nanosecond)
		for from := 0; from < 4; from++ {
			f.Send(from, (from+2)%4, 4096, nil) // create every endpoint
		}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			f.Send(i%4, (i+2)%4, 4096, nil)
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: Send allocates %v times per message, want 0", spec, allocs)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { TreeSpec(0, 2, 1) },
		func() { TreeSpec(2, 0, 1) },
		func() { TreeSpec(2, 2, 0.5) },
		func() { TreeSpec(2, 2, math.NaN()) },
		func() { TreeSpec(2, 2, math.Inf(1)) },
		func() { FlatSpec().Build(sim.NewEnv(), "t", 0, 0) },
		func() { FlatSpec().Build(sim.NewEnv(), "t", 1, -1) },
		func() { TreeSpec(2, 2, 1).Rack(4) },
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

// TestSameSeedDeterminism: two identical runs produce identical link
// stats and delivery schedules.
func TestSameSeedDeterminism(t *testing.T) {
	run := func() ([]LinkStat, []sim.Time) {
		env := sim.NewEnv()
		f := TreeSpec(2, 2, 4).Build(env, "t", 56, 1500*sim.Nanosecond)
		var arrivals []sim.Time
		for i := 0; i < 64; i++ {
			from, to := i%4, (i*7+1)%4
			f.Send(from, to, 512*(i%5+1), func() { arrivals = append(arrivals, env.Now()) })
		}
		env.Run()
		return f.LinkStats(), arrivals
	}
	ls1, ar1 := run()
	ls2, ar2 := run()
	if len(ls1) != len(ls2) || len(ar1) != len(ar2) {
		t.Fatal("run shapes differ")
	}
	for i := range ls1 {
		if ls1[i] != ls2[i] {
			t.Fatalf("link %d differs: %+v vs %+v", i, ls1[i], ls2[i])
		}
	}
	for i := range ar1 {
		if ar1[i] != ar2[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, ar1[i], ar2[i])
		}
	}
}
