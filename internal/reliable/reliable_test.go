package reliable

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
	"repro/internal/topo"
)

// scriptFilter drops/delays fabric frames according to a scripted verdict
// function, and duplicates data frames per an optional message-level one;
// a nil function passes everything.
type scriptFilter struct {
	fn    func(from, to, size int) topo.Outcome
	msgFn func(from, to int) topo.MsgOutcome
}

func (s *scriptFilter) Outcome(from, to, size int) topo.Outcome {
	if s.fn == nil {
		return topo.Outcome{}
	}
	return s.fn(from, to, size)
}

func (s *scriptFilter) MsgOutcome(from, to int) topo.MsgOutcome {
	if s.msgFn == nil {
		return topo.MsgOutcome{}
	}
	return s.msgFn(from, to)
}

func newFabric(env *sim.Env) *topo.Fabric {
	return topo.FlatSpec().Build(env, "test", 56, 5*sim.Microsecond)
}

// counter returns a delivery callback counting its calls into n.
func counter(n *int) func(any) { return func(any) { *n++ } }

// TestZeroFaultFastPath: with no fault filter installed, Post is one
// fabric frame and zero acks — the delivery time must equal the raw
// fabric's, so fault-free runs stay byte-identical to pre-transport code.
func TestZeroFaultFastPath(t *testing.T) {
	env := sim.NewEnv()
	fab := newFabric(env)
	tr := New(env, fab)
	want := fab.PathTime(0, 1, 4096)
	var done sim.Time
	tr.Post(0, 0, 1, 4096, 0, func(any) { done = env.Now() }, nil)
	env.Run()
	if done != want {
		t.Fatalf("fast-path Post delivered at %v, want raw delivery time %v", done, want)
	}
	if st := tr.Stats(); st != (Stats{}) {
		t.Fatalf("fast path charged protocol overhead: %+v", st)
	}
	if s := fab.Stats(); s.Messages != 1 {
		t.Fatalf("fast path put %d messages on the fabric, want 1", s.Messages)
	}
}

// TestLocalSendSkipsFabric: a same-node Post is delivered at once without
// touching the fabric, and is dropped, counted in LocalDropped, when the
// fault filter rules its node crashed.
func TestLocalSendSkipsFabric(t *testing.T) {
	for _, crashed := range []bool{false, true} {
		env := sim.NewEnv()
		fab := newFabric(env)
		fab.SetFilter(&scriptFilter{msgFn: func(from, to int) topo.MsgOutcome {
			return topo.MsgOutcome{Drop: crashed && from == 2}
		}})
		tr := New(env, fab)
		delivered := 0
		env.At(sim.Millisecond, func() {
			tr.Post(0, 2, 2, 64, 0, func(any) {
				if env.Now() != sim.Millisecond {
					t.Errorf("local post delivered at %v, want %v", env.Now(), sim.Millisecond)
				}
				delivered++
			}, nil)
		})
		env.Run()
		if want := 1 - btoi(crashed); delivered != want {
			t.Fatalf("crashed=%v: delivered %d times, want %d", crashed, delivered, want)
		}
		if want := int64(btoi(crashed)); tr.Stats() != (Stats{LocalDropped: want}) {
			t.Fatalf("crashed=%v: stats %+v, want only LocalDropped=%d", crashed, tr.Stats(), want)
		}
		if s := fab.Stats(); s.Messages != 0 {
			t.Fatalf("crashed=%v: local post touched the fabric: %+v", crashed, s)
		}
	}
}

// TestRetransmitThroughLoss: dropping the first two data frames of a flow
// must cost two retransmissions and still deliver exactly once.
func TestRetransmitThroughLoss(t *testing.T) {
	env := sim.NewEnv()
	fab := newFabric(env)
	drops := 2
	fab.SetFilter(&scriptFilter{fn: func(from, to, size int) topo.Outcome {
		if from == 0 && to == 1 && drops > 0 {
			drops--
			return topo.Outcome{Drop: true}
		}
		return topo.Outcome{}
	}})
	tr := New(env, fab)
	delivered := 0
	tr.Post(0, 0, 1, 4096, 0, counter(&delivered), nil)
	env.Run()
	st := tr.Stats()
	if st.Retransmits != 2 {
		t.Fatalf("retransmits = %d, want 2 (stats %+v)", st.Retransmits, st)
	}
	if delivered != 1 || st.Delivered != 1 {
		t.Fatalf("delivered %d times (stats %+v), want exactly once", delivered, st)
	}
}

// TestLostAckReAcks: when the data frame arrives but its ack is lost, the
// retransmitted duplicate must be suppressed by the receive window yet
// still re-acked — otherwise the sender retries into a window that
// silently discards everything and never hears of a delivered message.
func TestLostAckReAcks(t *testing.T) {
	env := sim.NewEnv()
	fab := newFabric(env)
	ackDrops := 1
	fab.SetFilter(&scriptFilter{fn: func(from, to, size int) topo.Outcome {
		if from == 1 && to == 0 && ackDrops > 0 { // reverse path: the ack
			ackDrops--
			return topo.Outcome{Drop: true}
		}
		return topo.Outcome{}
	}})
	tr := New(env, fab)
	delivered := 0
	tr.Post(0, 0, 1, 4096, 0, counter(&delivered), nil)
	env.Run()
	st := tr.Stats()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly once (stats %+v)", delivered, st)
	}
	if st.DupsSuppressed != 1 || st.Acks != 2 {
		t.Fatalf("want 1 suppressed dup re-acked (2 acks), got %+v", st)
	}
}

// TestRetriesEndOnAckOrFence: retransmission has no attempt cap. Through
// total loss a message keeps retrying, its RTO capped, until MarkDead
// fences the peer: no frame is put on the fabric afterwards, the message
// is abandoned undelivered, and the flow is freed. A message that is
// acknowledged stops retransmitting at once, and one toward a fenced node
// is abandoned without touching the fabric.
func TestRetriesEndOnAckOrFence(t *testing.T) {
	env := sim.NewEnv()
	fab := newFabric(env)
	fab.SetFilter(&scriptFilter{fn: func(from, to, size int) topo.Outcome {
		return topo.Outcome{Drop: to == 1}
	}})
	tr := New(env, fab)
	const fenceAt = sim.Second
	var lost, acked, late int
	var framesAtFence int64
	tr.Post(0, 0, 1, 4096, 0, counter(&lost), nil)
	tr.Post(0, 0, 2, 4096, 0, counter(&acked), nil)
	env.At(fenceAt, func() {
		framesAtFence = tr.Stats().Frames
		tr.MarkDead(1)
	})
	env.At(2*fenceAt, func() { tr.Post(0, 1, 0, 64, 0, counter(&late), nil) })
	env.Run()
	if lost != 0 || late != 0 || acked != 1 {
		t.Fatalf("deliveries lost=%d late=%d acked=%d, want 0, 0, 1", lost, late, acked)
	}
	st := tr.Stats()
	// Capped backoff over a second of total loss: well over the old
	// six-attempt cap, then nothing after the fence.
	if framesAtFence < 20 || st.Frames != framesAtFence {
		t.Fatalf("%d frames by the fence, %d in all (stats %+v)", framesAtFence, st.Frames, st)
	}
	if st.Sent != 3 || st.Delivered != 1 || st.Abandoned != 2 || st.Retransmits != st.Frames-2 {
		t.Fatalf("stats %+v, want 3 sent, 1 delivered, 2 abandoned, the acked send retransmitted never", st)
	}
	if flows, _ := tr.Flows(); flows != 1 {
		t.Fatalf("%d flows hold state, want only 0→2's", flows)
	}
	if len(tr.live) != 0 {
		t.Fatalf("%d frames unresolved after the fence", len(tr.live))
	}
}

// TestInjectedDuplicatesSuppressed: DupMessages interop — an injector
// duplicating data frames must not double-deliver.
func TestInjectedDuplicatesSuppressed(t *testing.T) {
	env := sim.NewEnv()
	fab := newFabric(env)
	// Filter installed: slow path, no drops, one DupMessages-style
	// duplicate of the first data frame.
	dups := 1
	fab.SetFilter(&scriptFilter{msgFn: func(from, to int) topo.MsgOutcome {
		if dups > 0 {
			dups--
			return topo.MsgOutcome{Duplicate: true}
		}
		return topo.MsgOutcome{}
	}})
	tr := New(env, fab)
	delivered := 0
	tr.Post(0, 0, 1, 4096, 0, counter(&delivered), nil)
	env.Run()
	st := tr.Stats()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly once (stats %+v)", delivered, st)
	}
	if st.DupFrames != 1 || st.DupsSuppressed != 1 {
		t.Fatalf("want the injected dup counted and suppressed, got %+v", st)
	}
}

// faultSchedule is the quick-generated shape of one lossy-then-healed
// run: the first Window frames offered to the fabric are ruled on with
// the given per-mille probabilities, everything afterwards passes clean.
type faultSchedule struct {
	Seed     uint64
	DropPct  uint16 // ‰ of ruled frames dropped
	DupPct   uint16 // ‰ of data frames duplicated at the message layer
	DelayPct uint16 // ‰ of ruled frames delayed
	Window   uint16 // frames ruled on before the fault heals
}

func (f faultSchedule) normalize() faultSchedule {
	f.DropPct %= 700 // ≤70% loss
	f.DupPct %= 500
	f.DelayPct %= 500
	f.Window = 20 + f.Window%120
	return f
}

// splitmix is a tiny deterministic PRNG for the scripted filters.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}
func (r *splitmix) permille(p uint16) bool { return r.next()%1000 < uint64(p) }

// TestQuickExactlyOnceInOrder is the transport's core property: under any
// seeded schedule of drops, duplicates, and delays that eventually heals,
// every message is delivered and acknowledged, and the receiver observes
// every payload exactly once, in the order of senders that wait for each
// delivery before posting the next.
func TestQuickExactlyOnceInOrder(t *testing.T) {
	const senders, msgs = 3, 8
	prop := func(raw faultSchedule) bool {
		f := raw.normalize()
		env := sim.NewEnv()
		fab := newFabric(env)
		frng := &splitmix{s: f.Seed}
		ruled := uint16(0)
		drng := &splitmix{s: f.Seed ^ 0xdeadbeef}
		dupsLeft := f.Window
		fab.SetFilter(&scriptFilter{fn: func(from, to, size int) topo.Outcome {
			if ruled >= f.Window {
				return topo.Outcome{} // healed
			}
			ruled++
			if frng.permille(f.DropPct) {
				return topo.Outcome{Drop: true}
			}
			if frng.permille(f.DelayPct) {
				return topo.Outcome{Delay: sim.Time(1+frng.next()%50) * sim.Microsecond}
			}
			return topo.Outcome{}
		}, msgFn: func(from, to int) topo.MsgOutcome {
			if dupsLeft > 0 && drng.permille(f.DupPct) {
				dupsLeft--
				return topo.MsgOutcome{Duplicate: true}
			}
			return topo.MsgOutcome{}
		}})
		tr := New(env, fab)
		tr.rng = rngState(int64(f.Seed))

		got := make([][]int, senders+1)
		for s := 1; s <= senders; s++ {
			s := s
			env.Spawn(fmt.Sprintf("sender%d", s), func(p *sim.Proc) {
				for i := 0; i < msgs; i++ {
					arrived := new(sim.Event)
					tr.Post(0, s, 0, 2048, 0, func(a any) {
						got[s] = append(got[s], a.(int))
						if !arrived.Fired() {
							arrived.Fire()
						}
					}, i)
					p.Wait(arrived)
				}
			})
		}
		env.Run()
		if live := env.LiveProcs(); len(live) != 0 {
			t.Logf("schedule %+v wedged: %v", f, live)
			return false
		}
		if st := tr.Stats(); st.Delivered != st.Sent || len(tr.live) != 0 {
			t.Logf("schedule %+v: stats %+v, %d frames unacknowledged", f, st, len(tr.live))
			return false
		}
		for s := 1; s <= senders; s++ {
			if len(got[s]) != msgs {
				t.Logf("schedule %+v: sender %d delivered %d/%d: %v", f, s, len(got[s]), msgs, got[s])
				return false
			}
			for i, v := range got[s] {
				if v != i {
					t.Logf("schedule %+v: sender %d out of order at %d: %v", f, s, i, got[s])
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDeterministicJitter: two transports with the same seed must retry
// at identical times; a different seed must diverge. The jitter stream is
// part of the simulation's determinism contract.
func TestDeterministicJitter(t *testing.T) {
	run := func(seed int64) sim.Time {
		env := sim.NewEnv()
		fab := newFabric(env)
		drops := 3
		fab.SetFilter(&scriptFilter{fn: func(from, to, size int) topo.Outcome {
			if drops > 0 {
				drops--
				return topo.Outcome{Drop: true}
			}
			return topo.Outcome{}
		}})
		tr := New(env, fab)
		tr.rng = rngState(seed)
		var done sim.Time
		tr.Post(0, 0, 1, 4096, 0, func(any) { done = env.Now() }, nil)
		env.Run()
		return done
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
	if c := run(8); c == a {
		t.Fatalf("different seeds produced identical retry timing %v (jitter inert?)", a)
	}
}

// TestRTOTracksPathTime: the initial RTO must be at least twice the
// fabric's honest one-way path time for the data size — an RTO that
// undercuts the real delivery time retransmits frames that were never
// lost (the livelock this transport once caused on bulk chunks).
func TestRTOTracksPathTime(t *testing.T) {
	env := sim.NewEnv()
	fab := newFabric(env)
	tr := New(env, fab)
	const size = 16 << 20
	if got, floor := tr.rto(0, 1, size), 2*fab.PathTime(0, 1, size); got < floor {
		t.Fatalf("rto(16MB) = %v undercuts 2×PathTime = %v", got, floor)
	}
}

// TestNoDedupHookBreaksExactlyOnce: dropping the first ack forces a
// retransmission, so the receiver sees the data frame twice. With dedup
// (the fixed behavior) the duplicate is suppressed; with the fabric's
// NoDedup hook it counts as delivered again and Delivered exceeds Sent —
// the violation the chaos engine's exactly-once oracle looks for. The
// payload reaches its callback once either way.
func TestNoDedupHookBreaksExactlyOnce(t *testing.T) {
	for _, noDedup := range []bool{false, true} {
		env := sim.NewEnv()
		fab := newFabric(env)
		acksDropped := 0
		fab.SetFilter(&scriptFilter{fn: func(from, to, size int) topo.Outcome {
			if from == 1 && to == 0 && acksDropped == 0 {
				acksDropped++
				return topo.Outcome{Drop: true}
			}
			return topo.Outcome{}
		}})
		fab.SetTestHooks(topo.TestHooks{NoDedup: noDedup})
		tr := New(env, fab)
		handled := 0
		tr.Post(0, 0, 1, 1024, 0, counter(&handled), nil)
		env.Run()
		st := tr.Stats()
		if st.Sent != 1 || st.Retransmits != 1 || st.DupsSuppressed != 1 || handled != 1 {
			t.Fatalf("noDedup=%v: stats %+v handled %d, want 1 send, 1 retransmit suppressed, 1 handling", noDedup, st, handled)
		}
		if want := int64(1 + btoi(noDedup)); st.Delivered != want {
			t.Fatalf("noDedup=%v: delivered %d, want %d", noDedup, st.Delivered, want)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestPostDeliversAfterLat: deliver runs lat after the first copy
// arrives, exactly once, on each of Post's paths — loopback, fault-free,
// and faulted, where a DupMessages copy and a retransmit must still
// deliver once. Each case runs with lat 0 and with lat, and the delivery
// must move by exactly lat.
func TestPostDeliversAfterLat(t *testing.T) {
	const lat = 700 * sim.Nanosecond
	cases := []struct {
		name     string
		from, to int
		filter   func() topo.Filter // nil: fault-free
	}{
		{"loopback", 1, 1, nil},
		{"fault-free", 0, 1, nil},
		{"faulted", 0, 1, func() topo.Filter { return &scriptFilter{} }},
		{"faulted-dup", 0, 1, func() topo.Filter {
			dups := 1
			return &scriptFilter{msgFn: func(from, to int) topo.MsgOutcome {
				dups--
				return topo.MsgOutcome{Duplicate: dups == 0}
			}}
		}},
		{"faulted-retransmit", 0, 1, func() topo.Filter {
			drops := 1
			return &scriptFilter{fn: func(from, to, size int) topo.Outcome {
				drops--
				return topo.Outcome{Drop: from == 0 && drops == 0}
			}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			run := func(l sim.Time) (at sim.Time, n int, st Stats) {
				env := sim.NewEnv()
				fab := newFabric(env)
				if c.filter != nil {
					fab.SetFilter(c.filter())
				}
				tr := New(env, fab)
				tr.Post(0, c.from, c.to, 4096, l, func(any) { at, n = env.Now(), n+1 }, nil)
				env.Run()
				return at, n, tr.Stats()
			}
			base, n0, _ := run(0)
			at, n, st := run(lat)
			if n0 != 1 || n != 1 {
				t.Fatalf("delivered %d times with lat 0 and %d with lat %v, want once each (stats %+v)", n0, n, lat, st)
			}
			if at != base+lat {
				t.Errorf("delivered at %v with lat %v, want %v: arrival %v plus lat", at, lat, base+lat, base)
			}
			switch c.name {
			case "faulted-dup":
				if st.DupFrames != 1 || st.DupsSuppressed != 1 {
					t.Errorf("stats %+v, want the injected copy suppressed", st)
				}
			case "faulted-retransmit":
				if st.Retransmits != 1 {
					t.Errorf("stats %+v, want one retransmit", st)
				}
			}
		})
	}
}
