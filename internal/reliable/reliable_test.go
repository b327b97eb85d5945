package reliable

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topo"
)

// newFast returns a transport whose RTOs are tight enough for retries to
// resolve in simulated microseconds instead of the bulk-sized production
// pad; the attempt budget stays the production one.
func newFast(env *sim.Env, fab *topo.Fabric) *Transport {
	tr := New(env, fab)
	tr.retry.slack = 10 * sim.Microsecond
	tr.retry.maxRTO = sim.Millisecond
	return tr
}

// scriptFilter drops/delays fabric frames according to a scripted verdict
// function, and duplicates data frames per an optional message-level one;
// a nil function passes everything.
type scriptFilter struct {
	fn    func(from, to, size int) topo.Outcome
	msgFn func(from, to int, service, kind string) msg.MsgOutcome
}

func (s *scriptFilter) Outcome(from, to, size int) topo.Outcome {
	if s.fn == nil {
		return topo.Outcome{}
	}
	return s.fn(from, to, size)
}

func (s *scriptFilter) MsgOutcome(from, to int, service, kind string) msg.MsgOutcome {
	if s.msgFn == nil {
		return msg.MsgOutcome{}
	}
	return s.msgFn(from, to, service, kind)
}

func newFabric(env *sim.Env) *topo.Fabric {
	return topo.FlatSpec().Build(env, "test", 56, 5*sim.Microsecond)
}

// TestZeroFaultFastPath: with no fault filter installed, Send is one
// fabric frame and zero acks — the delivery time must equal the raw
// fabric's, so fault-free runs stay byte-identical to pre-transport code.
func TestZeroFaultFastPath(t *testing.T) {
	env := sim.NewEnv()
	fab := newFabric(env)
	tr := newFast(env, fab)
	var done, want sim.Time
	env.Spawn("send", func(p *sim.Proc) {
		want = fab.PathTime(0, 1, 4096)
		if err := tr.Send(p, 0, 1, 4096); err != nil {
			t.Errorf("fault-free Send failed: %v", err)
		}
		done = p.Now()
	})
	env.Run()
	if done != want {
		t.Fatalf("fast-path Send resolved at %v, want raw delivery time %v", done, want)
	}
	st := tr.Stats()
	if st.Frames != 1 || st.Acks != 0 || st.Retransmits != 0 {
		t.Fatalf("fast path charged protocol overhead: %+v", st)
	}
	if st.Delivered != 1 {
		t.Fatalf("delivered %d, want 1", st.Delivered)
	}
}

// TestLocalSendSkipsFabric: same-node sends deliver immediately without
// touching the fabric, mirroring the messaging layer's local short-circuit.
func TestLocalSendSkipsFabric(t *testing.T) {
	env := sim.NewEnv()
	fab := newFabric(env)
	tr := newFast(env, fab)
	got := -1
	tr.Handle(2, func(from int, payload any) { got = payload.(int) })
	env.Spawn("send", func(p *sim.Proc) {
		if err := tr.SendCtx(p, 0, 2, 2, 64, 7); err != nil {
			t.Errorf("local send failed: %v", err)
		}
		if p.Now() != 0 {
			t.Errorf("local send took %v, want 0", p.Now())
		}
	})
	env.Run()
	if got != 7 {
		t.Fatalf("local payload not delivered, got %d", got)
	}
	if s := fab.Stats(); s.Messages != 0 {
		t.Fatalf("local send touched the fabric: %+v", s)
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
	tr := newFast(env, fab)
	delivered := 0
	tr.Handle(1, func(from int, payload any) { delivered++ })
	env.Spawn("send", func(p *sim.Proc) {
		if err := tr.SendCtx(p, 0, 0, 1, 4096, "x"); err != nil {
			t.Errorf("Send through loss failed: %v", err)
		}
	})
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
// silently discards everything and gives up on a delivered message.
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
	tr := newFast(env, fab)
	delivered := 0
	tr.Handle(1, func(from int, payload any) { delivered++ })
	env.Spawn("send", func(p *sim.Proc) {
		if err := tr.Send(p, 0, 1, 4096); err != nil {
			t.Errorf("Send with lost ack failed: %v", err)
		}
	})
	env.Run()
	st := tr.Stats()
	if delivered != 1 {
		t.Fatalf("delivered %d times, want exactly once (stats %+v)", delivered, st)
	}
	if st.DupsSuppressed != 1 || st.Acks != 2 {
		t.Fatalf("want 1 suppressed dup re-acked (2 acks), got %+v", st)
	}
}

// TestUnreachableAfterMaxAttempts: total loss must surface a typed
// *UnreachableError after exactly maxAttempts frames — bounded, never a
// wedge — and the error must match ErrUnreachable.
func TestUnreachableAfterMaxAttempts(t *testing.T) {
	env := sim.NewEnv()
	fab := newFabric(env)
	fab.SetFilter(&scriptFilter{fn: func(from, to, size int) topo.Outcome {
		return topo.Outcome{Drop: true}
	}})
	tr := newFast(env, fab)
	var err error
	env.Spawn("send", func(pr *sim.Proc) {
		err = tr.Send(pr, 0, 1, 4096)
	})
	env.Run()
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
	var ue *UnreachableError
	if !errors.As(err, &ue) || ue.Attempts != maxAttempts || ue.To != 1 {
		t.Fatalf("unexpected typed error: %#v", err)
	}
	st := tr.Stats()
	if st.Frames != maxAttempts || st.Unreachable != 1 {
		t.Fatalf("want %d frames then unreachable, got %+v", maxAttempts, st)
	}
	if live := env.LiveProcs(); len(live) != 0 {
		t.Fatalf("sender wedged: %v", live)
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
	fab.SetFilter(&scriptFilter{msgFn: func(from, to int, service, kind string) msg.MsgOutcome {
		if service == "reliable" && dups > 0 {
			dups--
			return msg.MsgOutcome{Duplicate: true}
		}
		return msg.MsgOutcome{}
	}})
	tr := newFast(env, fab)
	delivered := 0
	tr.Handle(1, func(from int, payload any) { delivered++ })
	env.Spawn("send", func(p *sim.Proc) {
		if err := tr.Send(p, 0, 1, 4096); err != nil {
			t.Errorf("Send with injected dup failed: %v", err)
		}
	})
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
	f.DropPct %= 700 // ≤70% loss: give-up within 20 attempts is vanishing
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
// every blocking Send completes, and each receiver observes every payload
// exactly once, in per-sender order.
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
		}, msgFn: func(from, to int, service, kind string) msg.MsgOutcome {
			if dupsLeft > 0 && drng.permille(f.DupPct) {
				dupsLeft--
				return msg.MsgOutcome{Duplicate: true}
			}
			return msg.MsgOutcome{}
		}})
		tr := newFast(env, fab)
		tr.retry.attempts = 20
		tr.rng = rngState(int64(f.Seed))

		got := make([][]int, senders+1)
		tr.Handle(0, func(from int, payload any) {
			got[from] = append(got[from], payload.(int))
		})
		ok := true
		for s := 1; s <= senders; s++ {
			s := s
			env.Spawn(fmt.Sprintf("sender%d", s), func(p *sim.Proc) {
				for i := 0; i < msgs; i++ {
					if err := tr.SendCtx(p, 0, s, 0, 2048, i); err != nil {
						t.Logf("schedule %+v: sender %d msg %d: %v", f, s, i, err)
						ok = false
						return
					}
				}
			})
		}
		env.Run()
		if live := env.LiveProcs(); len(live) != 0 {
			t.Logf("schedule %+v wedged: %v", f, live)
			return false
		}
		if !ok {
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
		tr := newFast(env, fab)
		tr.rng = rngState(seed)
		var done sim.Time
		env.Spawn("send", func(pr *sim.Proc) {
			if err := tr.Send(pr, 0, 1, 4096); err != nil {
				t.Errorf("seed %d: %v", seed, err)
			}
			done = pr.Now()
		})
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
	tr := newFast(env, fab)
	const size = 16 << 20
	if got, floor := tr.rto(0, 1, size), 2*fab.PathTime(0, 1, size); got < floor {
		t.Fatalf("rto(16MB) = %v undercuts 2×PathTime = %v", got, floor)
	}
}

// TestNoDedupHookBreaksExactlyOnce: dropping the first ack forces a
// retransmission, so the receiver sees the data frame twice. With
// dedup (the fixed behavior) the duplicate is suppressed; with the
// NoDedup hook the payload delivers twice and Delivered exceeds Sent —
// the violation the chaos engine's exactly-once oracle looks for.
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
		tr := newFast(env, fab)
		tr.SetTestHooks(TestHooks{NoDedup: noDedup})
		handled := 0
		tr.Handle(1, func(from int, payload any) { handled++ })
		env.Spawn("send", func(p *sim.Proc) {
			if err := tr.Send(p, 0, 1, 1024); err != nil {
				t.Errorf("send failed: %v", err)
			}
		})
		env.Run()
		st := tr.Stats()
		if st.Sent != 1 || st.Retransmits != 1 {
			t.Fatalf("noDedup=%v: stats %+v, want 1 send 1 retransmit", noDedup, st)
		}
		if noDedup {
			if st.Delivered != 2 || handled != 2 {
				t.Fatalf("hooked transport delivered %d (handled %d), want duplicated delivery", st.Delivered, handled)
			}
		} else {
			if st.Delivered != 1 || handled != 1 || st.DupsSuppressed != 1 {
				t.Fatalf("fixed transport stats %+v handled %d, want exactly-once", st, handled)
			}
		}
	}
}
