package msg

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

func newTestLayer(env *sim.Env) *Layer {
	fabric := topo.FlatSpec().Build(env, "fabric", 56, 1500*sim.Nanosecond)
	return NewLayer(env, fabric)
}

func TestSendDelivers(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	var got *Message
	l.Handle(1, "dsm", func(m *Message) { got = m })
	l.Send(0, 1, "dsm", "page_req", 32, "payload")
	env.Run()
	if got == nil {
		t.Fatal("message not delivered")
	}
	if got.From != 0 || got.To != 1 || got.Kind != "page_req" || got.Payload != "payload" {
		t.Fatalf("message = %+v", got)
	}
}

func TestCallRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	l.Handle(1, "dsm", func(m *Message) {
		m.Reply(4096, "page-data")
	})
	var reply *Message
	var rtt sim.Time
	env.Spawn("caller", func(p *sim.Proc) {
		start := p.Now()
		reply = l.Call(p, 0, 1, "dsm", "page_req", 32, nil)
		rtt = p.Now() - start
	})
	env.Run()
	if reply == nil || reply.Payload != "page-data" {
		t.Fatalf("reply = %+v", reply)
	}
	if reply.From != 1 || reply.To != 0 || reply.Kind != "page_req.reply" {
		t.Fatalf("reply header = %+v", reply)
	}
	// RTT must include two fabric latencies plus both serializations and
	// handler costs: strictly more than 2x1.5us.
	if rtt <= 3*sim.Microsecond {
		t.Fatalf("rtt = %v, implausibly fast", rtt)
	}
	if rtt > 20*sim.Microsecond {
		t.Fatalf("rtt = %v, implausibly slow", rtt)
	}
}

func TestLocalDeliverySkipsFabric(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	l.Handle(0, "svc", func(m *Message) { m.Reply(0, nil) })
	var rtt sim.Time
	env.Spawn("caller", func(p *sim.Proc) {
		start := p.Now()
		l.Call(p, 0, 0, "svc", "ping", 0, nil)
		rtt = p.Now() - start
	})
	env.Run()
	if fab := l.Net().Stats(); fab.Messages != 0 {
		t.Fatalf("local call used fabric: %+v", fab)
	}
	if rtt > 2*sim.Microsecond {
		t.Fatalf("local rtt = %v", rtt)
	}
}

func TestReplyToOneWayPanics(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	l.Handle(1, "svc", func(m *Message) {
		defer func() {
			if recover() == nil {
				t.Error("Reply to one-way message did not panic")
			}
		}()
		m.Reply(0, nil)
	})
	l.Send(0, 1, "svc", "notify", 8, nil)
	env.Run()
}

func TestDuplicateReplyPanics(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	l.Handle(1, "svc", func(m *Message) {
		m.Reply(0, nil)
		defer func() {
			if recover() == nil {
				t.Error("duplicate Reply did not panic")
			}
		}()
		m.Reply(0, nil)
	})
	env.Spawn("caller", func(p *sim.Proc) { l.Call(p, 0, 1, "svc", "x", 0, nil) })
	env.Run()
}

func TestUnroutedMessagePanics(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	l.Send(0, 1, "ghost", "x", 0, nil)
	defer func() {
		if recover() == nil {
			t.Error("unrouted message did not panic")
		}
	}()
	env.Run()
}

func TestStatsPerService(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	l.Handle(1, "a", func(m *Message) {})
	l.Handle(1, "b", func(m *Message) {})
	l.Send(0, 1, "a", "x", 100, nil)
	l.Send(0, 1, "a", "x", 50, nil)
	l.Send(0, 1, "b", "y", 10, nil)
	env.Run()
	if s := l.Stats("a"); s.Messages != 2 || s.Bytes != 150 {
		t.Fatalf("service a stats = %+v", s)
	}
	if s := l.Stats("b"); s.Messages != 1 || s.Bytes != 10 {
		t.Fatalf("service b stats = %+v", s)
	}
	if s := l.Stats("none"); s.Messages != 0 {
		t.Fatalf("unused service stats = %+v", s)
	}
}

func TestManyConcurrentCalls(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	served := 0
	l.Handle(1, "svc", func(m *Message) {
		served++
		m.Reply(64, served)
	})
	done := 0
	for i := 0; i < 20; i++ {
		env.Spawn("caller", func(p *sim.Proc) {
			if r := l.Call(p, 0, 1, "svc", "req", 16, nil); r != nil {
				done++
			}
		})
	}
	env.Run()
	if served != 20 || done != 20 {
		t.Fatalf("served=%d done=%d", served, done)
	}
}

// TestDeliveryAllocatesOnlyTheMessage: a message schedules itself on
// pooled timers, so once the endpoints, stats and timer pool are warm a
// cross-node Send allocates only its Message, and a Call round trip only
// the request, its reply event and the reply.
func TestDeliveryAllocatesOnlyTheMessage(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	l.Handle(1, "svc", func(m *Message) {
		if m.Kind == "req" {
			m.Reply(8, nil)
		}
	})
	send := testing.AllocsPerRun(1000, func() {
		l.Send(0, 1, "svc", "note", 16, nil)
		env.Run()
	})
	if send != 1 {
		t.Errorf("cross-node Send allocates %v times, want 1 (the Message)", send)
	}
	// One long-lived caller makes a Call per queued item, so round trips
	// run one at a time without a Spawn each.
	q := sim.NewQueue[struct{}](env)
	env.Spawn("caller", func(p *sim.Proc) {
		for {
			q.Get(p)
			l.Call(p, 0, 1, "svc", "req", 16, nil)
		}
	})
	call := testing.AllocsPerRun(1000, func() {
		q.Put(struct{}{})
		env.Run()
	})
	if call > 3 {
		t.Errorf("Call round trip allocates %v times, want at most 3", call)
	}
	if got := l.Stats("svc").Messages; got != 1001+2*1001 {
		t.Errorf("delivered %d messages, want %d", got, 1001+2*1001)
	}
}

// BenchmarkMsgCall measures one cross-node Call round trip: request and
// reply through the fabric, handler latency at both ends, and the wake
// of the blocked caller.
func BenchmarkMsgCall(b *testing.B) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	l.Handle(1, "svc", func(m *Message) { m.Reply(8, nil) })
	b.ReportAllocs()
	b.ResetTimer()
	env.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			l.Call(p, 0, 1, "svc", "req", 16, nil)
		}
	})
	env.Run()
}
