package msg

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

func newTestLayer(env *sim.Env) *Layer {
	fabric := topo.FlatSpec().Build(env, "fabric", 56, 1500*sim.Nanosecond)
	return NewLayer(env, fabric, DefaultParams())
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
