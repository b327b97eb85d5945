package msg

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

func newTestLayer(env *sim.Env) *Layer {
	fabric := topo.FlatSpec().Build(env, "fabric", 56, 1500*sim.Nanosecond)
	return NewLayer(env, fabric)
}

func TestSendDelivers(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	dsm := l.Register("dsm")
	// The layer recycles a one-way message once its handler returns, so
	// the handler copies what it checks.
	var got []Message
	dsm.Handle(1, func(m *Message) {
		got = append(got, Message{From: m.From, To: m.To, Service: m.Service, Kind: m.Kind, Size: m.Size, Payload: m.Payload})
	})
	l.Send(0, 0, 1, dsm, "page_req", 32, "payload")
	env.Run()
	if len(got) != 1 {
		t.Fatalf("message delivered %d times, want once", len(got))
	}
	if m := got[0]; m.From != 0 || m.To != 1 || m.Service != dsm || m.Kind != "page_req" || m.Size != 32 || m.Payload != "payload" {
		t.Fatalf("message = %+v", m)
	}
}

func TestCallRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	dsm := l.Register("dsm")
	dsm.Handle(1, func(m *Message) {
		m.Reply(4096, "page-data")
	})
	var reply *Message
	var rtt sim.Time
	env.Spawn("caller", func(p *sim.Proc) {
		start := p.Now()
		reply, _ = l.Call(p, 0, 1, dsm, "page_req", 32, nil)
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
	svc := l.Register("svc")
	svc.Handle(0, func(m *Message) { m.Reply(0, nil) })
	var rtt sim.Time
	env.Spawn("caller", func(p *sim.Proc) {
		start := p.Now()
		l.Call(p, 0, 0, svc, "ping", 0, nil)
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
	svc := l.Register("svc")
	svc.Handle(1, func(m *Message) {
		defer func() {
			if recover() == nil {
				t.Error("Reply to one-way message did not panic")
			}
		}()
		m.Reply(0, nil)
	})
	l.Send(0, 0, 1, svc, "notify", 8, nil)
	env.Run()
}

func TestDuplicateReplyPanics(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	svc := l.Register("svc")
	svc.Handle(1, func(m *Message) {
		m.Reply(0, nil)
		defer func() {
			if recover() == nil {
				t.Error("duplicate Reply did not panic")
			}
		}()
		m.Reply(0, nil)
	})
	env.Spawn("caller", func(p *sim.Proc) { _, _ = l.Call(p, 0, 1, svc, "x", 0, nil) })
	env.Run()
}

func TestUnroutedMessagePanics(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	ghost := l.Register("ghost")
	l.Send(0, 0, 1, ghost, "x", 0, nil)
	defer func() {
		if recover() == nil {
			t.Error("unrouted message did not panic")
		}
	}()
	env.Run()
}

func TestManyConcurrentCalls(t *testing.T) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	svc := l.Register("svc")
	served := 0
	svc.Handle(1, func(m *Message) {
		served++
		m.Reply(64, served)
	})
	done := 0
	for i := 0; i < 20; i++ {
		env.Spawn("caller", func(p *sim.Proc) {
			if r, err := l.Call(p, 0, 1, svc, "req", 16, nil); r != nil && err == nil {
				done++
			}
		})
	}
	env.Run()
	if served != 20 || done != 20 {
		t.Fatalf("served=%d done=%d", served, done)
	}
}

// dirFilter passes every frame and duplicates the data frames from one
// node (all of them, or only the first when once is set); drop, when set,
// rules on the fabric.
type dirFilter struct {
	from int
	once bool
	done bool
	drop func(from, to, size int) bool
}

func (f *dirFilter) Outcome(from, to, size int) topo.Outcome {
	return topo.Outcome{Drop: f.drop != nil && f.drop(from, to, size)}
}

func (f *dirFilter) MsgOutcome(from, to int) topo.MsgOutcome {
	dup := from == f.from && !(f.once && f.done)
	f.done = f.done || dup
	return topo.MsgOutcome{Duplicate: dup}
}

// TestDuplicatedCall: over a faulted fabric a duplicated frame — of the
// request or of the reply — reaches the transport twice but its message
// is handled once: the handler runs once, the call completes once, the
// copy is counted suppressed, and each delivery span is ended once, when
// the handler runs or the caller wakes.
func TestDuplicatedCall(t *testing.T) {
	for _, from := range []int{0, 1} {
		env := sim.NewEnv()
		tr := trace.NewSession().Attach(env, "dup")
		l := newTestLayer(env)
		svc := l.Register("svc")
		l.Net().SetFilter(&dirFilter{from: from})
		var ran []sim.Time
		svc.Handle(1, func(m *Message) {
			ran = append(ran, env.Now())
			m.Reply(8, nil)
		})
		completed := 0
		var woke sim.Time
		env.Spawn("caller", func(p *sim.Proc) {
			if _, err := l.Call(p, 0, 1, svc, "req", 16, nil); err == nil {
				completed++
			}
			woke = p.Now()
		})
		env.Run()

		if len(ran) != 1 || completed != 1 {
			t.Fatalf("frames from %d duplicated: handler ran %d times, call completed %d times; want 1 and 1",
				from, len(ran), completed)
		}
		if st := l.Transport().Stats(); st.DupFrames != 1 || st.DupsSuppressed != 1 || st.Delivered != 2 {
			t.Errorf("frames from %d duplicated: transport stats %+v, want 1 copy suppressed, 2 delivered", from, st)
		}
		ends := map[string]sim.Time{}
		for _, sp := range tr.Spans() {
			if sp.Name == "svc/req" || sp.Name == "svc/req.reply" {
				if _, seen := ends[sp.Name]; seen {
					t.Errorf("frames from %d duplicated: a second %s delivery span", from, sp.Name)
				}
				ends[sp.Name] = sp.End
			}
		}
		if ends["svc/req"] != ran[0] || ends["svc/req.reply"] != woke {
			t.Errorf("frames from %d duplicated: delivery spans end at %v, want request %v and reply %v",
				from, ends, ran[0], woke)
		}
	}
}

// TestDuplicateOfReusedReplyDropped: a duplicate of a reply frame, whose
// message is its request turned round, lands after the caller has moved
// on to its next call. The transport drops it, and the next call
// completes on its own reply.
func TestDuplicateOfReusedReplyDropped(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	l := newTestLayer(env)
	svc := l.Register("svc")
	l.Net().SetFilter(&dirFilter{from: 1, once: true})
	n := 0
	svc.Handle(1, func(m *Message) {
		n++
		m.Reply(8, n)
	})
	var got []any
	env.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			r, _ := l.Call(p, 0, 1, svc, "req", 16, nil)
			got = append(got, r.Payload)
		}
	})
	env.Run()
	if fmt.Sprint(got) != "[1 2]" {
		t.Fatalf("replies %v, want [1 2]", got)
	}
	if st := l.Transport().Stats(); st.DupFrames != 1 || st.DupsSuppressed != 1 {
		t.Errorf("transport stats %+v, want 1 duplicated and suppressed reply frame", st)
	}
}

// TestRetransmittedRequestAfterReply: the request's ack is lost, so its
// frame is retransmitted after the handler has already turned the message
// round into the reply, with From and To swapped. The copy is still
// deduplicated on the request's own flow: the handler runs once, the
// reply is not delivered again, and the caller's next call completes on
// its own reply.
func TestRetransmittedRequestAfterReply(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	l := newTestLayer(env)
	svc := l.Register("svc")
	frames := 0
	l.Net().SetFilter(&dirFilter{from: -1, drop: func(from, to, size int) bool {
		// The second frame on the fabric is the request's ack, sent
		// before the handler runs.
		frames++
		return frames == 2
	}})
	n := 0
	svc.Handle(1, func(m *Message) {
		n++
		m.Reply(8, n)
	})
	var got []any
	env.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			r, _ := l.Call(p, 0, 1, svc, "req", 16, nil)
			got = append(got, r.Payload)
			p.Sleep(20 * sim.Millisecond) // past the request's retransmission
		}
	})
	env.Run()
	if fmt.Sprint(got) != "[1 2]" || n != 2 {
		t.Fatalf("replies %v after %d handler runs, want [1 2] after 2", got, n)
	}
	if st := l.Transport().Stats(); st.Retransmits != 1 || st.DupsSuppressed != 1 || st.Delivered != st.Sent {
		t.Errorf("transport stats %+v, want the request retransmitted once and suppressed", st)
	}
}

// TestCallFailsOnFence: a Call toward a node that has stopped answering
// retransmits until MarkDead fences the node, then fails with
// ErrFenced; a message from the fenced node that was already in
// flight is not handled, and a Call toward it fails at once.
func TestCallFailsOnFence(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	l := newTestLayer(env)
	svc := l.Register("svc")
	l.Net().SetFilter(&dirFilter{from: -1, drop: func(from, to, size int) bool { return to == 1 }})
	svc.Handle(1, func(m *Message) { m.Reply(8, nil) })
	handled := 0
	svc.Handle(0, func(m *Message) { handled++ })
	var errs []error
	env.Spawn("caller", func(p *sim.Proc) {
		_, err := l.Call(p, 0, 1, svc, "req", 16, nil)
		errs = append(errs, err)
		_, err = l.Call(p, 0, 1, svc, "req", 16, nil)
		errs = append(errs, err)
	})
	env.At(sim.Second, func() {
		l.Send(0, 1, 0, svc, "note", 16, nil)
		l.MarkDead(1)
	})
	env.Run()
	if len(errs) != 2 || !errors.Is(errs[0], ErrFenced) || !errors.Is(errs[1], ErrFenced) {
		t.Fatalf("calls returned %v, want two fenced errors", errs)
	}
	if handled != 0 {
		t.Errorf("%d messages from the fenced node handled", handled)
	}
	if st := l.Transport().Stats(); st.Retransmits < 20 || st.Abandoned != 3 {
		t.Errorf("transport stats %+v, want retransmission until the fence, then 3 abandoned", st)
	}
	if live := env.LiveProcs(); len(live) != 0 {
		t.Errorf("procs wedged: %v", live)
	}
}

// TestWatchFromCallback: procs parked in Wait have their exchanges
// watched by timer callbacks, as a DSM fault's request is. One whose
// event fires on its own reports true; one a later MarkDead fences
// reports false at the fence's instant; one watched with an endpoint
// already fenced reports false at the watch's instant. Nothing is left
// watched, a fired event is never watched, and over a fault-free fabric
// Watch arms nothing.
func TestWatchFromCallback(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	l := newTestLayer(env)
	l.Net().SetFilter(&dirFilter{from: -1})
	var got []string
	waitOn := func(name string, ev *sim.Event) {
		env.Spawn(name, func(p *sim.Proc) {
			ok := l.Wait(p, ev)
			got = append(got, fmt.Sprintf("%s@%v:%v", name, p.Now(), ok))
		})
	}
	var replied, fenced, late sim.Event
	waitOn("replied", &replied)
	waitOn("fenced", &fenced)
	waitOn("late", &late)
	env.At(1, func() {
		l.Watch(&replied, 0, 1)
		l.Watch(&fenced, 0, 2)
	})
	env.At(2, replied.Fire)
	env.At(3, func() {
		l.MarkDead(2)
		l.Watch(&replied, 0, 2)
	})
	env.At(4, func() { l.Watch(&late, 2, 1) })
	env.Run()
	if want := "[replied@2ns:true fenced@3ns:false late@4ns:false]"; fmt.Sprint(got) != want {
		t.Errorf("waits ended %v, want %s", got, want)
	}
	if len(l.waits) != 0 {
		t.Errorf("%d exchanges still watched", len(l.waits))
	}
	free := newTestLayer(env)
	free.Watch(new(sim.Event), 0, 1)
	if len(free.waits) != 0 {
		t.Error("Watch armed a fence over a fault-free fabric")
	}
}

// TestReplyAfterHandlerReturns: a handler that replies later (the vCPU
// migration shape) ends the request's delivery span when it returns and
// the reply's when the caller wakes, each once. Replying a second time
// still panics.
func TestReplyAfterHandlerReturns(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	tr := trace.NewSession().Attach(env, "later")
	l := newTestLayer(env)
	svc := l.Register("svc")
	var handled, replied sim.Time
	svc.Handle(1, func(m *Message) {
		handled = env.Now()
		env.After(5*sim.Microsecond, func() {
			replied = env.Now()
			m.Reply(8, nil)
			if msg := panicOf(func() { m.Reply(8, nil) }); !strings.Contains(msg, "duplicate Reply") {
				t.Errorf("second Reply: panic %q, want a duplicate-Reply panic", msg)
			}
		})
	})
	var woke sim.Time
	env.Spawn("caller", func(p *sim.Proc) {
		_, _ = l.Call(p, 0, 1, svc, "req", 16, nil)
		woke = p.Now()
	})
	env.Run()
	spans := map[string][]trace.Span{}
	for _, sp := range tr.Spans() {
		spans[sp.Name] = append(spans[sp.Name], sp)
	}
	req, rep := spans["svc/req"], spans["svc/req.reply"]
	if len(req) != 1 || len(rep) != 1 {
		t.Fatalf("%d request and %d reply spans, want 1 each", len(req), len(rep))
	}
	if req[0].End != handled || rep[0].Start != replied || rep[0].End != woke || rep[0].Parent != req[0].ID {
		t.Errorf("request span %+v, reply span %+v; want the request ending at %v, the reply a child of it from %v to %v",
			req[0], rep[0], handled, replied, woke)
	}
}

// panicOf runs f and returns its panic message, or "" if it returned.
func panicOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestDeliveryAllocatesOnlyCallRequests: a message schedules itself on
// pooled timers and the layer recycles the messages of Send and
// CallThen, so once the endpoints, timer pool and free list are warm a
// cross-node Send and a CallThen round trip allocate nothing, and a Call
// round trip only its request, which carries its reply event and turns
// into the reply its caller keeps.
func TestDeliveryAllocatesOnlyCallRequests(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	l := newTestLayer(env)
	svc := l.Register("svc")
	handled := 0
	svc.Handle(1, func(m *Message) {
		handled++
		if m.Kind == "req" {
			m.Reply(8, nil)
		}
	})
	send := testing.AllocsPerRun(1000, func() {
		l.Send(0, 0, 1, svc, "note", 16, nil)
		env.Run()
	})
	if send != 0 {
		t.Errorf("cross-node Send allocates %v times, want 0", send)
	}
	replies := 0
	then := func(arg any, reply *Message, ok bool) {
		if ok {
			*arg.(*int)++
		}
	}
	callThen := testing.AllocsPerRun(1000, func() {
		l.CallThen(0, 0, 1, svc, "req", 16, nil, then, &replies)
		env.Run()
	})
	if callThen != 0 {
		t.Errorf("CallThen round trip allocates %v times, want 0", callThen)
	}
	if replies != 1001 {
		t.Errorf("%d CallThen continuations ran with a reply, want 1001", replies)
	}
	// One long-lived caller makes a Call per queued item, so round trips
	// run one at a time without a Spawn each.
	q := sim.NewQueue[struct{}](env)
	env.Spawn("caller", func(p *sim.Proc) {
		for {
			q.Get(p)
			_, _ = l.Call(p, 0, 1, svc, "req", 16, nil)
		}
	})
	call := testing.AllocsPerRun(1000, func() {
		q.Put(struct{}{})
		env.Run()
	})
	if call > 1 {
		t.Errorf("Call round trip allocates %v times, want at most 1 (the request)", call)
	}
	if handled != 3*1001 {
		t.Errorf("handled %d messages, want %d", handled, 3*1001)
	}
	if got := l.Net().Stats().Messages; got != 1001+2*1001+2*1001 {
		t.Errorf("fabric carried %d messages, want %d", got, 1001+2*1001+2*1001)
	}
}

// TestEventsPerExchange pins what each exchange costs the event queue on
// a fault-free fabric: a delivered message is one event, arrival and
// handler latency together, whether it crosses the fabric or stays on
// its node; a CallThen round trip is its two deliveries, the
// continuation running inside the reply's; a Call round trip adds the
// one event that wakes its caller.
func TestEventsPerExchange(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	l := newTestLayer(env)
	svc := l.Register("svc")
	for n := 0; n < 2; n++ {
		svc.Handle(n, func(m *Message) {
			if m.Kind == "req" {
				m.Reply(8, nil)
			}
		})
	}
	cost := func(exchange func()) uint64 {
		before := env.Scheduled()
		exchange()
		env.Run()
		return env.Scheduled() - before
	}
	replies := 0
	then := func(arg any, reply *Message, ok bool) {
		if ok {
			*arg.(*int)++
		}
	}
	var call uint64
	env.Spawn("caller", func(p *sim.Proc) {
		before := env.Scheduled()
		if _, err := l.Call(p, 0, 1, svc, "req", 16, nil); err != nil {
			t.Error(err)
		}
		call = env.Scheduled() - before
	})
	env.Run()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"cross-node Send", cost(func() { l.Send(0, 0, 1, svc, "note", 16, nil) }), 1},
		{"loopback Send", cost(func() { l.Send(0, 1, 1, svc, "note", 16, nil) }), 1},
		{"CallThen round trip", cost(func() { l.CallThen(0, 0, 1, svc, "req", 16, nil, then, &replies) }), 2},
		{"Call round trip", call, 3},
	} {
		if c.got != c.want {
			t.Errorf("%s scheduled %d events, want %d", c.name, c.got, c.want)
		}
	}
	if replies != 1 {
		t.Errorf("CallThen continuation ran %d times with a reply, want once", replies)
	}
}

// BenchmarkMsgCall measures one cross-node Call round trip: request and
// reply through the fabric, handler latency at both ends, and the wake
// of the blocked caller.
func BenchmarkMsgCall(b *testing.B) {
	env := sim.NewEnv()
	l := newTestLayer(env)
	svc := l.Register("svc")
	svc.Handle(1, func(m *Message) { m.Reply(8, nil) })
	b.ReportAllocs()
	b.ResetTimer()
	env.Spawn("caller", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			_, _ = l.Call(p, 0, 1, svc, "req", 16, nil)
		}
	})
	env.Run()
}
