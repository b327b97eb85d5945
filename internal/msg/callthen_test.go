package msg

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// resumption is one caller's return from an exchange: which caller, when,
// after how many scheduled events, and with what outcome.
type resumption struct {
	caller int
	at     sim.Time
	seq    uint64
	ok     bool
	reply  any // the reply's payload
}

// thenCaller is a CallThen continuation's argument: it records the
// resumption into log.
type thenCaller struct {
	env    *sim.Env
	caller int
	log    *[]resumption
}

func recordThen(arg any, reply *Message, ok bool) {
	c := arg.(*thenCaller)
	r := resumption{caller: c.caller, at: c.env.Now(), seq: c.env.Scheduled(), ok: ok}
	if reply != nil {
		r.reply = reply.Payload
	}
	*c.log = append(*c.log, r)
}

// resumptions runs one caller proc per entry of viaThen, spawned in order
// at time 0, each sending one request from node 0 to node 1: by a Call,
// or by a CallThen when viaThen says so, to the service svc. setup
// installs handlers, filters and fences first. It returns the callers' resumptions in the order they
// happened.
func resumptions(t *testing.T, viaThen []bool, setup func(env *sim.Env, l *Layer, svc *Service)) []resumption {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	l := newTestLayer(env)
	svc := l.Register("svc")
	setup(env, l, svc)
	var log []resumption
	for i, then := range viaThen {
		env.Spawn("caller", func(p *sim.Proc) {
			if then {
				l.CallThen(p.Span(), 0, 1, svc, "req", 16, nil, recordThen, &thenCaller{env, i, &log})
				return
			}
			reply, err := l.Call(p, 0, 1, svc, "req", 16, nil)
			r := resumption{caller: i, at: env.Now(), seq: env.Scheduled(), ok: err == nil}
			if reply != nil {
				r.reply = reply.Payload
			}
			log = append(log, r)
		})
	}
	env.Run()
	if live := env.LiveProcs(); len(live) != 0 {
		t.Errorf("procs wedged: %v", live)
	}
	return log
}

// TestCallThenReply: a CallThen's continuation runs once with the reply,
// inside the reply's own delivery event: at the time a Call's caller
// wakes, but one scheduled event earlier, since the Call's caller needs
// the wake-up event that the continuation does not.
func TestCallThenReply(t *testing.T) {
	setup := func(env *sim.Env, l *Layer, svc *Service) {
		svc.Handle(1, func(m *Message) { m.Reply(4096, "page-data") })
	}
	want := resumptions(t, []bool{false}, setup)
	got := resumptions(t, []bool{true}, setup)
	if len(got) != 1 || !got[0].ok || got[0].reply != "page-data" {
		t.Fatalf("CallThen resumed %+v, want once with the reply", got)
	}
	if len(want) != 1 || got[0].at != want[0].at || got[0].seq != want[0].seq-1 {
		t.Errorf("CallThen resumed %+v, Call %+v: want the same time, one event earlier", got, want)
	}
}

// TestCallThenAlreadyFenced: toward a node MarkDead has already fenced,
// CallThen runs its continuation before it returns, with ok false, as
// Call fails at once.
func TestCallThenAlreadyFenced(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	l := newTestLayer(env)
	svc := l.Register("svc")
	l.Net().SetFilter(&dirFilter{from: -1})
	svc.Handle(1, func(m *Message) { m.Reply(8, nil) })
	l.MarkDead(1)
	var log []resumption
	l.CallThen(0, 0, 1, svc, "req", 16, nil, recordThen, &thenCaller{env, 0, &log})
	if len(log) != 1 || log[0].ok || log[0].reply != nil {
		t.Fatalf("continuation ran %+v before CallThen returned, want once, fenced", log)
	}
	env.Run()
	if len(log) != 1 {
		t.Errorf("continuation ran %d times, want once", len(log))
	}
}

// TestCallThenFencedInFlight: a CallThen toward a node that stopped
// answering resumes, fenced, when MarkDead declares the node, and only
// then; the handler never runs.
func TestCallThenFencedInFlight(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	l := newTestLayer(env)
	svc := l.Register("svc")
	l.Net().SetFilter(&dirFilter{from: -1, drop: func(from, to, size int) bool { return to == 1 }})
	handled := 0
	svc.Handle(1, func(m *Message) { handled++; m.Reply(8, nil) })
	var log []resumption
	l.CallThen(0, 0, 1, svc, "req", 16, nil, recordThen, &thenCaller{env, 0, &log})
	env.At(sim.Second, func() { l.MarkDead(1) })
	env.Run()
	if len(log) != 1 || log[0].ok || log[0].at != sim.Second {
		t.Fatalf("continuation ran %+v, want once, fenced, at %v", log, sim.Second)
	}
	if handled != 0 {
		t.Errorf("handler ran %d times toward a node that stopped answering", handled)
	}
	if env.Spawned() != 0 {
		t.Errorf("%d procs spawned, want none", env.Spawned())
	}
}

// TestCallThenFenceOrder: one MarkDead fails a CallThen and a Call in the
// order they began to wait, whichever came first, and each resumes at the
// same point of the event sequence as a Call in its place would.
func TestCallThenFenceOrder(t *testing.T) {
	setup := func(env *sim.Env, l *Layer, svc *Service) {
		l.Net().SetFilter(&dirFilter{from: -1, drop: func(from, to, size int) bool { return to == 1 }})
		svc.Handle(1, func(m *Message) { m.Reply(8, nil) })
		env.At(sim.Second, func() { l.MarkDead(1) })
	}
	want := resumptions(t, []bool{false, false}, setup)
	if len(want) != 2 || want[0].caller != 0 || want[1].caller != 1 || want[0].ok || want[1].ok {
		t.Fatalf("two fenced Calls resumed %+v, want callers 0 then 1, both fenced", want)
	}
	for _, viaThen := range [][]bool{{true, false}, {false, true}} {
		if got := resumptions(t, viaThen, setup); !slices.Equal(got, want) {
			t.Errorf("callers by CallThen %v resumed %+v, want %+v as two Calls", viaThen, got, want)
		}
	}
}
