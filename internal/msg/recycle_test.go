package msg

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// TestRecycledMessageRetransmittedOnce: over a faulted fabric the ack of
// a one-way message's frame is lost, so the frame is retransmitted after
// its handler returned and the layer recycled its Message for a later
// Send. The retransmitted copy is suppressed: every message is handled
// exactly once, with its own payload, although the late frame's argument
// now holds another message.
func TestRecycledMessageRetransmittedOnce(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	l := newTestLayer(env)
	svc := l.Register("svc")
	acks := 0
	l.Net().SetFilter(&dirFilter{from: -1, drop: func(from, to, size int) bool {
		// Drop the first ack, the one for "a"'s frame.
		if from == 1 {
			acks++
			return acks == 1
		}
		return false
	}})
	var got []any
	var msgs []*Message
	svc.Handle(1, func(m *Message) {
		got = append(got, m.Payload)
		msgs = append(msgs, m)
	})
	// "a" and "b" are in flight together; "c" and "d" go once both are
	// handled, before "a"'s frame is retransmitted, and reuse their
	// Messages.
	l.Send(0, 0, 1, svc, "note", 16, "a")
	l.Send(0, 0, 1, svc, "note", 16, "b")
	env.At(100*sim.Microsecond, func() {
		l.Send(0, 0, 1, svc, "note", 16, "c")
		l.Send(0, 0, 1, svc, "note", 16, "d")
	})
	env.Run()
	if fmt.Sprint(got) != "[a b c d]" {
		t.Fatalf("handled payloads %v, want [a b c d], each once", got)
	}
	if msgs[0] != msgs[3] || msgs[1] != msgs[2] {
		t.Error("c and d did not reuse b's and a's recycled Messages, last freed first")
	}
	if st := l.Transport().Stats(); st.Retransmits != 1 || st.DupsSuppressed != 1 || st.Delivered != 4 {
		t.Errorf("transport stats %+v, want a's frame retransmitted once and suppressed", st)
	}
}

// TestFencedCallThenNotRecycled: a CallThen whose exchange MarkDead
// failed keeps its Message off the free list, since its frames may still
// be in flight; a CallThen that got its reply puts its Message back.
func TestFencedCallThenNotRecycled(t *testing.T) {
	env := sim.NewEnv()
	defer env.Close()
	l := newTestLayer(env)
	svc := l.Register("svc")
	l.Net().SetFilter(&dirFilter{from: -1, drop: func(from, to, size int) bool { return to == 2 }})
	svc.Handle(1, func(m *Message) { m.Reply(8, nil) })
	svc.Handle(2, func(m *Message) { m.Reply(8, nil) })
	var log []resumption
	l.CallThen(0, 0, 1, svc, "req", 16, nil, recordThen, &thenCaller{env, 1, &log})
	l.CallThen(0, 0, 2, svc, "req", 16, nil, recordThen, &thenCaller{env, 2, &log})
	env.At(sim.Second, func() { l.MarkDead(2) })
	env.Run()
	if len(log) != 2 || log[0].caller != 1 || !log[0].ok || log[1].caller != 2 || log[1].ok {
		t.Fatalf("resumptions %+v, want caller 1 replied, then caller 2 fenced", log)
	}
	if len(l.free) != 1 {
		t.Errorf("%d Messages on the free list, want 1: only the replied CallThen's", len(l.free))
	}
}
