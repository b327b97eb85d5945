package dsm

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topo"
)

// lagger is the fabric's fault filter for the fencing races: every frame
// to or from the crashed node is dropped, as for a slice that died before
// the failure detector declared it, and every frame from the slow node
// arrives lag late. -1 names no node.
type lagger struct {
	crashed, slow int
	lag           sim.Time
}

func (l *lagger) Outcome(from, to, size int) topo.Outcome {
	switch {
	case from == l.crashed || to == l.crashed:
		return topo.Outcome{Drop: true}
	case from == l.slow:
		return topo.Outcome{Delay: l.lag}
	}
	return topo.Outcome{}
}

// fencePage is the page the races fight over; fenceData is what node 1
// writes to it before the fault.
const fencePage = mem.PageID(5)

var fenceData = []byte("current contents")

// newFenceRace builds a 4-node DSM with a lagger installed (so the
// fault-tolerant paths are on, though nothing is dropped yet), where node
// 1 has written fenceData to fencePage and node 2 has read it: node 1 owns
// the page and shares it with node 2.
func newFenceRace(t *testing.T) (*sim.Env, *DSM, *lagger) {
	env := sim.NewEnv()
	fabric := topo.FlatSpec().Build(env, "fabric", 56, 1500*sim.Nanosecond)
	d := New(env, msg.NewLayer(env, fabric), []int{0, 1, 2, 3}, DefaultParams())
	l := &lagger{crashed: -1, slow: -1}
	fabric.SetFilter(l)
	run(env, func(p *sim.Proc) {
		d.Write(p, 1, fencePage, 0, fenceData)
		d.Read(p, 2, fencePage)
	})
	if owner, cs, _ := d.DirEntry(fencePage); owner != 1 || len(cs) != 2 {
		t.Fatalf("setup: owner %d copyset %v, want node 1 sharing with node 2", owner, cs)
	}
	return env, d, l
}

// crashNode1 drops node 1's frames from now on and has MarkDead declare
// it 10 ms later.
func crashNode1(env *sim.Env, d *DSM, l *lagger) {
	l.crashed = 1
	env.After(10*sim.Millisecond, func() { d.MarkDead(1) })
}

// checkFenced fails the test unless the directory names none of the
// fenced nodes and the DSM validates.
func checkFenced(t *testing.T, d *DSM, fenced ...int) {
	t.Helper()
	owner, cs, _ := d.DirEntry(fencePage)
	for _, n := range fenced {
		if owner == n {
			t.Errorf("directory names fenced node %d as owner", n)
		}
		for _, c := range cs {
			if c == n {
				t.Errorf("fenced node %d is in the copyset %v", n, cs)
			}
		}
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

// wantPrefix fails the test unless page starts with want.
func wantPrefix(t *testing.T, who string, page, want []byte) {
	t.Helper()
	if !bytes.HasPrefix(page, want) {
		t.Errorf("%s reads %q, want %q", who, page[:len(want)], want)
	}
}

// A read fault whose fetch from the owner is cut off by the owner's crash
// follows MarkDead's choice: node 2, which still shares the page, takes
// over and serves the fetch. Falling back to the origin's replica instead
// handed node 3 zeros and left node 2's current copy outside the
// copyset.
func TestReadFollowsSuccessorOfFencedOwner(t *testing.T) {
	env, d, l := newFenceRace(t)
	defer env.Close()
	crashNode1(env, d, l)
	var got []byte
	run(env, func(p *sim.Proc) { got = d.Read(p, 3, fencePage) })
	wantPrefix(t, "node 3", got, fenceData)
	if owner, _, _ := d.DirEntry(fencePage); owner != 2 {
		t.Errorf("owner = %d, want node 2, the first surviving holder", owner)
	}
	checkFenced(t, d, 1)
	run(env, func(p *sim.Proc) { got = d.Read(p, 0, fencePage) })
	wantPrefix(t, "the origin", got, fenceData)
	checkFenced(t, d, 1)
}

// A write fault by a node without a copy needs the owner's bytes, and the
// owner crashes while the directory's invfetch waits on it. The grant
// fetches them from the successor MarkDead chose (node 2, already
// invalidated by the same grant) instead of taking the origin's stale
// replica, which lost node 1's write without any invariant noticing.
func TestWriteFollowsSuccessorOfFencedOwner(t *testing.T) {
	env, d, l := newFenceRace(t)
	defer env.Close()
	crashNode1(env, d, l)
	var got []byte
	run(env, func(p *sim.Proc) {
		d.Write(p, 3, fencePage, 100, []byte("three"))
		got = d.Read(p, 3, fencePage)
	})
	wantPrefix(t, "node 3", got, fenceData)
	if owner, cs, _ := d.DirEntry(fencePage); owner != 3 || len(cs) != 1 {
		t.Errorf("owner %d copyset %v, want node 3 alone", owner, cs)
	}
	checkFenced(t, d, 1)
	run(env, func(p *sim.Proc) { got = d.Read(p, 2, fencePage) })
	wantPrefix(t, "node 2", got, fenceData)
	wantPrefix(t, "node 2", got[100:], []byte("three"))
	checkFenced(t, d, 1)
}

// The write fault's requester is fenced while its grant waits on the slow
// owner's invfetch. The grant must not name node 3 in the directory: it
// re-homes the page to the origin with the bytes node 1 handed over, so a
// later reader still sees them. Naming node 3 made the next read reclaim
// the origin's zeros.
func TestWriteGrantReHomesFencedRequester(t *testing.T) {
	env, d, l := newFenceRace(t)
	defer env.Close()
	l.slow, l.lag = 1, sim.Millisecond
	env.After(500*sim.Microsecond, func() { d.MarkDead(3) })
	run(env, func(p *sim.Proc) { d.Write(p, 3, fencePage, 100, []byte("three")) })
	if owner, cs, _ := d.DirEntry(fencePage); owner != 0 || len(cs) != 1 {
		t.Errorf("owner %d copyset %v, want the origin alone", owner, cs)
	}
	checkFenced(t, d, 3)
	var got []byte
	run(env, func(p *sim.Proc) { got = d.Read(p, 2, fencePage) })
	wantPrefix(t, "node 2", got, fenceData)
	checkFenced(t, d, 3)
}

// MarkDead fences node 2 while its write fault's request to the directory
// is still in flight. The directory never handles the request, the
// fenced requester still returns from its fault, the transport frees
// every flow to or from node 2, and the page it wanted stays out of the
// directory.
func TestMarkDeadFencesFramesAndFreesFlows(t *testing.T) {
	env, d, l := newFenceRace(t)
	defer env.Close()
	l.slow, l.lag = 2, sim.Millisecond
	handled := 0
	d.dirSvc.Handle(d.origin, func(m *msg.Message) {
		handled++
		d.handleDir(m)
	})
	other := mem.PageID(8)
	returned := false
	env.Spawn("writer2", func(p *sim.Proc) {
		d.Write(p, 2, other, 0, []byte("two"))
		returned = true
	})
	env.After(500*sim.Microsecond, func() { d.MarkDead(2) })
	env.Run()
	if handled != 0 {
		t.Errorf("the directory handled %d requests from the fenced node", handled)
	}
	if !returned {
		t.Error("the requester fenced mid-fault never returned")
	}
	// The setup's write and read left flows 0↔1 and 0↔2; only 0↔1 stays.
	if flows, _ := d.layer.Transport().Flows(); flows != 2 {
		t.Errorf("%d flows hold state, want 2: node 2's are freed", flows)
	}
	if _, _, ok := d.DirEntry(other); ok {
		t.Error("the fenced node's fault entered its page into the directory")
	}
	checkFenced(t, d, 2)
}

// The write fault's requester is fenced while its grant waits on the slow
// owner's invfetch, as in TestWriteGrantReHomesFencedRequester. The
// requester gives up without releasing its fault, so the fault stays off
// the free list for good, while the directory's grant still finishes:
// it releases the page lock and its own hold, and later faults never
// reuse the abandoned fault.
func TestFencedRequesterKeepsItsFault(t *testing.T) {
	env, d, l := newFenceRace(t)
	defer env.Close()
	l.slow, l.lag = 1, sim.Millisecond
	var pf *pendingFault
	d.dirSvc.Handle(d.origin, func(m *msg.Message) {
		if pf == nil {
			pf = m.Payload.(*pendingFault)
		}
		d.handleDir(m)
	})
	env.After(500*sim.Microsecond, func() { d.MarkDead(3) })
	run(env, func(p *sim.Proc) { d.Write(p, 3, fencePage, 100, []byte("three")) })
	if pf == nil {
		t.Fatal("the directory never saw the fault")
	}
	if g := d.Granting(); len(g) != 0 {
		t.Errorf("grants still in flight on pages %v", g)
	}
	if pf.owners != 1 || slices.Contains(d.freeFaults, pf) {
		t.Errorf("fenced requester's fault has %d owners left, on the free list %v; want 1, off it",
			pf.owners, slices.Contains(d.freeFaults, pf))
	}
	run(env, func(p *sim.Proc) {
		d.Read(p, 2, fencePage)
		d.Write(p, 2, fencePage, 0, []byte("two"))
	})
	if slices.Contains(d.freeFaults, pf) {
		t.Error("a later fault recycled the fenced requester's fault")
	}
	checkFenced(t, d, 3)
}

// MarkDead fences node 3 inside its write fault's handler window, before
// the request leaves. The request is abandoned unsent, the requester
// returns from its fault as the handler's time ends, the directory never
// takes the page lock, no proc stays parked, and the transport delivers
// nothing twice and loses nothing silently.
func TestRequesterFencedInHandlerWindow(t *testing.T) {
	env, d, _ := newFenceRace(t)
	defer env.Close()
	rel := d.layer.Transport()
	t0 := env.Now()
	env.After(sim.Microsecond, func() { d.MarkDead(3) })
	returned := sim.Time(-1)
	env.Spawn("writer3", func(p *sim.Proc) {
		d.Write(p, 3, fencePage, 100, []byte("three"))
		returned = p.Now()
	})
	env.Run()
	if want := t0 + faultHandler; returned != want {
		t.Errorf("the fenced requester returned at %v, want %v, when its handler ends", returned, want)
	}
	if g := d.Granting(); len(g) != 0 {
		t.Errorf("grants still in flight on pages %v", g)
	}
	if live := env.LiveProcs(); len(live) != 0 {
		t.Errorf("procs still parked: %v", live)
	}
	if st := rel.Stats(); st.Delivered > st.Sent || st.Delivered+st.Abandoned != st.Sent {
		t.Errorf("transport sent %d, delivered %d, abandoned %d: not exactly once", st.Sent, st.Delivered, st.Abandoned)
	}
	if s := d.PageState(3, fencePage); s != Invalid {
		t.Errorf("the fenced requester's replica is %v, want invalid", s)
	}
	wantPrefix(t, "node 1", d.rec(fencePage).local[1].contents(), fenceData)
	checkFenced(t, d, 3)
}

// MarkDead fences node 3 after its write fault's request has left, while
// the slow requester's frame is still in flight: the fence, not a grant,
// ends the wait, at the instant MarkDead runs, and the directory never
// handles the request.
func TestFenceAfterSendFailsWait(t *testing.T) {
	env, d, l := newFenceRace(t)
	defer env.Close()
	l.slow, l.lag = 3, sim.Millisecond
	handled := 0
	d.dirSvc.Handle(d.origin, func(m *msg.Message) {
		handled++
		d.handleDir(m)
	})
	t0 := env.Now()
	fence := t0 + 500*sim.Microsecond
	env.At(fence, func() { d.MarkDead(3) })
	returned := sim.Time(-1)
	env.Spawn("writer3", func(p *sim.Proc) {
		d.Write(p, 3, fencePage, 100, []byte("three"))
		returned = p.Now()
	})
	env.Run()
	if returned != fence {
		t.Errorf("the fenced requester returned at %v, want %v, when MarkDead ran", returned, fence)
	}
	if handled != 0 {
		t.Errorf("the directory handled %d requests from the fenced node", handled)
	}
	if g := d.Granting(); len(g) != 0 {
		t.Errorf("grants still in flight on pages %v", g)
	}
	checkFenced(t, d, 3)
}

// Env.Close while a write fault's request waits out the fault handler
// unwinds the parked requester, running its deferred calls, and runs
// nothing it scheduled: the request never leaves and the clock stays
// where the run stopped.
func TestCloseWithFaultRequestPending(t *testing.T) {
	env, d, _ := newFenceRace(t)
	handled := 0
	d.dirSvc.Handle(d.origin, func(m *msg.Message) {
		handled++
		d.handleDir(m)
	})
	sent := d.layer.Transport().Stats().Sent
	msgs := d.layer.Net().Stats().Messages
	stop := env.Now() + sim.Microsecond
	unwound, returned := false, false
	env.Spawn("writer3", func(p *sim.Proc) {
		defer func() { unwound = true }()
		d.Write(p, 3, fencePage, 100, []byte("three"))
		returned = true
	})
	env.RunUntil(stop)
	env.Close()
	if !unwound || returned {
		t.Errorf("after Close: unwound %v, returned %v; want the parked requester unwound, not returned", unwound, returned)
	}
	if got := d.layer.Transport().Stats().Sent; got != sent || d.layer.Net().Stats().Messages != msgs {
		t.Errorf("the transport took %d messages after the fault began: the request left", got-sent)
	}
	if handled != 0 || env.Now() != stop {
		t.Errorf("handled %d requests, clock at %v; want none, %v", handled, env.Now(), stop)
	}
}
