package dsm

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
)

// The directory serves a fault on event callbacks: a remote write fault
// that invalidates an owner elsewhere spawns no process, at the origin or
// anywhere else.
func TestRemoteWriteFaultSpawnsNoProc(t *testing.T) {
	env, d := newTestDSM(3, DefaultParams())
	defer env.Close()
	pg := mem.PageID(9)
	var spawned []int
	run(env, func(p *sim.Proc) {
		d.Write(p, 1, pg, 0, []byte("one"))
		d.Read(p, 2, pg)
		spawned = append(spawned, env.Spawned())
		d.Write(p, 2, pg, 0, []byte("two")) // invalidates node 1
		d.Write(p, 0, pg, 0, []byte("zero"))
		spawned = append(spawned, env.Spawned())
	})
	if spawned[1] != spawned[0] {
		t.Errorf("two remote write faults spawned %d procs, want none", spawned[1]-spawned[0])
	}
	if st := d.TotalStats(); st.WriteFaults != 3 || st.Invalidations < 2 {
		t.Errorf("stats %+v: the writes did not fault and invalidate", st)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

// A write grant whose copyset holds the origin and a remote node waits for
// both invalidations, although the origin's finishes in place while the
// grant starts them: node 1 answers its invalidation a millisecond late,
// and node 2's grant arrives once, after that answer.
func TestWriteGrantWaitsForRemoteInvalidation(t *testing.T) {
	env, d := newTestDSM(3, DefaultParams())
	defer env.Close()
	pg := mem.PageID(9)
	run(env, func(p *sim.Proc) { d.Read(p, 1, pg) }) // copyset {0, 1}, owned by the origin
	var answered, granted []sim.Time
	d.ownSvc.Handle(1, func(m *msg.Message) {
		if m.Kind != "inv" {
			d.handleOwner(m)
			return
		}
		env.Defer(sim.Millisecond, func() {
			answered = append(answered, env.Now())
			d.handleOwner(m)
		})
	})
	d.ownSvc.Handle(2, func(m *msg.Message) {
		if m.Kind == "grant" {
			granted = append(granted, env.Now())
		}
		d.handleOwner(m)
	})
	run(env, func(p *sim.Proc) { d.Write(p, 2, pg, 0, []byte("two")) })
	if len(answered) != 1 || len(granted) != 1 {
		t.Fatalf("node 1 answered %d invalidations and node 2 got %d grants, want 1 and 1", len(answered), len(granted))
	}
	if granted[0] <= answered[0] {
		t.Errorf("grant reached node 2 at %v, before node 1 answered its invalidation at %v", granted[0], answered[0])
	}
	if owner, cs, _ := d.DirEntry(pg); owner != 2 || !slices.Equal(cs, []int{2}) {
		t.Errorf("directory entry owner %d copyset %v, want node 2 alone", owner, cs)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

// A RestorePage that queues for the page lock behind a write grant runs
// after that grant is acknowledged, and before a grant that queued behind
// it: node 3's write lands first, the restore replaces it, and node 2's
// write lands on the restored bytes.
func TestRestorePageQueuesBetweenGrants(t *testing.T) {
	env, d, l := newFenceRace(t)
	defer env.Close()
	l.slow, l.lag = 1, sim.Millisecond // node 3's grant waits on node 1's invfetch
	var wrote3, restored, wrote2 sim.Time
	var lockedAtRestore []mem.PageID
	env.Spawn("writer3", func(p *sim.Proc) {
		d.Write(p, 3, fencePage, 0, []byte("AAAA"))
		wrote3 = p.Now()
	})
	env.After(100*sim.Microsecond, func() {
		lockedAtRestore = d.Granting()
		env.Spawn("restore", func(p *sim.Proc) {
			d.RestorePage(p, 0, fencePage, []byte("RRRRRRRR"))
			restored = p.Now()
		})
	})
	env.After(200*sim.Microsecond, func() {
		env.Spawn("writer2", func(p *sim.Proc) {
			d.Write(p, 2, fencePage, 0, []byte("BB"))
			wrote2 = p.Now()
		})
	})
	env.Run()
	if !slices.Equal(lockedAtRestore, []mem.PageID{fencePage}) {
		t.Fatalf("grants in flight when the restore began: %v, want [%d]", lockedAtRestore, fencePage)
	}
	if !(200*sim.Microsecond < wrote3 && wrote3 < restored && restored < wrote2) {
		t.Errorf("node 3 wrote at %v, the restore ran at %v, node 2 wrote at %v: want that order, all past 200us",
			wrote3, restored, wrote2)
	}
	var got []byte
	run(env, func(p *sim.Proc) { got = d.Read(p, 0, fencePage) })
	if !bytes.HasPrefix(got, []byte("BBRRRRRR\x00")) {
		t.Errorf("page reads %q, want node 2's write over the restored bytes", got[:9])
	}
	if g := d.Granting(); len(g) != 0 {
		t.Errorf("grants still in flight: %v", g)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

// A requester that crashed before its grant arrived, and that nobody
// declares dead, leaves the grant in flight for good: its frames are
// retransmitted without end, the watchdog stops the run, and Granting
// names the page the stall is on, though no directory process exists to
// show in the verdict.
func TestUndeclaredCrashLeavesGrantInFlight(t *testing.T) {
	env, d, l := newFenceRace(t)
	defer env.Close()
	l.slow, l.lag = 1, sim.Millisecond // the grant waits on node 1 while node 3 crashes
	env.Spawn("writer3", func(p *sim.Proc) { d.Write(p, 3, fencePage, 0, []byte("three")) })
	env.After(500*sim.Microsecond, func() { l.crashed = 3 })
	env.WatchProgress(100 * sim.Millisecond)
	env.Run()
	st := env.Stalled()
	if st == nil {
		t.Fatal("no stall: the grant to the crashed requester completed")
	}
	for _, name := range st.Procs {
		if strings.HasPrefix(name, "dsm") {
			t.Errorf("stall lists a DSM process %q: %v", name, st.Procs)
		}
	}
	if g := d.Granting(); !slices.Equal(g, []mem.PageID{fencePage}) {
		t.Errorf("grants in flight %v, want [%d]", g, fencePage)
	}
}
