package dsm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// A fault issued by a node MarkDead fenced out materializes that
// node's replica and nothing else: the page gains no directory entry, and
// the origin — whose replica of an untracked page would start Exclusive —
// neither reports the page nor counts it as owned. The held mask, not the
// replicas' zero state, is what keeps the origin's replica unmade.
func TestDeadNodeFaultMaterializesOnlyItsReplica(t *testing.T) {
	env, d := newTestDSM(3, DefaultParams())
	defer env.Close()
	d.MarkDead(2)
	pg := mem.PageID(21)
	bytesBefore, snapBefore := d.OwnedBytes(0), len(d.SnapshotOwned(0))
	run(env, func(p *sim.Proc) {
		d.Touch(p, 2, pg, true)
		d.Touch(p, 2, pg, false)
	})
	if r := d.pages[pg]; r == nil || r.held != 1<<2 {
		t.Errorf("page record = %+v, want only node 2's replica held", r)
	}
	if _, _, ok := d.DirEntry(pg); ok {
		t.Error("a dead node's fault entered the page into the directory")
	}
	for _, n := range d.nodes {
		if s := d.PageState(n, pg); s != Invalid {
			t.Errorf("node %d: page state %v, want invalid", n, s)
		}
	}
	if got := d.OwnedBytes(0); got != bytesBefore {
		t.Errorf("origin owns %d bytes, was %d", got, bytesBefore)
	}
	snap := d.SnapshotOwned(0)
	if _, ok := snap[pg]; ok || len(snap) != snapBefore {
		t.Errorf("origin snapshot holds %d pages (page %d: %v), was %d", len(snap), pg, ok, snapBefore)
	}
	if f := d.NodeStats(2).Faults(); f != 0 {
		t.Errorf("node 2 counted %d faults", f)
	}

	// The origin's first touch then makes its replica, Exclusive, and it
	// owns the page without the directory tracking it.
	run(env, func(p *sim.Proc) { d.Touch(p, 0, pg, false) })
	if s := d.PageState(0, pg); s != Exclusive {
		t.Errorf("origin state after its first touch = %v, want exclusive", s)
	}
	if got := d.OwnedBytes(0); got != bytesBefore+mem.PageSize {
		t.Errorf("origin owns %d bytes after its first touch, want %d", got, bytesBefore+mem.PageSize)
	}
	if _, ok := d.SnapshotOwned(0)[pg]; !ok {
		t.Error("origin snapshot lacks the page it owns")
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}
