package dsm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

func TestExtentQueryEmpty(t *testing.T) {
	var tab extentTable
	segs := tab.query(10, 20)
	if len(segs) != 1 || segs[0].owner != unclaimed || segs[0].start != 10 || segs[0].end != 20 {
		t.Fatalf("segs = %+v", segs)
	}
	if tab.query(5, 5) != nil {
		t.Fatal("empty range returned segments")
	}
}

func TestExtentSetAndQuery(t *testing.T) {
	var tab extentTable
	tab.set(10, 20, 1, 0b10, true)
	tab.set(15, 25, 2, 0b100, true)
	segs := tab.query(5, 30)
	want := []extent{
		{5, 10, unclaimed, 0, false},
		{10, 15, 1, 0b10, true},
		{15, 25, 2, 0b100, true},
		{25, 30, unclaimed, 0, false},
	}
	if len(segs) != len(want) {
		t.Fatalf("segs = %+v", segs)
	}
	for i, w := range want {
		if segs[i] != w {
			t.Errorf("seg[%d] = %+v, want %+v", i, segs[i], w)
		}
	}
}

func TestExtentMerge(t *testing.T) {
	var tab extentTable
	tab.set(0, 10, 1, 0b10, true)
	tab.set(10, 20, 1, 0b10, true)
	if len(tab.exts) != 1 || tab.exts[0].start != 0 || tab.exts[0].end != 20 {
		t.Fatalf("extents not merged: %+v", tab.exts)
	}
}

func TestExtentSplitMiddle(t *testing.T) {
	var tab extentTable
	tab.set(0, 30, 1, 0b10, true)
	tab.set(10, 20, 2, 0b100, true)
	segs := tab.query(0, 30)
	if len(segs) != 3 || segs[0].owner != 1 || segs[1].owner != 2 || segs[2].owner != 1 {
		t.Fatalf("segs = %+v", segs)
	}
	if tab.ownedPages(1) != 20 || tab.ownedPages(2) != 10 {
		t.Fatalf("owned pages: 1=%d 2=%d", tab.ownedPages(1), tab.ownedPages(2))
	}
}

func TestTouchRangeFirstTouchLocal(t *testing.T) {
	env, d := newTestDSM(2, DefaultParams())
	var elapsed sim.Time
	run(env, func(p *sim.Proc) {
		start := p.Now()
		d.TouchRange(p, 0, 0, 1000, true) // origin first touch
		elapsed = p.Now() - start
	})
	want := 1000 * minorFault
	if elapsed != want {
		t.Errorf("local first touch of 1000 pages took %v, want %v", elapsed, want)
	}
	if d.NodeStats(0).BulkLocalPages != 1000 {
		t.Errorf("bulk local pages = %d", d.NodeStats(0).BulkLocalPages)
	}
}

func TestTouchRangeRemoteCostsMore(t *testing.T) {
	env, d := newTestDSM(2, DefaultParams())
	var local, remote sim.Time
	run(env, func(p *sim.Proc) {
		start := p.Now()
		d.TouchRange(p, 0, 0, 1000, true)
		local = p.Now() - start
		start = p.Now()
		d.TouchRange(p, 1, 1<<20, 1000, true) // remote first touch
		remote = p.Now() - start
	})
	if remote < 10*local {
		t.Errorf("remote first touch %v not >> local %v", remote, local)
	}
	if d.NodeStats(1).BulkRemotePages != 1000 {
		t.Errorf("bulk remote pages = %d", d.NodeStats(1).BulkRemotePages)
	}
	if d.NodeStats(1).BytesMoved != 1000*mem.PageSize {
		t.Errorf("bytes moved = %d", d.NodeStats(1).BytesMoved)
	}
}

func TestTouchRangeSecondTouchFree(t *testing.T) {
	env, d := newTestDSM(2, DefaultParams())
	run(env, func(p *sim.Proc) {
		d.TouchRange(p, 1, 0, 500, true)
		start := p.Now()
		d.TouchRange(p, 1, 0, 500, true)
		d.TouchRange(p, 1, 0, 500, false)
		if p.Now() != start {
			t.Errorf("repeat touches took %v, want 0", p.Now()-start)
		}
	})
	if h := d.NodeStats(1).LocalHits; h != 1000 {
		t.Errorf("local hits = %d, want 1000", h)
	}
}

func TestTouchRangeMigration(t *testing.T) {
	// A dataset written by node 1, then claimed by node 0, then back:
	// ownership must follow the writer and each claim must cost.
	env, d := newTestDSM(2, DefaultParams())
	run(env, func(p *sim.Proc) {
		d.TouchRange(p, 1, 0, 100, true)
		if got := d.OwnedBytes(1); got != 100*mem.PageSize {
			t.Errorf("node1 owned = %d", got)
		}
		d.TouchRange(p, 0, 0, 100, true)
		if got := d.OwnedBytes(0); got != 100*mem.PageSize {
			t.Errorf("node0 owned = %d", got)
		}
		if got := d.OwnedBytes(1); got != 0 {
			t.Errorf("node1 still owns %d after migration", got)
		}
	})
}

func TestTouchRangeReadReplication(t *testing.T) {
	env, d := newTestDSM(3, DefaultParams())
	run(env, func(p *sim.Proc) {
		d.TouchRange(p, 0, 0, 100, true)
		d.TouchRange(p, 1, 0, 100, false) // replicate to node 1
		d.TouchRange(p, 2, 0, 100, false) // replicate to node 2
		// All three hold copies; reads are now free everywhere.
		start := p.Now()
		d.TouchRange(p, 1, 0, 100, false)
		d.TouchRange(p, 2, 0, 100, false)
		if p.Now() != start {
			t.Error("replicated reads not free")
		}
		// A write by node 2 must upgrade (invalidate 0 and 1).
		before := d.NodeStats(2).WriteFaults
		d.TouchRange(p, 2, 0, 100, true)
		if got := d.NodeStats(2).WriteFaults - before; got != 100 {
			t.Errorf("upgrade write faults = %d, want 100", got)
		}
	})
	if d.OwnedBytes(2) != 100*mem.PageSize {
		t.Errorf("node2 owned = %d", d.OwnedBytes(2))
	}
}

func TestDelegateRange(t *testing.T) {
	env, d := newTestDSM(2, DefaultParams())
	d.DelegateRange(1, 0, 1000)
	// Delegated memory holds no data until touched.
	if d.OwnedBytes(1) != 0 {
		t.Errorf("untouched delegated range owns %d bytes", d.OwnedBytes(1))
	}
	run(env, func(p *sim.Proc) {
		start := p.Now()
		d.TouchRange(p, 1, 0, 1000, true)
		// First touch of a delegated range: local minor faults only.
		if want := 1000 * minorFault; p.Now()-start != want {
			t.Errorf("touch of delegated range took %v, want %v", p.Now()-start, want)
		}
		start = p.Now()
		d.TouchRange(p, 1, 0, 1000, true)
		if p.Now() != start {
			t.Error("second touch of delegated range not free")
		}
	})
	if d.OwnedBytes(1) != 1000*mem.PageSize {
		t.Errorf("delegated owned bytes = %d", d.OwnedBytes(1))
	}
}

func TestOwnedBytesIncludesExplicitPages(t *testing.T) {
	env, d := newTestDSM(2, DefaultParams())
	run(env, func(p *sim.Proc) {
		d.Touch(p, 1, 42, true)
	})
	if got := d.OwnedBytes(1); got != mem.PageSize {
		t.Errorf("owned = %d, want one page", got)
	}
}
