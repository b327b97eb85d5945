package dsm

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/topo"
)

// replicaOf returns the node's replica of the page through the page's record,
// or nil when the replica was never materialized.
func replicaOf(d *DSM, node int, pg mem.PageID) *localPage {
	r, i := d.pages[pg], d.index(node)
	if r == nil || r.held&(1<<i) == 0 {
		return nil
	}
	return &r.local[i]
}

// eachReplica calls fn for every materialized replica of every page.
func eachReplica(d *DSM, fn func(node int, pg mem.PageID, lp *localPage)) {
	for pg, r := range d.pages {
		for i, n := range d.nodes {
			if r.held&(1<<i) != 0 {
				fn(n, pg, &r.local[i])
			}
		}
	}
}

// A nil replica is a zero page: Validate must read it as PageSize zeros,
// equal to a materialized all-zero replica and unequal to one with any
// byte set, and must not materialize it while comparing.
func TestValidateZeroPageEquivalence(t *testing.T) {
	env, d := newTestDSM(2, DefaultParams())
	pg := mem.PageID(9)
	run(env, func(p *sim.Proc) { d.Touch(p, 1, pg, false) })
	if s0, s1 := d.PageState(0, pg), d.PageState(1, pg); s0 != Shared || s1 != Shared {
		t.Fatalf("states = %v/%v, want shared/shared", s0, s1)
	}
	for _, full := range []int{0, 1} {
		lp, zero := replicaOf(d, full, pg), replicaOf(d, 1-full, pg)
		if lp.data != nil || zero.data != nil {
			t.Fatal("Touch-only replicas hold page bytes")
		}
		lp.data = make([]byte, mem.PageSize)
		if err := d.Validate(); err != nil {
			t.Errorf("nil replica at %d vs zero buffer at %d: %v", 1-full, full, err)
		}
		if zero.data != nil {
			t.Errorf("Validate materialized node %d's zero page", 1-full)
		}
		lp.data[mem.PageSize/2] = 1
		if err := d.Validate(); err == nil {
			t.Errorf("a byte flipped at node %d validated against node %d's zero page", full, 1-full)
		}
		lp.data = nil
	}
	if err := d.Validate(); err != nil {
		t.Errorf("two zero pages: %v", err)
	}
}

// Touch moves no caller bytes, so a Touch-only ping-pong must leave every
// replica a zero page and allocate less than one page per fault.
func TestTouchFaultsAllocateNoPageBytes(t *testing.T) {
	env, d := newTestDSM(2, DefaultParams())
	pages := []mem.PageID{3, 4}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(env, func(p *sim.Proc) {
		for i := 0; i < 150; i++ {
			for _, pg := range pages {
				d.Touch(p, 0, pg, false) // read: fetch from node 1
				d.Touch(p, 0, pg, true)  // upgrade: no bytes
				d.Touch(p, 1, pg, false) // read: fetch from node 0
				d.Touch(p, 1, pg, true)  // upgrade
				d.Touch(p, 0, pg, true)  // write: invfetch from node 1
				d.Touch(p, 1, pg, true)  // write: invfetch from node 0
			}
		}
	})
	runtime.ReadMemStats(&after)
	faults := d.TotalStats().Faults()
	if faults < 1000 {
		t.Fatalf("only %d faults, want at least 1000", faults)
	}
	eachReplica(d, func(n int, pg mem.PageID, lp *localPage) {
		if lp.data != nil {
			t.Errorf("node %d page %d holds page bytes after Touch-only faults", n, pg)
		}
	})
	if perFault := (after.TotalAlloc - before.TotalAlloc) / uint64(faults); perFault >= mem.PageSize {
		t.Errorf("%d bytes allocated per fault, want < %d", perFault, mem.PageSize)
	}
}

// Eliding a zero page's bytes is host-side only: the same fault sequence
// over pages pre-written with non-zero bytes must take the same virtual
// time, count the same stats (BytesMoved included) and put the same bytes
// on the wire.
func TestZeroPageTransfersCostAFullPage(t *testing.T) {
	type outcome struct {
		end   sim.Time
		stats Stats
		wire  topo.Stats
	}
	fill := bytes.Repeat([]byte{0xa5}, mem.PageSize)
	pages := []mem.PageID{5, 6}
	play := func(prewrite bool) outcome {
		env, d := newTestDSM(3, DefaultParams())
		run(env, func(p *sim.Proc) {
			for _, pg := range pages {
				if prewrite {
					d.Write(p, 0, pg, 0, fill)
				} else {
					d.Touch(p, 0, pg, true)
				}
			}
			done := make([]*sim.Event, 3)
			for n := range done {
				ev := new(sim.Event)
				done[n] = ev
				env.Spawn("sharer", func(q *sim.Proc) {
					defer ev.Fire()
					for i := 0; i < 40; i++ {
						pg := pages[(i+n)%len(pages)]
						d.Touch(q, n, pg, i%3 == n)
					}
				})
			}
			p.WaitAll(done...)
		})
		eachReplica(d, func(n int, pg mem.PageID, lp *localPage) {
			if lp.state == Invalid {
				return
			}
			want := fill
			if !prewrite {
				want = nil
			}
			if !bytes.Equal(lp.data, want) {
				t.Errorf("prewrite=%v: node %d page %d does not hold the written bytes", prewrite, n, pg)
			}
		})
		if err := d.Validate(); err != nil {
			t.Errorf("prewrite=%v: %v", prewrite, err)
		}
		return outcome{end: env.Now(), stats: d.TotalStats(), wire: d.layer.Net().Stats()}
	}
	zero, full := play(false), play(true)
	if zero.stats.BytesMoved == 0 {
		t.Fatal("the sequence moved no pages")
	}
	if zero != full {
		t.Errorf("zero pages: %+v\nwritten pages: %+v", zero, full)
	}
}

// A zero page granted to a node whose Invalid replica still holds stale
// bytes must replace them: the nil payload means "all zeros", not "keep
// what you have".
func TestZeroPageGrantDropsStaleBytes(t *testing.T) {
	env, d := newTestDSM(3, DefaultParams())
	pg := mem.PageID(11)
	run(env, func(p *sim.Proc) {
		d.Write(p, 2, pg, 0, []byte("stale"))
		d.Write(p, 1, pg, 0, []byte("lost")) // node 2 keeps "stale", Invalid
		d.MarkDead(1)                        // re-homed to the origin's zero page
		if got := d.Read(p, 2, pg); !bytes.Equal(got, zeroPage[:]) {
			t.Errorf("node 2 reads %q, want the origin's zero page", got[:5])
		}
	})
	if lp := replicaOf(d, 2, pg); lp.data != nil {
		t.Error("node 2 kept a buffer after a zero-page grant")
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}
