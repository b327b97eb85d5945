package balloon

import (
	"testing"

	"repro/internal/sim"
)

// TestDeflateOnOOMRescuesAllocation: with every free page pinned, an
// allocation must succeed by stealing pages back from the balloon, and
// the allocating process must pay the per-page reclaim stall.
func TestDeflateOnOOMRescuesAllocation(t *testing.T) {
	env, k := newTestGuest(2, 64<<20)
	d := NewDriver(env, k)
	perNode := k.CapacityPages() / 2
	const pages = 1639
	env.Spawn("host", func(p *sim.Proc) {
		d.Inflate(p, 0, 0, perNode)
		d.Inflate(p, 1, 0, perNode)
		before := p.Now()
		if _, err := k.Alloc(p, 0, 0, pages*4096); err != nil {
			t.Errorf("alloc under full balloon failed: %v", err)
		}
		wantStall := sim.Time(pages) * reclaimPerPage
		if got := p.Now() - before; got < wantStall {
			t.Errorf("alloc took %v, want at least the %v reclaim stall", got, wantStall)
		}
	})
	env.Run()
	st := d.Stats()
	if st.Stalls == 0 || st.DeflatedPages < pages {
		t.Fatalf("reclaim path not exercised: %+v", st)
	}
}

// TestDeflateOnOOMConcurrentProcs pins everything and lets two procs
// allocate at once. The deflate+recarve must be atomic: a proc sleeping
// off its reclaim stall must not have its surrendered pages stolen by
// the other proc's spill path (a bug this test reproduces if the stall
// is charged before the retry carve).
func TestDeflateOnOOMConcurrentProcs(t *testing.T) {
	env, k := newTestGuest(2, 64<<20)
	d := NewDriver(env, k)
	perNode := k.CapacityPages() / 2
	env.Spawn("host", func(p *sim.Proc) {
		d.Inflate(p, 0, 0, perNode)
		d.Inflate(p, 1, 0, perNode)
		for node := 0; node < 2; node++ {
			node := node
			env.Spawn("alloc", func(q *sim.Proc) {
				for i := 0; i < 4; i++ {
					if _, err := k.Alloc(q, node, 0, 512*4096); err != nil {
						t.Errorf("node %d alloc %d failed: %v", node, i, err)
						return
					}
				}
			})
		}
	})
	env.Run()
}
