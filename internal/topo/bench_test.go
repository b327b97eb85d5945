package topo

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkTopoRoute measures one cross-rack send per op: route lookup
// plus charging all four links of a 2-rack tree with an oversubscribed
// spine — the per-message overhead the tree adds over the flat fabric's
// single-link charge.
func BenchmarkTopoRoute(b *testing.B) {
	env := sim.NewEnv()
	fab := TreeSpec(2, 2, 4).Build(env, "bench", 56, 1500*sim.Nanosecond)
	env.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			fab.Send(0, 2, 4096, nil)
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkLinkContention measures a contended shared link: two senders
// in one rack blast a receiver across the spine, so every message queues
// on the rack's ToR uplink FIFO. One delivered message per op.
func BenchmarkLinkContention(b *testing.B) {
	env := sim.NewEnv()
	fab := TreeSpec(2, 2, 4).Build(env, "bench", 56, 1500*sim.Nanosecond)
	env.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < b.N/2+1; i++ {
			ev := env.NewEvent()
			fab.Send(0, 2, 65536, nil)
			fab.Send(1, 2, 65536, ev.Fire)
			p.Wait(ev)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}
