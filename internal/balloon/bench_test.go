package balloon

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkBalloonInflate measures one inflate/deflate round trip of a
// single batch against a live guest — the resize controller's hot path.
func BenchmarkBalloonInflate(b *testing.B) {
	env, k := newTestGuest(1, 64<<20)
	drv := NewDriver(env, k, DefaultCosts())
	batch := DefaultCosts().BatchPages
	env.Spawn("bench", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			took := drv.Inflate(p, 0, 0, batch)
			drv.Deflate(p, 0, 0, took)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkWSSUpdate measures the working-set estimator's per-telemetry
// cost, which is paid on every guest allocation and free.
func BenchmarkWSSUpdate(b *testing.B) {
	e := NewEstimator(0.2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Observe(int64(i & 0xfff))
	}
}
