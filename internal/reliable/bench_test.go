package reliable

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// benchSend sends b.N 4 KB messages 0→1 over a flat fabric with filter
// installed, and fails the benchmark on the first undelivered one.
func benchSend(b *testing.B, filter *scriptFilter) {
	env := sim.NewEnv()
	fab := topo.FlatSpec().Build(env, "bench", 56, 1500*sim.Nanosecond)
	fab.SetFilter(filter)
	tr := New(env, fab)
	env.Spawn("sender", func(pr *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := tr.Send(pr, 0, 0, 1, 4096); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}

// BenchmarkReliableSend measures one acknowledged send per op on a clean
// fabric whose pass-everything filter forces the transport off its
// zero-fault fast path: sequence bookkeeping, the data frame, the ack
// round and the acked-event wait.
func BenchmarkReliableSend(b *testing.B) {
	benchSend(b, &scriptFilter{})
}

// BenchmarkRetryStorm measures the transport's worst case: every message
// loses its first data frame, forcing a full RTO wait plus one
// retransmission. Acks always pass. One delivered-after-retry message
// per op.
func BenchmarkRetryStorm(b *testing.B) {
	frames := 0
	drop := &scriptFilter{fn: func(from, to, size int) topo.Outcome {
		if from == 0 && to == 1 {
			frames++
			return topo.Outcome{Drop: frames%2 == 1}
		}
		return topo.Outcome{}
	}}
	benchSend(b, drop)
}
