package reliable

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// benchSend posts b.N 4 KB messages 0→1 over a flat fabric with filter
// installed, each once the previous one is delivered, and fails the
// benchmark unless every one is.
func benchSend(b *testing.B, filter *scriptFilter) {
	env := sim.NewEnv()
	fab := topo.FlatSpec().Build(env, "bench", 56, 1500*sim.Nanosecond)
	fab.SetFilter(filter)
	tr := New(env, fab)
	sent := 0
	var next func(any)
	next = func(any) {
		if sent < b.N {
			sent++
			tr.Post(0, 0, 1, 4096, 0, next, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	next(nil)
	env.Run()
	b.StopTimer()
	if st := tr.Stats(); st.Delivered != int64(b.N) {
		b.Fatalf("delivered %d of %d", st.Delivered, b.N)
	}
}

// BenchmarkReliableSend measures one acknowledged message per op on a
// clean fabric whose pass-everything filter forces the transport off its
// zero-fault fast path: sequence bookkeeping, the data frame and the ack
// round.
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
