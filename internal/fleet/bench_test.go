package fleet

import "testing"

// BenchmarkSoakWorld measures one whole soak world per op — the seed-42,
// 8-VM world TestSoakSteadyHeap samples, run until its departures drain:
// admission, leases, reclaims, and the consolidation passes, verify
// scans and rebalance ticks each change to the books triggers; a
// settled fleet schedules no tick. It is the fleet control plane's unit
// cost.
func BenchmarkSoakWorld(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env, f := newSoak(42, 8)
		env.Run()
		if vs := f.VerifyReport(); len(vs) != 0 {
			b.Fatalf("soak world violated: %v", vs)
		}
	}
}

// BenchmarkVerifyReport measures one full invariant scan of the busy
// world (newBusyFleet): every VM, every placement and the whole lease
// ledger, with books that balance. It is the cost of each quiescent-point
// check that finds the event log grown.
func BenchmarkVerifyReport(b *testing.B) {
	env, f := newBusyFleet()
	defer env.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := f.VerifyReport(); len(vs) != 0 {
			b.Fatalf("busy world violated: %v", vs)
		}
	}
}
