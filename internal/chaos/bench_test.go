package chaos

import "testing"

// BenchmarkChaosEpisode measures one full chaos episode per op — cluster
// and VM construction, a generated fault schedule applied to the
// recovery workload, and the whole oracle registry judging quiescence —
// the unit cost that sizes a chaos search (cmd/fragchaos).
func BenchmarkChaosEpisode(b *testing.B) {
	ep := Generate(Config{Episodes: 1, Seed: 1, Workloads: []string{WorkloadVM}})[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := Run(ep, Hooks{}); len(vs) != 0 {
			b.Fatalf("chaos episode violated: %v", vs)
		}
	}
}
