package chaos

import (
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/leakcheck"
)

// TestMain fails the package when its tests leave goroutines behind:
// every episode must close its world once it has been judged.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// liveHeap returns the live heap after two full collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFinishedWorldsLeaveNothingBehind runs fig4, fig8 and fig14 twice
// and the clean chaos search, then checks that no goroutine outlived
// them and that the live heap is back near where it started. Before
// environments were closed, every finished world stayed reachable from
// its parked worker goroutines: this mix left 1,335 goroutines and
// 11.8 MB behind.
func TestFinishedWorldsLeaveNothingBehind(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three figures twice and the clean search; run without -short")
	}
	goroutines, heap := runtime.NumGoroutine(), liveHeap()
	for pass := 0; pass < 2; pass++ {
		for _, fig := range []string{"fig4", "fig8", "fig14"} {
			if _, err := experiments.Run(fig, experiments.QuickOptions()); err != nil {
				t.Fatal(err)
			}
		}
	}
	Search(Config{Episodes: 64, Seed: 1})
	n := leakcheck.Settle(goroutines)
	grown := int64(liveHeap()) - int64(heap)
	t.Logf("%+d goroutines, %+.2f MB live heap", n-goroutines, float64(grown)/(1<<20))
	if n > goroutines {
		t.Errorf("%d goroutines left behind", n-goroutines)
	}
	const slack = 4 << 20
	if grown > slack {
		t.Errorf("live heap grew %.1f MB, limit %.1f MB", float64(grown)/(1<<20), float64(slack)/(1<<20))
	}
}
