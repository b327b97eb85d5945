package sim

import (
	"fmt"
	"runtime"
	"testing"
)

// These are the regression tests for the three unbounded-growth bugs fixed
// in the DES core. Each fails against the previous implementation:
//
//   - Queue/Mutex waiter lists shifted slices with s = s[1:], permanently
//     pinning popped elements through the shared backing array.
//   - Timer.Cancel left cancelled timers in the event heap until their
//     scheduled time, so storms of far-future timers cancelled early
//     accumulated corpses.
//   - Env.procs was append-only, so long runs leaked every proc ever
//     spawned and LiveProcs degraded to O(total ever spawned).

// heapAllocAfterGC returns the live heap after a full collection.
func heapAllocAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestQueueReleasesDrainedItems pins the ring-buffer fix: after a burst of
// large items is drained (one survivor keeps the queue from being
// trivially empty), the backing storage must not retain the burst. The
// old slice-shift implementation kept all ~40 MB reachable through the
// advanced slice header.
func TestQueueReleasesDrainedItems(t *testing.T) {
	e := NewEnv()
	q := NewQueue[[]byte](e)
	const (
		items    = 10_000
		itemSize = 4 << 10 // 40 MB peak
	)
	before := heapAllocAfterGC()
	for i := 0; i < items; i++ {
		q.Put(make([]byte, itemSize))
	}
	for i := 0; i < items-1; i++ {
		if _, ok := q.TryGet(); !ok {
			t.Fatalf("TryGet %d failed", i)
		}
	}
	if q.Len() != 1 {
		t.Fatalf("queue length = %d, want 1", q.Len())
	}
	retained := int64(heapAllocAfterGC()) - int64(before)
	// One live item plus ring slack; the leak was ~items*itemSize.
	if limit := int64(4 << 20); retained > limit {
		t.Fatalf("drained queue retains %d bytes (limit %d): popped items are still pinned", retained, limit)
	}
	// The queue must stay reachable through the measurement, or the
	// collector frees the backing array in both implementations.
	runtime.KeepAlive(q)
}

// TestQueueSoakSteadyHeap asserts steady-state heap over a produce/consume
// soak: repeated fill/drain cycles through blocking Get must not grow the
// live heap with cycle count.
func TestQueueSoakSteadyHeap(t *testing.T) {
	e := NewEnv()
	q := NewQueue[[]byte](e)
	const (
		cycles = 200
		burst  = 500
	)
	var baseline int64
	for c := 0; c < cycles; c++ {
		e.Spawn("consumer", func(p *Proc) {
			for i := 0; i < burst; i++ {
				q.Get(p)
			}
		})
		e.Spawn("producer", func(p *Proc) {
			for i := 0; i < burst; i++ {
				q.Put(make([]byte, 512))
				p.Sleep(1)
			}
		})
		e.Run()
		if q.Len() != 0 {
			t.Fatalf("cycle %d: queue not drained (%d left)", c, q.Len())
		}
		if c == 10 {
			baseline = int64(heapAllocAfterGC())
		}
	}
	growth := int64(heapAllocAfterGC()) - baseline
	if limit := int64(2 << 20); growth > limit {
		t.Fatalf("heap grew %d bytes over %d steady-state cycles (limit %d)", growth, cycles-10, limit)
	}
	runtime.KeepAlive(q)
	runtime.KeepAlive(e)
}

// TestCancelStormBoundedHeap pins the lazy-deletion fix: a storm of
// timers set one virtual second out and each cancelled a nanosecond
// later must not accumulate cancelled timers in the event heap. Before
// the fix every iteration left one corpse with a deadline one virtual
// second out, so Pending() reached the iteration count.
func TestCancelStormBoundedHeap(t *testing.T) {
	e := NewEnv()
	const timers = 5000
	maxPending := 0
	e.Spawn("client", func(p *Proc) {
		for i := 0; i < timers; i++ {
			tm := e.After(Second, func() { t.Errorf("timer %d fired after its Cancel", i) })
			p.Sleep(1)
			tm.Cancel()
			if n := e.Pending(); n > maxPending {
				maxPending = n
			}
		}
	})
	e.Run()
	// Compaction keeps dead timers under half the heap; with ~2 live
	// timers per iteration the bound is a small constant (twice the
	// 64-entry compaction floor), not O(timers).
	if limit := 128; maxPending > limit {
		t.Fatalf("event heap reached %d entries during the storm (limit %d): cancelled timers accumulate", maxPending, limit)
	}
}

// TestProcTableReaped pins the proc-reaping fix: churning through many
// short-lived processes must keep the process table O(live), not O(ever
// spawned), while Spawned still reports the true total.
func TestProcTableReaped(t *testing.T) {
	e := NewEnv()
	const n = 10_000
	maxTable := 0
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < n; i++ {
			w := e.Spawn("worker", func(p *Proc) { p.Sleep(1) })
			p.Wait(w.Done())
			if len(e.procs) > maxTable {
				maxTable = len(e.procs)
			}
		}
	})
	e.Run()
	// Twice the 32-entry compaction floor; the leak was O(n).
	if limit := 64; maxTable > limit {
		t.Fatalf("process table reached %d entries for %d sequential procs (limit %d)", maxTable, n, limit)
	}
	if got := e.Spawned(); got != n+1 {
		t.Fatalf("Spawned() = %d, want %d", got, n+1)
	}
	if live := e.LiveProcs(); len(live) != 0 {
		t.Fatalf("LiveProcs = %v, want none", live)
	}
}

// TestLiveProcsOrderStableAcrossReaping asserts that reaping preserves the
// spawn order of survivors: daemons interleaved with thousands of
// short-lived procs must come back from LiveProcs in spawn order.
func TestLiveProcsOrderStableAcrossReaping(t *testing.T) {
	e := NewEnv()
	block := new(Event)
	var want []string
	for d := 0; d < 5; d++ {
		name := fmt.Sprintf("daemon-%d", d)
		want = append(want, name)
		e.Spawn(name, func(p *Proc) { p.Wait(block) })
		for i := 0; i < 200; i++ {
			e.Spawn("ephemeral", func(p *Proc) { p.Sleep(1) })
		}
	}
	e.Run()
	live := e.LiveProcs()
	if fmt.Sprint(live) != fmt.Sprint(want) {
		t.Fatalf("LiveProcs after churn = %v, want %v", live, want)
	}
	if len(e.procs) >= 1005 {
		t.Fatalf("process table holds %d entries, finished procs not reaped", len(e.procs))
	}
	block.Fire()
	e.Run()
}

// TestTimerHeapCompactionPreservesOrder cancels an interleaved majority of
// timers mid-run (forcing compaction) and asserts the survivors still fire
// in (time, seq) order.
func TestTimerHeapCompactionPreservesOrder(t *testing.T) {
	e := NewEnv()
	var fired []int
	var cancels []*Timer
	for i := 0; i < 500; i++ {
		i := i
		tm := e.At(Time(100+i), func() { fired = append(fired, i) })
		if i%2 == 1 {
			cancels = append(cancels, tm)
		}
	}
	e.At(50, func() {
		for _, tm := range cancels {
			tm.Cancel()
		}
	})
	e.Run()
	if len(fired) != 250 {
		t.Fatalf("fired %d callbacks, want 250", len(fired))
	}
	for k, v := range fired {
		if v != 2*k {
			t.Fatalf("fired[%d] = %d, want %d: compaction broke ordering", k, v, 2*k)
		}
	}
}
