package repro

import (
	"testing"

	"repro/fragvisor"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// benchOptions returns the experiment size for benchmarks: small in
// -short mode, the documented 1/10 paper scale otherwise.
func benchOptions(b *testing.B) experiments.Options {
	if testing.Short() {
		return experiments.QuickOptions()
	}
	return experiments.DefaultOptions()
}

// runFigure executes one figure's experiment b.N times, keeping the last
// table so the run is not optimized away and reporting the row count.
func runFigure(b *testing.B, name string) {
	o := benchOptions(b)
	var tab *metrics.Table
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = experiments.Run(name, o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if tab == nil || len(tab.Rows) == 0 {
		b.Fatal("empty result table")
	}
	b.ReportMetric(float64(len(tab.Rows)), "rows")
}

// One benchmark per evaluation figure. Each regenerates the paper
// figure's full data series; run with -bench to print timings, or use
// cmd/fragbench to see the tables themselves.

func BenchmarkFig01MotivationStudy(b *testing.B)     { runFigure(b, "fig1") }
func BenchmarkFig04DSMFaultTraffic(b *testing.B)     { runFigure(b, "fig4") }
func BenchmarkFig05DSMConcurrentWrites(b *testing.B) { runFigure(b, "fig5") }
func BenchmarkFig06NetworkDelegation(b *testing.B)   { runFigure(b, "fig6") }
func BenchmarkFig07StorageDelegation(b *testing.B)   { runFigure(b, "fig7") }
func BenchmarkFig08NPBvsOvercommit(b *testing.B)     { runFigure(b, "fig8") }
func BenchmarkFig09NPBvsGiantVM(b *testing.B)        { runFigure(b, "fig9") }
func BenchmarkFig10OptimizedGuest(b *testing.B)      { runFigure(b, "fig10") }
func BenchmarkFig11CheckpointTime(b *testing.B)      { runFigure(b, "fig11") }
func BenchmarkFig12LEMP(b *testing.B)                { runFigure(b, "fig12") }
func BenchmarkFig13OpenLambda(b *testing.B)          { runFigure(b, "fig13") }
func BenchmarkFig14SchedulerTrace(b *testing.B)      { runFigure(b, "fig14") }

// BenchmarkVCPUMigration measures the single-migration microbenchmark
// (§7.3: 86 us average, 38 us of it the register dump) and reports the
// simulated latency.
func BenchmarkVCPUMigration(b *testing.B) {
	tb := fragvisor.NewTestbed(2)
	defer tb.Close()
	vm := tb.NewFragVisorVM(2, 4<<30)
	var last fragvisor.Time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Env.Spawn("migrate", func(p *fragvisor.Proc) {
			last = vm.MigrateVCPU(p, 1, 1-vm.VCPUNodes()[1], 0)
		})
		tb.Run()
	}
	b.StopTimer()
	b.ReportMetric(float64(last)/1e3, "virtual-us/migration")
}

// BenchmarkDSMFault measures the simulator's cost per remote DSM write
// fault — the engine's hottest path. Select it with an anchored pattern,
// -bench 'BenchmarkDSMFault$': unanchored, it also matches
// BenchmarkFig04DSMFaultTraffic, a whole fig4 run per op.
func BenchmarkDSMFault(b *testing.B) {
	tb := fragvisor.NewTestbed(2)
	defer tb.Close()
	vm := tb.NewFragVisorVM(2, 4<<30)
	b.ReportAllocs()
	b.ResetTimer()
	tb.Env.Spawn("pingpong", func(p *fragvisor.Proc) {
		for i := 0; i < b.N; i++ {
			vm.DSM.Touch(p, i%2, 12345, true)
		}
	})
	tb.Run()
}

// dsmFaultAllocBudget is what one remote write fault (BenchmarkDSMFault's
// loop body) allocates: the fault's bookkeeping, the directory and
// invalidation procs, and the messages, each message costing only itself.
const dsmFaultAllocBudget = 19

// TestDSMFaultAllocBudget pins BenchmarkDSMFault's allocs/op: a remote
// write fault may allocate no more than dsmFaultAllocBudget objects.
func TestDSMFaultAllocBudget(t *testing.T) {
	tb := fragvisor.NewTestbed(2)
	defer tb.Close()
	vm := tb.NewFragVisorVM(2, 4<<30)
	faults := sim.NewQueue[int](tb.Env)
	tb.Env.Spawn("pingpong", func(p *fragvisor.Proc) {
		for {
			vm.DSM.Touch(p, faults.Get(p), 12345, true)
		}
	})
	touches := 0
	allocs := testing.AllocsPerRun(1000, func() {
		faults.Put(1 - touches%2) // start on node 1: the origin's first touch would hit
		touches++
		tb.Run()
	})
	if got := vm.DSM.TotalStats().WriteFaults; got != int64(touches) {
		t.Fatalf("%d write faults over %d touches: not every touch faulted", got, touches)
	}
	if allocs > dsmFaultAllocBudget {
		t.Errorf("a remote write fault allocates %v objects, budget %d", allocs, dsmFaultAllocBudget)
	}
}

// BenchmarkDSMFaultBytes is BenchmarkDSMFault with a Write of real bytes,
// so every fault moves a materialized page: the path the chaos VM
// workload and checkpoint restore take, where Touch moves zero pages.
func BenchmarkDSMFaultBytes(b *testing.B) {
	tb := fragvisor.NewTestbed(2)
	defer tb.Close()
	vm := tb.NewFragVisorVM(2, 4<<30)
	payload := []byte("dsm-fault-payload")
	b.ReportAllocs()
	b.ResetTimer()
	tb.Env.Spawn("pingpong", func(p *fragvisor.Proc) {
		for i := 0; i < b.N; i++ {
			vm.DSM.Write(p, i%2, 12345, 0, payload)
		}
	})
	tb.Run()
}

// The remaining benchmarks isolate the DES core's primitive costs. The
// balloon, fabric, transport and chaos micros live beside their packages
// (internal/balloon, internal/topo, internal/reliable, internal/chaos);
// `go test -run=NONE -bench=. ./...` runs them all.

// BenchmarkEventDispatch measures one heap push + pop + callback per op
// via a single self-rescheduling deferred event.
func BenchmarkEventDispatch(b *testing.B) {
	e := sim.NewEnv()
	defer e.Close()
	remaining := b.N
	var tick func()
	tick = func() {
		if remaining > 0 {
			remaining--
			e.Defer(1, tick)
		}
	}
	e.Defer(1, tick)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcWake measures the park/dispatch round trip: one Sleep per
// op on a single proc.
func BenchmarkProcWake(b *testing.B) {
	e := sim.NewEnv()
	defer e.Close()
	e.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkQueueChurn measures blocking producer/consumer hand-off: one
// Put+Get pair per op.
func BenchmarkQueueChurn(b *testing.B) {
	e := sim.NewEnv()
	defer e.Close()
	q := sim.NewQueue[int](e)
	e.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			q.Get(p)
		}
	})
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkMutexHandoff measures FIFO lock transfer between two
// contending procs: one Lock+Unlock per op.
func BenchmarkMutexHandoff(b *testing.B) {
	e := sim.NewEnv()
	defer e.Close()
	m := e.NewMutex()
	worker := func(p *sim.Proc) {
		for i := 0; i < b.N/2; i++ {
			m.Lock(p)
			p.Sleep(1)
			m.Unlock()
		}
	}
	e.Spawn("a", worker)
	e.Spawn("b", worker)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkWaitTimeoutStorm measures the RPC-timeout pattern where the
// reply beats the deadline — the path that used to leak cancelled timers.
func BenchmarkWaitTimeoutStorm(b *testing.B) {
	e := sim.NewEnv()
	defer e.Close()
	e.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			ev := e.NewEvent()
			e.After(1, ev.Fire)
			p.WaitTimeout(ev, sim.Second)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkSpawnChurn measures short-lived process turnover, exercising
// worker reuse and proc-table reaping: one spawn+finish per op.
func BenchmarkSpawnChurn(b *testing.B) {
	e := sim.NewEnv()
	defer e.Close()
	e.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			w := e.Spawn("w", func(p *sim.Proc) { p.Sleep(1) })
			p.Wait(w.Done())
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}
