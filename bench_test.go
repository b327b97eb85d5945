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
			last = vm.MigrateVCPU(p, 1, 1-vm.VCPUNodes()[1])
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
// loop body) allocates: nothing. The fault's bookkeeping (its grant,
// events and the directory's own strand ride in it) and its invalidation
// task are recycled by the DSM, its messages by the messaging layer (a
// reply is its request turned round), and the directory runs on event
// callbacks, so no process is spawned.
const dsmFaultAllocBudget = 0

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

// dsmFaultDispatchBudget is how many times one remote write fault
// switches into its faulting proc: never. The fault handler's CPU time
// delays the request on a timer instead of parking the proc in a Sleep of
// its own, and the proc parks once, in Wait, where it runs the fault's
// callbacks on its own coroutine until its grant wakes it in place.
const dsmFaultDispatchBudget = 0

// dsmFaultEvents is how many events TestDSMFaultDispatchBudget's faults
// schedule, in turn on node 1 and on the origin: the handler's timer,
// the request's delivery, the grant's and its ack's, and the proc's
// wake-up (5); the origin's fault adds the round trip that invalidates
// node 1 (7). Parking the proc once instead of twice, and resuming it in
// place, moved no event.
var dsmFaultEvents = [2]uint64{5, 7}

// TestDSMFaultDispatchBudget pins the proc switches of a remote write
// fault at dsmFaultDispatchBudget and its events at dsmFaultEvents. A
// callback due inside each fault's handler window keeps the event queue
// busy there, so a handler charged by a Sleep could not skip its park on
// Sleep's fast path.
func TestDSMFaultDispatchBudget(t *testing.T) {
	tb := fragvisor.NewTestbed(2)
	defer tb.Close()
	vm := tb.NewFragVisorVM(2, 4<<30)
	env := tb.Env
	const faults = 100
	type cost struct{ dispatches, events uint64 }
	var costs []cost
	env.Spawn("pingpong", func(p *fragvisor.Proc) {
		for i := 0; i < faults; i++ {
			env.Defer(sim.Microsecond, func() {})
			d0, s0 := env.Dispatches(), env.Scheduled()
			vm.DSM.Touch(p, 1-i%2, 12345, true) // start on node 1: the origin's first touch would hit
			costs = append(costs, cost{env.Dispatches() - d0, env.Scheduled() - s0})
		}
	})
	tb.Run()
	if got := vm.DSM.TotalStats().WriteFaults; got != faults || len(costs) != faults {
		t.Fatalf("%d write faults over %d touches: not every touch faulted", got, len(costs))
	}
	for i, c := range costs {
		if c.dispatches > dsmFaultDispatchBudget {
			t.Errorf("fault %d dispatches its proc %d times, budget %d", i, c.dispatches, dsmFaultDispatchBudget)
		}
		if want := dsmFaultEvents[i%2]; c.events != want {
			t.Errorf("fault %d schedules %d events, want %d", i, c.events, want)
		}
	}
}

// readCycle is one op of BenchmarkDSMFaultRead on a three-node VM whose
// node 2 owns page 12345: node 1 read-faults, and the directory fetches
// the page from node 2, downgrading it (grantRead's owner-fetch path);
// then node 2 upgrades, invalidating node 1 so the next read faults again.
func readCycle(p *fragvisor.Proc, vm *fragvisor.VM) {
	vm.DSM.Touch(p, 1, 12345, false)
	vm.DSM.Touch(p, 2, 12345, true)
}

// newReadBed returns a three-node VM whose node 2 owns page 12345.
func newReadBed() (*fragvisor.Testbed, *fragvisor.VM) {
	tb := fragvisor.NewTestbed(3)
	vm := tb.NewFragVisorVM(3, 4<<30)
	tb.Env.Spawn("claim", func(p *fragvisor.Proc) { vm.DSM.Touch(p, 2, 12345, true) })
	tb.Run()
	return tb, vm
}

// BenchmarkDSMFaultRead measures a remote read fault served by a node
// other than the origin — request, directory lock, fetch from the owner,
// grant — paired with the owner's upgrade that re-arms it (readCycle).
// Select it with an anchored pattern, like BenchmarkDSMFault.
func BenchmarkDSMFaultRead(b *testing.B) {
	tb, vm := newReadBed()
	defer tb.Close()
	b.ReportAllocs()
	b.ResetTimer()
	tb.Env.Spawn("readers", func(p *fragvisor.Proc) {
		for i := 0; i < b.N; i++ {
			readCycle(p, vm)
		}
	})
	tb.Run()
}

// dsmFaultReadAllocBudget is what one readCycle allocates: nothing. A
// read fault (its bookkeeping, request, owner fetch and grant) and an
// upgrade fault (the same, with an invalidation task and call in place of
// the fetch) reuse recycled objects, and the zero page the fetch moves
// has no bytes to copy.
const dsmFaultReadAllocBudget = 0

// TestDSMFaultReadAllocBudget pins BenchmarkDSMFaultRead's allocs/op.
func TestDSMFaultReadAllocBudget(t *testing.T) {
	tb, vm := newReadBed()
	defer tb.Close()
	claimed := vm.DSM.NodeStats(2)
	cycles := sim.NewQueue[struct{}](tb.Env)
	tb.Env.Spawn("readers", func(p *fragvisor.Proc) {
		for {
			cycles.Get(p)
			readCycle(p, vm)
		}
	})
	ops := 0
	allocs := testing.AllocsPerRun(1000, func() {
		cycles.Put(struct{}{})
		ops++
		tb.Run()
	})
	st1, st2 := vm.DSM.NodeStats(1), vm.DSM.NodeStats(2)
	reads, upgrades := st1.ReadFaults, st2.WriteFaults-claimed.WriteFaults
	if reads != int64(ops) || upgrades != int64(ops) {
		t.Fatalf("%d read and %d write faults over %d cycles: not every access faulted", reads, upgrades, ops)
	}
	if moved := st2.BytesMoved - claimed.BytesMoved; moved != 0 || st1.BytesMoved != int64(ops)*4096 {
		t.Fatalf("node 1 moved %d bytes, node 2 %d: the reads did not fetch from node 2", st1.BytesMoved, moved)
	}
	if allocs > dsmFaultReadAllocBudget {
		t.Errorf("a read cycle allocates %v objects, budget %d", allocs, dsmFaultReadAllocBudget)
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

// TestDSMFaultBytesAllocBudget pins BenchmarkDSMFaultBytes's allocs/op at
// zero: the page copy a fault moves comes from the DSM's page free list,
// and the requester installs it into its replica's own buffer.
func TestDSMFaultBytesAllocBudget(t *testing.T) {
	tb := fragvisor.NewTestbed(2)
	defer tb.Close()
	vm := tb.NewFragVisorVM(2, 4<<30)
	payload := []byte("dsm-fault-payload")
	faults := sim.NewQueue[int](tb.Env)
	tb.Env.Spawn("pingpong", func(p *fragvisor.Proc) {
		for {
			vm.DSM.Write(p, faults.Get(p), 12345, 0, payload)
		}
	})
	writes := 0
	allocs := testing.AllocsPerRun(1000, func() {
		faults.Put(1 - writes%2)
		writes++
		tb.Run()
	})
	st := vm.DSM.TotalStats()
	if st.WriteFaults != int64(writes) || st.BytesMoved != int64(writes)*4096 {
		t.Fatalf("%d write faults moving %d bytes over %d writes: not every write moved the page",
			st.WriteFaults, st.BytesMoved, writes)
	}
	if allocs != 0 {
		t.Errorf("a remote write fault moving bytes allocates %v objects, want 0", allocs)
	}
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

// BenchmarkProcWake measures a Sleep with nothing else queued: one Sleep
// per op on a single proc, each taking Sleep's in-place fast path, with no
// timer and no coroutine switch. BenchmarkProcResume measures a park
// resumed in place, BenchmarkProcSwitch the park/dispatch round trip.
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

// BenchmarkProcSwitch measures the park/dispatch round trip: two procs
// whose Sleeps interleave, so the other's wake-up is always due first and
// every Sleep parks. One Sleep per op.
func BenchmarkProcSwitch(b *testing.B) {
	e := sim.NewEnv()
	defer e.Close()
	for i := sim.Time(0); i < 2; i++ {
		e.Spawn("sleeper", func(p *sim.Proc) {
			p.Sleep(i)
			for n := 0; n < b.N/2; n++ {
				p.Sleep(2)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcResume measures a park that resumes in place: one proc
// whose every Sleep has a callback due first, so the Sleep parks on a
// timer, but no other proc runs and the proc runs the callback and pops
// its own wake-up on its own coroutine, with no switch. One Sleep and one
// callback per op.
func BenchmarkProcResume(b *testing.B) {
	e := sim.NewEnv()
	defer e.Close()
	noop := func() {}
	e.Spawn("sleeper", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			e.Defer(1, noop)
			p.Sleep(2)
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
