package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.50us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.0000s"},
		{-1500, "-1.50us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFromSecondsRoundTrip(t *testing.T) {
	for _, s := range []float64{0, 1e-9, 0.5, 1, 123.456} {
		got := FromSeconds(s).Seconds()
		if diff := got - s; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("FromSeconds(%v).Seconds() = %v", s, got)
		}
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEnv()
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(5, func() { order = append(order, 0) })
	e.At(10, func() { order = append(order, 2) }) // same time: insertion order
	e.Run()
	if fmt.Sprint(order) != "[0 1 2]" {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Fatalf("final time = %v, want 10", e.Now())
	}
}

func TestTimerCancel(t *testing.T) {
	e := NewEnv()
	fired := false
	tm := e.After(5, func() { fired = true })
	e.After(1, func() { tm.Cancel() })
	e.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestAtInPastPanics(t *testing.T) {
	e := NewEnv()
	e.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEnv()
	var hits []Time
	for _, d := range []Time{1, 5, 9, 15} {
		d := d
		e.At(d, func() { hits = append(hits, d) })
	}
	e.RunUntil(9)
	if len(hits) != 3 || e.Now() != 9 {
		t.Fatalf("hits=%v now=%v", hits, e.Now())
	}
	e.Run()
	if len(hits) != 4 || e.Now() != 15 {
		t.Fatalf("after Run: hits=%v now=%v", hits, e.Now())
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEnv()
	var wake Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * Microsecond)
		wake = p.Now()
	})
	e.Run()
	if wake != 42*Microsecond {
		t.Fatalf("woke at %v", wake)
	}
}

func TestProcSequentialSleeps(t *testing.T) {
	e := NewEnv()
	var trace []Time
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10)
			trace = append(trace, p.Now())
		}
	})
	e.Run()
	if fmt.Sprint(trace) != "[10ns 20ns 30ns]" {
		t.Fatalf("trace = %v", trace)
	}
}

func TestProcDoneEvent(t *testing.T) {
	e := NewEnv()
	p1 := e.Spawn("worker", func(p *Proc) { p.Sleep(100) })
	var joined Time
	e.Spawn("joiner", func(p *Proc) {
		p.Wait(p1.Done())
		joined = p.Now()
	})
	e.Run()
	if joined != 100 {
		t.Fatalf("joined at %v, want 100", joined)
	}
}

func TestEventBroadcast(t *testing.T) {
	e := NewEnv()
	ev := new(Event)
	woke := 0
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Wait(ev)
			woke++
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(7)
		ev.Fire()
	})
	e.Run()
	if woke != 5 {
		t.Fatalf("woke = %d, want 5", woke)
	}
	if !ev.Fired() {
		t.Fatal("event not marked fired")
	}
}

func TestEventWaitAfterFire(t *testing.T) {
	e := NewEnv()
	ev := new(Event)
	var at Time = -1
	e.Spawn("late", func(p *Proc) {
		p.Sleep(10)
		p.Wait(ev) // already fired: no block
		at = p.Now()
	})
	e.At(1, func() { ev.Fire() })
	e.Run()
	if at != 10 {
		t.Fatalf("late waiter resumed at %v, want 10", at)
	}
}

func TestEventDoubleFirePanics(t *testing.T) {
	ev := new(Event)
	ev.Fire()
	defer func() {
		if recover() == nil {
			t.Error("double Fire did not panic")
		}
	}()
	ev.Fire()
}

func TestWaitAll(t *testing.T) {
	e := NewEnv()
	a, b := new(Event), new(Event)
	var done Time
	e.Spawn("waiter", func(p *Proc) {
		p.WaitAll(a, b)
		done = p.Now()
	})
	e.At(3, func() { b.Fire() })
	e.At(8, func() { a.Fire() })
	e.Run()
	if done != 8 {
		t.Fatalf("WaitAll completed at %v, want 8", done)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEnv()
	e.Spawn("bad", func(p *Proc) { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Error("proc panic did not propagate to Run")
		}
	}()
	e.Run()
}

func TestMutexFIFO(t *testing.T) {
	e := NewEnv()
	m := e.NewMutex()
	var order []string
	hold := func(name string, start, dur Time) {
		e.Spawn(name, func(p *Proc) {
			p.Sleep(start)
			m.Lock(p)
			order = append(order, name)
			p.Sleep(dur)
			m.Unlock()
		})
	}
	hold("a", 0, 100)
	hold("b", 10, 10)
	hold("c", 5, 10)
	e.Run()
	// c arrived (t=5) before b (t=10), so FIFO order is a, c, b.
	if fmt.Sprint(order) != "[a c b]" {
		t.Fatalf("lock order = %v", order)
	}
	if m.Locked() {
		t.Fatal("mutex still locked at end")
	}
}

func TestMutexUnlockUnlockedPanics(t *testing.T) {
	e := NewEnv()
	m := e.NewMutex()
	defer func() {
		if recover() == nil {
			t.Error("unlock of unlocked mutex did not panic")
		}
	}()
	m.Unlock()
}

func TestQueueFIFO(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	var got []int
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.At(5, func() { q.Put(1); q.Put(2) })
	e.At(9, func() { q.Put(3) })
	e.Run()
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got = %v", got)
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	e := NewEnv()
	q := NewQueue[int](e)
	sum := 0
	for i := 0; i < 4; i++ {
		e.Spawn(fmt.Sprintf("c%d", i), func(p *Proc) { sum += q.Get(p) })
	}
	e.At(2, func() {
		for v := 1; v <= 4; v++ {
			q.Put(v)
		}
	})
	e.Run()
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
	if q.Len() != 0 {
		t.Fatalf("queue still has %d items", q.Len())
	}
}

func TestQueueTryGet(t *testing.T) {
	e := NewEnv()
	q := NewQueue[string](e)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue returned ok")
	}
	q.Put("x")
	v, ok := q.TryGet()
	if !ok || v != "x" {
		t.Fatalf("TryGet = %q, %v", v, ok)
	}
}

func TestStopAndResume(t *testing.T) {
	e := NewEnv()
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("count after Stop = %d", count)
	}
	e.Run()
	if count != 2 {
		t.Fatalf("count after resume = %d", count)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEnv()
		var trace []Time
		q := NewQueue[int](e)
		for i := 0; i < 3; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(Time(i * 3))
				q.Put(i)
				p.Sleep(Time(10 - i))
				trace = append(trace, p.Now())
			})
		}
		e.Spawn("drain", func(p *Proc) {
			for i := 0; i < 3; i++ {
				q.Get(p)
				trace = append(trace, p.Now())
			}
		})
		e.Run()
		return trace
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestDoneAfterFinishIsFired(t *testing.T) {
	e := NewEnv()
	p1 := e.Spawn("worker", func(p *Proc) { p.Sleep(5) })
	e.Run()
	done := p1.Done()
	if !done.Fired() {
		t.Fatal("Done of a finished proc is not fired")
	}
	var at Time = -1
	e.Spawn("joiner", func(p *Proc) {
		p.Sleep(3)
		p.Wait(done) // already fired: no block
		at = p.Now()
	})
	e.Run()
	if at != 8 {
		t.Fatalf("joiner resumed at %v, want 8", at)
	}
	if live := e.LiveProcs(); len(live) != 0 {
		t.Fatalf("live procs %v, want none", live)
	}
}

func TestDoneBeforeFinishWakesWaitersInOrder(t *testing.T) {
	e := NewEnv()
	var log []string
	p1 := e.Spawn("worker", func(p *Proc) { p.Sleep(10) })
	done := p1.Done()
	if done.Fired() {
		t.Fatal("Done of a running proc is already fired")
	}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		e.Spawn(name, func(p *Proc) {
			p.Wait(done)
			log = append(log, fmt.Sprintf("%s@%v", name, p.Now()))
		})
	}
	e.Run()
	want := []string{"w0@10ns", "w1@10ns", "w2@10ns"}
	if fmt.Sprint(log) != fmt.Sprint(want) {
		t.Fatalf("wake order %v, want %v", log, want)
	}
}

// TestDeferArg: static-callback timers run in (time, seq) order with
// every other timer form and, once the pool is warm, allocate nothing.
func TestDeferArg(t *testing.T) {
	e := NewEnv()
	var log []string
	note := func(a any) { log = append(log, *a.(*string)) }
	x, y, z := "x", "y", "z"
	e.DeferArgAt(5, note, &x)
	e.Defer(5, func() { log = append(log, "fn") })
	e.DeferArg(5, note, &y)
	e.DeferArg(1, note, &z)
	e.Run()
	if want := "[z x fn y]"; fmt.Sprint(log) != want {
		t.Fatalf("order %v, want %s", log, want)
	}
	var n int
	count := func(a any) { n += *a.(*int) }
	one := 1
	allocs := testing.AllocsPerRun(1000, func() {
		e.DeferArg(1, count, &one)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("DeferArg allocates %v times, want 0", allocs)
	}
	if n != 1001 {
		t.Errorf("callback ran %d times, want 1001", n)
	}
	if size, want := unsafe.Sizeof(Event{}), 3*unsafe.Sizeof(uintptr(0)); size != want {
		t.Errorf("Event is %d bytes, want %d (two pointers and a flag)", size, want)
	}
}
