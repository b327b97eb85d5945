package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/leakcheck"
)

// noLeak records the goroutine count now and, when the test ends, fails
// it unless the count is back there: every worker coroutine the test's
// environments started must have exited.
func noLeak(t *testing.T) {
	t.Helper()
	start := runtime.NumGoroutine()
	t.Cleanup(func() {
		if n := leakcheck.Settle(start); n > start {
			t.Errorf("%d goroutines at the end, %d at the start: workers outlived Close", n, start)
		}
	})
}

// mustPanic runs f and returns the first line of its panic message,
// failing the test when f returns normally.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg, _, _ = strings.Cut(fmt.Sprint(r), "\n")
			}
		}()
		f()
		t.Fatal("no panic")
	}()
	return msg
}

// TestCloseStopsParkedProcs parks a proc in each blocking primitive and
// closes the environment under it: the proc's worker exits, the code after
// the blocking call never runs, its deferred call runs once, and the proc
// stays listed as live.
func TestCloseStopsParkedProcs(t *testing.T) {
	block := map[string]func(e *Env, p *Proc){
		"Sleep": func(e *Env, p *Proc) { p.Sleep(Second) },
		"Wait":  func(e *Env, p *Proc) { p.Wait(e.NewEvent()) },
		"WaitTimeout": func(e *Env, p *Proc) {
			p.WaitTimeout(e.NewEvent(), Second)
		},
		"Mutex.Lock": func(e *Env, p *Proc) {
			m := e.NewMutex()
			m.Lock(p)
			m.Lock(p)
		},
		"Queue.Get":  func(e *Env, p *Proc) { NewQueue[int](e).Get(p) },
		"PS.Consume": func(e *Env, p *Proc) { NewPS(e, 1).Consume(p, 1e9) },
	}
	for name, f := range block {
		t.Run(name, func(t *testing.T) {
			noLeak(t)
			e := NewEnv()
			deferred, returned := 0, false
			e.Spawn("blocked", func(p *Proc) {
				defer func() { deferred++ }()
				f(e, p)
				returned = true
			})
			e.RunUntil(Millisecond)
			if got := e.LiveProcs(); len(got) != 1 {
				t.Fatalf("live procs before Close = %v, want the blocked proc", got)
			}
			e.Close()
			if returned || deferred != 1 {
				t.Fatalf("after Close: returned=%v deferred=%d, want false and 1", returned, deferred)
			}
			if got := e.LiveProcs(); len(got) != 1 || got[0] != "blocked" {
				t.Fatalf("live procs after Close = %v, want [blocked]", got)
			}
			if e.Now() != Millisecond {
				t.Fatalf("Close moved the clock to %v", e.Now())
			}
		})
	}
}

// TestCloseStopsIdleWorkers checks the workers pooled on the free list:
// a run that ended with every proc finished still holds one coroutine per
// proc that was live at the peak, and Close ends them all.
func TestCloseStopsIdleWorkers(t *testing.T) {
	noLeak(t)
	e := NewEnv()
	for i := 0; i < 50; i++ {
		e.Spawn("short", func(p *Proc) { p.Sleep(Time(i + 1)) })
	}
	e.Run()
	if idle := len(e.workerFree); idle != 50 {
		t.Fatalf("%d pooled workers after the run, want 50", idle)
	}
	// Counted across Close, not from the test's start: a goroutine of an
	// earlier test may still be exiting when this one begins.
	before := runtime.NumGoroutine()
	e.Close()
	if ended := before - leakcheck.Settle(before-50); ended < 50 {
		t.Fatalf("Close ended %d goroutines, want the 50 pooled workers", ended)
	}
}

// TestCloseDropsNeverDispatchedProcs checks a proc spawned but never run:
// it has no worker, so Close has nothing to stop, and its function never
// starts.
func TestCloseDropsNeverDispatchedProcs(t *testing.T) {
	noLeak(t)
	e := NewEnv()
	ran := false
	e.Spawn("waiting", func(p *Proc) { p.Sleep(Second) })
	e.RunUntil(1)
	e.Spawn("never", func(p *Proc) { ran = true })
	e.Close()
	if ran {
		t.Fatal("a proc spawned before Close ran its function")
	}
	if got := e.LiveProcs(); len(got) != 2 {
		t.Fatalf("live procs = %v, want both procs", got)
	}
}

// TestCloseDeferredCalls covers proc code whose deferred calls touch the
// world while Close unwinds it: a deferred Unlock and Fire schedule wake-ups
// into the closed heap, a deferred call that parks again is cut where it
// parks without escaping Close, and one that panics is dropped. Each
// deferred call runs exactly once, and none of the procs they wake runs.
func TestCloseDeferredCalls(t *testing.T) {
	noLeak(t)
	e := NewEnv()
	m := e.NewMutex()
	ev := e.NewEvent()
	outer, reparked, resumed, panicked := 0, 0, false, 0
	e.Spawn("holder", func(p *Proc) {
		defer func() { outer++ }()
		defer func() {
			reparked++
			p.Sleep(5)
			resumed = true
		}()
		defer ev.Fire()
		defer m.Unlock()
		m.Lock(p)
		p.Sleep(Second)
	})
	woken := false
	e.Spawn("waiter", func(p *Proc) {
		m.Lock(p)
		woken = true
	})
	e.Spawn("watcher", func(p *Proc) {
		p.Wait(ev)
		woken = true
	})
	e.Spawn("panicker", func(p *Proc) {
		defer func() {
			panicked++
			panic("deferred panic while closing")
		}()
		p.Sleep(Second)
	})
	e.RunUntil(Millisecond)
	e.Close()
	if outer != 1 || reparked != 1 || panicked != 1 {
		t.Fatalf("deferred calls ran outer=%d reparked=%d panicked=%d times, want 1 each", outer, reparked, panicked)
	}
	if resumed || woken {
		t.Fatalf("code ran after Close: resumed=%v woken=%v", resumed, woken)
	}
	if !ev.Fired() || !m.Locked() {
		t.Fatalf("deferred Fire/Unlock did not run: fired=%v locked=%v (the lock passes to the waiter)", ev.Fired(), m.Locked())
	}
}

// TestCloseIsIdempotent checks a second Close is a no-op.
func TestCloseIsIdempotent(t *testing.T) {
	noLeak(t)
	e := NewEnv()
	deferred := 0
	e.Spawn("p", func(p *Proc) {
		defer func() { deferred++ }()
		p.Sleep(Second)
	})
	e.RunUntil(1)
	e.Close()
	e.Close()
	if deferred != 1 {
		t.Fatalf("deferred call ran %d times, want 1", deferred)
	}
}

// TestCloseAfterProcPanic closes an environment whose Run re-panicked a
// proc's panic: the panicking proc finished normally from the core's view,
// and the procs still parked are stopped.
func TestCloseAfterProcPanic(t *testing.T) {
	noLeak(t)
	e := NewEnv()
	e.Spawn("parked", func(p *Proc) { p.Sleep(Second) })
	e.Spawn("bad", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	if msg := mustPanic(t, e.Run); !strings.Contains(msg, `proc "bad" panicked: boom`) {
		t.Fatalf("Run panicked with %q", msg)
	}
	e.Close()
}

// TestCloseAfterProcGoexit closes an environment whose Run was ended by a
// proc's runtime.Goexit. The event loop never got control back, so the
// Goexiting proc is still current; its worker is gone, so Close must not
// mistake the call for one from inside a proc.
func TestCloseAfterProcGoexit(t *testing.T) {
	noLeak(t)
	e := NewEnv()
	e.Spawn("parked", func(p *Proc) { p.Sleep(Second) })
	e.Spawn("goexit", func(p *Proc) {
		p.Sleep(1)
		runtime.Goexit()
	})
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		e.Run()
	}()
	<-ended
	e.Close()
}

// TestClosedEnvRejectsUse checks the misuse panics: Spawn and Run after
// Close, and Close from inside a proc (which Run reports as that proc's
// panic).
func TestClosedEnvRejectsUse(t *testing.T) {
	noLeak(t)
	inner := NewEnv()
	inner.Spawn("closer", func(p *Proc) { inner.Close() })
	if msg := mustPanic(t, inner.Run); !strings.Contains(msg, `sim: Close from inside proc "closer"`) {
		t.Fatalf("Close inside a proc: Run panicked with %q", msg)
	}
	inner.Close()

	e := NewEnv()
	e.Close()
	if msg := mustPanic(t, func() { e.Spawn("late", func(*Proc) {}) }); msg != `sim: Spawn("late") after Close` {
		t.Fatalf("Spawn after Close panicked with %q", msg)
	}
	if msg := mustPanic(t, e.Run); msg != "sim: Run after Close" {
		t.Fatalf("Run after Close panicked with %q", msg)
	}
}
