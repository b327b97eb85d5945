package sim

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// The tests here park a proc with a callback due before its wake-up, so
// the callback runs on the parked proc's coroutine (Proc.park resumes it
// in place), and check that the event loop's contract holds there as it
// does on Run's own goroutine.

// TestInlineCallbackPanicLeavesRun: a callback that panics while procs are
// parked makes Run panic with the callback's own value, not with a proc
// panic, and Close afterwards unwinds both parked procs once each.
func TestInlineCallbackPanicLeavesRun(t *testing.T) {
	noLeak(t)
	e := NewEnv()
	boom := errors.New("callback boom")
	deferred, resumed := 0, false
	e.Spawn("waiter", func(p *Proc) {
		defer func() { deferred++ }()
		p.Wait(new(Event))
		resumed = true
	})
	e.Spawn("sleeper", func(p *Proc) {
		defer func() { deferred++ }()
		e.Defer(1, func() { panic(boom) })
		p.Sleep(2)
		resumed = true
	})
	var got any
	func() {
		defer func() { got = recover() }()
		e.Run()
	}()
	if got != boom {
		t.Fatalf("Run panicked with %v, want the callback's own value %v", got, boom)
	}
	if e.Now() != 1 || deferred != 0 || resumed {
		t.Fatalf("after the panic: now=%v deferred=%d resumed=%v, want 1ns, 0, false", e.Now(), deferred, resumed)
	}
	e.Close()
	if deferred != 2 || resumed {
		t.Fatalf("after Close: deferred=%d resumed=%v, want 2, false", deferred, resumed)
	}
	if got := e.LiveProcs(); fmt.Sprint(got) != "[waiter sleeper]" {
		t.Fatalf("live procs after Close = %v, want [waiter sleeper]", got)
	}
}

// TestInlineCallbackGoexitEndsRun: a callback that calls runtime.Goexit
// (what t.FailNow does) ends the goroutine that called Run, as a proc's
// Goexit does, and Close then leaves no goroutine behind. The parked
// proc's deferred call runs once, whether the Goexit or Close unwinds it.
func TestInlineCallbackGoexitEndsRun(t *testing.T) {
	noLeak(t)
	e := NewEnv()
	deferred, resumed := 0, false
	e.Spawn("sleeper", func(p *Proc) {
		defer func() { deferred++ }()
		e.Defer(1, runtime.Goexit)
		p.Sleep(2)
		resumed = true
	})
	returned := false
	ended := make(chan struct{})
	go func() {
		defer close(ended)
		e.Run()
		returned = true
	}()
	<-ended
	if returned {
		t.Fatal("Run returned normally after a callback called runtime.Goexit")
	}
	e.Close()
	if deferred != 1 || resumed {
		t.Fatalf("after Close: deferred=%d resumed=%v, want 1, false", deferred, resumed)
	}
}

// TestInlineCallbackStop: a callback that calls Stop ends Run after its
// own event, before a callback due at the same instant, and the parked
// proc resumes on the next Run.
func TestInlineCallbackStop(t *testing.T) {
	noLeak(t)
	e := NewEnv()
	defer e.Close()
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%v", what, e.Now())) }
	e.Spawn("sleeper", func(p *Proc) {
		e.Defer(1, e.Stop)
		e.Defer(1, func() { note("after") })
		p.Sleep(2)
		note("woke")
	})
	e.Run()
	if len(log) != 0 || e.Now() != 1 || e.Pending() != 2 {
		t.Fatalf("after Stop: log %v, now %v, pending %d; want nothing run, 1ns, 2", log, e.Now(), e.Pending())
	}
	e.Run()
	if got, want := fmt.Sprint(log), "[after@1ns woke@2ns]"; got != want {
		t.Fatalf("log %s, want %s", got, want)
	}
}

// TestInlineRunUntilDeadline: callbacks due by RunUntil's deadline run, a
// callback and the wake-up past it stay queued, and the clock stops at
// the deadline.
func TestInlineRunUntilDeadline(t *testing.T) {
	noLeak(t)
	e := NewEnv()
	defer e.Close()
	var log []string
	note := func(what string) { log = append(log, fmt.Sprintf("%s@%v", what, e.Now())) }
	e.Spawn("sleeper", func(p *Proc) {
		e.Defer(1, func() { note("early") })
		e.Defer(7, func() { note("late") })
		p.Sleep(10)
		note("woke")
	})
	e.RunUntil(5)
	if got := fmt.Sprint(log); got != "[early@1ns]" || e.Now() != 5 || e.Pending() != 2 {
		t.Fatalf("RunUntil(5): log %s, now %v, pending %d; want [early@1ns], 5ns, 2", got, e.Now(), e.Pending())
	}
	e.Run()
	if got, want := fmt.Sprint(log), "[early@1ns late@7ns woke@10ns]"; got != want {
		t.Fatalf("log %s, want %s", got, want)
	}
}

// TestInlineCallbackClosePanics: Close from a callback that runs on a
// parked proc's coroutine panics, as Close from inside a proc does, and
// leaves the environment open and running.
func TestInlineCallbackClosePanics(t *testing.T) {
	noLeak(t)
	e := NewEnv()
	var msg string
	woke := Time(-1)
	e.Spawn("sleeper", func(p *Proc) {
		e.Defer(1, func() { msg = mustPanic(t, e.Close) })
		p.Sleep(2)
		woke = p.Now()
	})
	e.Run()
	if !strings.Contains(msg, `sim: Close from a callback run on proc "sleeper"`) {
		t.Fatalf("Close in a callback panicked with %q", msg)
	}
	if e.Closed() || woke != 2 {
		t.Fatalf("closed=%v woke=%v, want an open environment and a wake-up at 2ns", e.Closed(), woke)
	}
	e.Close()
}
