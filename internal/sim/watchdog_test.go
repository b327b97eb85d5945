package sim

import (
	"strings"
	"testing"
)

// wedgeShim recreates the PR 9 deadlock shape behind a test shim: a
// blocking "send" whose completion event is never fired when the frame
// is dropped (the fabric's pre-fix blocking send), under a periodic daemon
// timer that keeps the event queue alive forever — the combination that
// used to hang the whole test binary.
type wedgeShim struct {
	env   *Env
	wedge bool // re-enable the fixed bug: drops never resolve the wait
}

func (w *wedgeShim) sendAndWait(p *Proc, dropped bool) bool {
	ev := w.env.NewEvent()
	if !dropped {
		w.env.Defer(Millisecond, ev.Fire)
	} else if !w.wedge {
		// The PR 9 fix: a drop still resolves the wait, late and false.
		w.env.Defer(Millisecond, ev.Fire)
	}
	p.Wait(ev)
	return !dropped
}

// tick keeps the queue non-empty forever, like a heartbeat daemon.
func tick(e *Env, every Time) {
	var fn func()
	fn = func() {
		if !e.stopped {
			e.After(every, fn)
		}
	}
	e.After(every, fn)
}

// TestWatchdogCatchesWedgedSender: with the PR 9 bug re-enabled, the
// blocked sender never resumes while the daemon ticks forever; the
// watchdog must convert the hang into a StallError naming the sender.
func TestWatchdogCatchesWedgedSender(t *testing.T) {
	e := NewEnv()
	shim := &wedgeShim{env: e, wedge: true}
	e.Spawn("wedged-sender", func(p *Proc) {
		shim.sendAndWait(p, true) // dropped: with the shim, waits forever
	})
	tick(e, Millisecond)
	e.WatchProgress(10 * Millisecond)
	e.Run()

	stall := e.Stalled()
	if stall == nil {
		t.Fatal("watchdog did not fire on a wedged sender under a ticking daemon")
	}
	if len(stall.Procs) != 1 || stall.Procs[0] != "wedged-sender" {
		t.Fatalf("stall names %v, want [wedged-sender]", stall.Procs)
	}
	if !strings.Contains(stall.Error(), "wedged-sender") {
		t.Fatalf("StallError rendering %q does not name the blocked proc", stall.Error())
	}
}

// TestWatchdogQuietWithFixInPlace: the same shape with the fix active
// (drop resolves the wait) completes without a stall.
func TestWatchdogQuietWithFixInPlace(t *testing.T) {
	e := NewEnv()
	shim := &wedgeShim{env: e}
	done := false
	e.Spawn("sender", func(p *Proc) {
		if shim.sendAndWait(p, true) {
			t.Error("dropped send reported delivered")
		}
		done = true
		e.Stop() // retire the daemon
	})
	tick(e, Millisecond)
	e.WatchProgress(10 * Millisecond)
	e.Run()
	if !done {
		t.Fatal("sender never completed")
	}
	if s := e.Stalled(); s != nil {
		t.Fatalf("spurious stall: %v", s)
	}
}

// TestWatchdogDeadlockWithDrainedQueue: a proc parked on an event that
// never fires, with no daemon — the queue drains, and the watchdog's
// final check must still report the deadlock instead of staying silent.
func TestWatchdogDeadlockWithDrainedQueue(t *testing.T) {
	e := NewEnv()
	e.Spawn("parked", func(p *Proc) {
		p.Wait(e.NewEvent()) // never fired
	})
	e.WatchProgress(5 * Millisecond)
	e.Run()
	stall := e.Stalled()
	if stall == nil {
		t.Fatal("drained-queue deadlock not reported")
	}
	if len(stall.Procs) != 1 || stall.Procs[0] != "parked" {
		t.Fatalf("stall names %v, want [parked]", stall.Procs)
	}
}

// TestWatchdogDisarmsOnNaturalDrain: a run that finishes cleanly must
// not stall even though the watchdog outlives every other event.
func TestWatchdogDisarmsOnNaturalDrain(t *testing.T) {
	e := NewEnv()
	e.Spawn("worker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(Millisecond)
		}
	})
	e.WatchProgress(10 * Millisecond)
	e.Run()
	if s := e.Stalled(); s != nil {
		t.Fatalf("clean run stalled: %v", s)
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events still pending after drain", e.Pending())
	}
}

// TestWatchdogLivelockMarkedProgress: explicit MarkProgress keeps a
// proc-less workload alive; stopping the marks stalls it.
func TestWatchdogLivelockMarkedProgress(t *testing.T) {
	e := NewEnv()
	marks := 0
	var work func()
	work = func() {
		if marks < 8 {
			marks++
			e.MarkProgress()
		}
		if !e.stopped {
			e.After(Millisecond, work) // keeps ticking markless after 8
		}
	}
	e.After(Millisecond, work)
	e.WatchProgress(4 * Millisecond)
	e.Run()
	stall := e.Stalled()
	if stall == nil {
		t.Fatal("markless livelock not detected")
	}
	if marks != 8 {
		t.Fatalf("stall fired after %d marks, want all 8 first", marks)
	}
	if len(stall.Procs) != 0 {
		t.Fatalf("proc-less livelock names procs %v", stall.Procs)
	}
}

// TestWatchdogRearm: re-arming with a new window supersedes the old
// watchdog generation — only the latest window applies.
func TestWatchdogRearm(t *testing.T) {
	e := NewEnv()
	e.Spawn("parked", func(p *Proc) { p.Wait(e.NewEvent()) })
	tick(e, Millisecond)
	e.WatchProgress(Second)          // would fire at 1 s
	e.WatchProgress(3 * Millisecond) // supersedes: fires at 3 ms
	e.Run()
	stall := e.Stalled()
	if stall == nil {
		t.Fatal("re-armed watchdog never fired")
	}
	if stall.At != 3*Millisecond {
		t.Fatalf("stall at %v, want 3ms (the re-armed window)", stall.At)
	}
	if stall.Window != 3*Millisecond {
		t.Fatalf("stall window %v, want 3ms", stall.Window)
	}
}
