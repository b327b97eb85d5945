// No-progress watchdog: turns simulation deadlocks and livelocks into a
// typed error instead of a hung test or CLI run.
//
// A DES "hang" comes in two shapes. A *deadlock* leaves processes parked
// on events that will never fire; if nothing else is scheduled the event
// queue drains, Run returns, and LiveProcs exposes the corpses — but any
// periodic daemon (a heartbeat tick, a rebalance timer) keeps the queue
// non-empty forever, so Run spins through empty ticks and the host test
// burns wall-clock time until its framework timeout kills it with no
// diagnosis. A *livelock* is the same picture with motion: events flow,
// virtual time advances, and the workload never gets anywhere.
//
// WatchProgress arms a periodic check against a progress counter that
// advances whenever a process finishes (and whenever MarkProgress is
// called — harnesses mark coarse milestones the proc table cannot see).
// A full window with zero progress while other events are still flowing
// stops the run and records a StallError naming every live process; the
// chaos engine's progress oracle and the faulttest harness surface it as
// a first-class violation. The watchdog runs on the environment's own
// event queue, so arming it perturbs nothing and an episode that makes
// steady progress pays one callback per window.
package sim

import (
	"fmt"
	"strings"
)

// StallError reports a window of virtual time in which the simulation
// made no progress: no process finished and no MarkProgress call landed,
// while the event queue either kept ticking (livelock — daemon timers
// spinning over a wedged workload) or drained with processes still
// parked (deadlock).
type StallError struct {
	At     Time     // when the stall was detected
	Window Time     // the progress window that elapsed empty
	Procs  []string // live (blocked) processes at detection, in spawn order
}

// Error renders the stall with its blocked processes.
func (e *StallError) Error() string {
	return fmt.Sprintf("sim: no progress for %v (at %v); %d live procs: %s",
		e.Window, e.At, len(e.Procs), strings.Join(e.Procs, ", "))
}

// MarkProgress advances the progress counter the watchdog observes.
// Process completions count automatically; harnesses call this for
// milestones that do not retire a process (a page written, a fleet
// decision logged, a recovery step done).
func (e *Env) MarkProgress() { e.progress++ }

// Stalled returns the stall recorded by the watchdog, or nil. It stays
// set after Run returns so harnesses can convert it into a typed
// episode failure.
func (e *Env) Stalled() *StallError { return e.stall }

// WatchProgress arms the no-progress watchdog: if a full window of
// virtual time passes with zero progress, the run is stopped and
// Stalled() reports the blocked processes. Calling it again re-arms
// with the new window (the previous watchdog timer retires silently).
// The watchdog disarms itself when the queue drains naturally with no
// live processes — a finished simulation is not a stall — and converts
// a drained queue *with* live processes into the same StallError a
// livelock produces, so both hang shapes surface identically.
func (e *Env) WatchProgress(window Time) {
	if window <= 0 {
		panic(fmt.Sprintf("sim: WatchProgress(%v) needs a positive window", window))
	}
	e.wdWindow = window
	e.wdGen++
	e.wdLast = e.progress
	e.armWatchdog(e.wdGen)
}

// armWatchdog schedules the next periodic check. gen guards against a
// re-armed watchdog: checks from a superseded WatchProgress call expire
// without effect.
func (e *Env) armWatchdog(gen uint64) {
	e.At(e.now+e.wdWindow, func() {
		if gen != e.wdGen {
			return
		}
		if e.progress != e.wdLast {
			e.wdLast = e.progress
			e.armWatchdog(gen)
			return
		}
		live := e.LiveProcs()
		if len(e.events) == 0 && len(live) == 0 {
			return // natural drain: the watchdog was the last event
		}
		e.stall = &StallError{At: e.now, Window: e.wdWindow, Procs: live}
		e.Stop()
	})
}
