//go:build go1.23

// iter.Pull needs go1.23; go.mod stays 1.22 because perfbench's go.mod pins it under -mod=readonly.

package sim

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
)

// dispatch hands control of the event loop to p until p parks or finishes.
// The dispatch on which p finishes also reaps it: once finished procs
// outnumber live ones the process table is compacted (preserving spawn
// order of survivors), so week-long fleet runs do not accumulate every
// proc ever spawned and LiveProcs stays O(live). Reaping happens at this
// single deterministic point in event execution, never from a finalizer or
// background task, so it cannot perturb same-seed runs.
//
// The switch into p is a coroutine resume (worker.next): the event loop's
// goroutine blocks and p's worker runs directly, with no trip through the
// Go scheduler's run queue. It returns when p parks (yield) or finishes.
func (e *Env) dispatch(p *Proc) {
	if p.finished {
		panic(fmt.Sprintf("sim: dispatch of finished proc %q", p.name))
	}
	if p.w == nil {
		e.bind(p)
	}
	prev := e.current
	e.current = p
	p.w.next()
	e.current = prev
	if p.finished {
		e.finished++
		e.progress++
		if len(e.procs) >= procCompactMin && e.finished*2 > len(e.procs) {
			e.compactProcs()
		}
	}
}

// bind attaches a worker — a pooled coroutine from iter.Pull — to a proc
// about to run for the first time. Workers are recycled from finished
// procs, so a simulation that churns through short-lived processes (one
// per DSM fault handler, for instance) reuses a small set of coroutines
// whose stacks are already grown instead of paying coroutine creation and
// stack-growth copying on every spawn.
func (e *Env) bind(p *Proc) {
	var w *worker
	if n := len(e.workerFree) - 1; n >= 0 {
		w = e.workerFree[n]
		e.workerFree[n] = nil
		e.workerFree = e.workerFree[:n]
	} else {
		w = &worker{env: e}
		w.next, w.stop = iter.Pull(w.loop)
	}
	w.p = p
	p.w = w
}

// worker is a pooled coroutine reused across the lifetimes of many Procs.
// Its body (loop) runs one proc function per iteration and parks itself
// on the environment's free list in between; it returns only when the
// environment is closed. next resumes the coroutine from the event loop;
// yield, called from inside it, switches back; stop (Env.Close) makes the
// pending yield return false, which unwinds the coroutine so its goroutine
// exits.
type worker struct {
	env    *Env
	p      *Proc // proc currently bound; nil while idle
	next   func() (struct{}, bool)
	yield  func(struct{}) bool
	stop   func()
	exited bool // loop has returned or unwound (Close, or a Goexit in the proc)
}

// loop is the worker coroutine's body. Each iteration runs one proc to
// completion. A coroutine switch transfers control rather than signalling
// it, so exactly one of {event loop, one worker} runs at any instant and
// process code never races. Returning the worker to the free list happens
// before the final yield, while the event loop is still suspended in next —
// no concurrent mutation of environment state.
//
// Close ends the loop at either suspension point. An idle worker's yield
// returns false and loop returns. A bound worker's proc is unwound by
// park's errClosed panic, which run recovers; loop then returns at once,
// leaving the proc unfinished: its done event is not fired and the worker
// does not rejoin the free list.
func (w *worker) loop(yield func(struct{}) bool) {
	defer func() { w.exited = true }()
	w.yield = yield
	for {
		p := w.p
		w.run(p)
		if w.env.closed {
			return
		}
		p.finished = true
		if p.done != nil && !p.done.fired {
			p.done.Fire()
		}
		p.fn = nil
		p.w = nil
		w.p = nil
		w.env.workerFree = append(w.env.workerFree, w)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes the proc function, converting a panic into the
// environment's pending proc error (re-raised by Run). A runtime.Goexit in
// the proc (what t.FailNow does) is not recovered: iter.Pull re-raises it
// in the goroutine that called next, so it ends the caller of Run.
//
// While Close unwinds the proc, every panic is dropped: errClosed itself,
// and anything a deferred call raises on the way out. The world is being
// torn down, so there is no Run left to report it to.
func (w *worker) run(p *Proc) {
	defer func() {
		if r := recover(); r != nil && !w.env.closed {
			w.env.procErr = fmt.Errorf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
		}
	}()
	p.fn(p)
}

// errClosed is the panic park raises when Close stops a parked proc's
// worker. It unwinds the proc function, running its deferred calls, up
// to worker.run, which recovers it.
var errClosed = errors.New("sim: environment closed")

// park returns control to the event loop until the proc is re-dispatched:
// yielding suspends the worker coroutine and resumes dispatch's next call.
// A false yield means Close stopped the worker instead; park then unwinds
// the proc with errClosed. A deferred call that parks again while Close
// unwinds gets the same panic at once, since a stopped coroutine's yield
// returns false without switching.
func (p *Proc) park() {
	if p.env.current != p {
		panic(fmt.Sprintf("sim: proc %q parking while not current", p.name))
	}
	if !p.w.yield(struct{}{}) {
		panic(errClosed)
	}
}

// Close ends the environment: it stops every worker coroutine, so their
// goroutines exit and nothing the world reaches stays a GC root. Call it
// once its owner has read everything it needs (LiveProcs, Stalled,
// fabric and fleet state); Close itself runs no events and reads nothing.
//
// Procs parked at Close are unwound where they wait: their deferred calls
// run inside Close, then they stay unfinished (LiveProcs still names
// them), their Done events never fire and nothing they scheduled ever
// runs. Idle pooled workers simply return. Procs spawned but never
// dispatched have no worker; they stay unfinished and never run. Panics
// raised while unwinding are discarded; a runtime.Goexit raised by a
// deferred call would end Close's caller, as Goexit from a proc ends
// Run's caller.
//
// Close is idempotent. It panics when called from inside a proc; Spawn
// and Run panic after it. The clock, LiveProcs and the stall verdict
// stay as they were; Scheduled also counts any wake-ups the unwound
// deferred calls scheduled.
func (e *Env) Close() {
	if p := e.current; p != nil && !p.w.exited {
		panic(fmt.Sprintf("sim: Close from inside proc %q", p.name))
	}
	if e.closed {
		return
	}
	e.closed = true
	e.current = nil
	// Every bound worker belongs to a live proc still in the table
	// (compaction keeps live procs); every idle one is on the free list.
	for _, p := range e.procs {
		if w := p.w; w != nil {
			e.current = p
			w.stop()
			e.current = nil
		}
		p.w, p.fn = nil, nil
	}
	for _, w := range e.workerFree {
		w.stop()
	}
	e.workerFree = nil
	e.events, e.timerFree = nil, nil
}
