//go:build go1.23

// iter.Pull needs go1.23; go.mod stays 1.22 because perfbench's go.mod pins it under -mod=readonly.

package sim

import (
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
		w.next, _ = iter.Pull(w.loop)
	}
	w.p = p
	p.w = w
}

// worker is a pooled coroutine reused across the lifetimes of many Procs.
// Its body (loop) never returns: it runs one proc function per iteration
// and parks itself on the environment's free list in between. next resumes
// the coroutine from the event loop; yield, called from inside it, switches
// back.
type worker struct {
	env   *Env
	p     *Proc // proc currently bound; nil while idle
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

// loop is the worker coroutine's body. Each iteration runs one proc to
// completion. A coroutine switch transfers control rather than signalling
// it, so exactly one of {event loop, one worker} runs at any instant and
// process code never races. Returning the worker to the free list happens
// before the final yield, while the event loop is still suspended in next —
// no concurrent mutation of environment state.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		p := w.p
		w.run(p)
		p.finished = true
		if p.done != nil && !p.done.fired {
			p.done.Fire()
		}
		p.fn = nil
		p.w = nil
		w.p = nil
		w.env.workerFree = append(w.env.workerFree, w)
		yield(struct{}{})
	}
}

// run executes the proc function, converting a panic into the
// environment's pending proc error (re-raised by Run). A runtime.Goexit in
// the proc (what t.FailNow does) is not recovered: iter.Pull re-raises it
// in the goroutine that called next, so it ends the caller of Run.
func (w *worker) run(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			w.env.procErr = fmt.Errorf("sim: proc %q panicked: %v\n%s", p.name, r, debug.Stack())
		}
	}()
	p.fn(p)
}

// park returns control to the event loop until the proc is re-dispatched:
// yielding suspends the worker coroutine and resumes dispatch's next call.
func (p *Proc) park() {
	if p.env.current != p {
		panic(fmt.Sprintf("sim: proc %q parking while not current", p.name))
	}
	p.w.yield(struct{}{})
}
