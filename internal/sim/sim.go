// Package sim provides a deterministic discrete-event simulation core.
//
// The package models virtual time as nanoseconds and executes events from a
// priority queue ordered by (time, insertion sequence), which makes every
// simulation run bit-identical for a given seed. Simulated activities are
// written as ordinary sequential Go functions running in "processes"
// (see Proc); each process is backed by a runtime coroutine (iter.Pull), and
// control passes between the event loop and one process at a time by
// coroutine switch, so process code never races.
//
// The primitives offered are the classic discrete-event toolkit:
//
//   - Env: the event loop and virtual clock.
//   - Proc: a coroutine that can Sleep, Wait on events, and use resources.
//   - Event: a one-shot broadcast signal.
//   - Queue: an unbounded FIFO with blocking Get.
//   - Mutex: a FIFO-fair lock for processes.
//   - PS: a processor-sharing resource modeling a CPU core.
//
// All the distributed-hypervisor machinery in this repository (network
// fabric, DSM protocol, vCPUs, virtio devices, schedulers) is built on these
// primitives.
//
// The core is engineered for steady-state long runs (see DESIGN.md §10):
// waiter lists and queues are ring buffers that release popped elements,
// cancelled timers are lazily deleted from the event heap and compacted
// once they outnumber live ones, finished processes are reaped from the
// process table, and internal wake-up timers are pooled on a free list so
// the hot dispatch path allocates nothing.
//
// Each process runs on a pooled worker coroutine, one goroutine, which
// lives until the environment is closed. The owner of an environment
// calls Env.Close once it has read what it needs: Close unwinds every
// parked process (running its deferred calls) and ends every worker, so
// a finished world does not stay reachable from its goroutines.
//
// Fire-and-forget timers come in two pooled forms: Defer/DeferAt run a
// func(), and DeferArg/DeferArgAt run a static func(any) on an argument
// the timer carries. The second form is for callers that schedule the
// same step for many objects (the messaging layer schedules each
// *Message's arrival and handling this way): a top-level function plus
// a pointer argument allocates nothing, where a closure over the object
// would allocate on every call.
package sim

import (
	"fmt"
	"slices"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
// It doubles as a duration type; the arithmetic reads naturally either way.
type Time int64

// Common duration units, usable as multipliers (e.g. 5*sim.Microsecond).
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String renders the time with a unit chosen for readability.
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.4fs", float64(t)/float64(Second))
	}
}

// Timer lifecycle states. A timer is pending while queued, fired once the
// event loop pops it for execution, and cancelled if Cancel won the race.
const (
	timerPending uint8 = iota
	timerFired
	timerCancelled
)

// Timer is a scheduled callback. It can be cancelled before it fires.
//
// Internally a timer carries a callback (fn), a static callback and its
// argument (afn+arg), a process to wake (proc), or a timeout check
// (proc+ev); the non-closure forms let the hot wake-up, message-delivery
// and RPC-timeout paths skip closure allocation entirely. Timers created
// by the core's own primitives are pooled on the environment's free list
// once they retire; timers returned by At/After are not, because the
// caller may hold the reference indefinitely.
type Timer struct {
	at     Time
	seq    uint64
	fn     func()
	afn    func(any) // static callback, run on arg (DeferArg)
	arg    any
	proc   *Proc  // wake-up target; nil for callback timers
	ev     *Event // with proc: wake only if proc still waits on ev (WaitTimeout)
	env    *Env
	gen    uint64 // incarnation count; guards held references to pooled timers
	state  uint8
	pooled bool
}

// Cancel prevents the timer's callback from running. Cancelling an
// already-fired or already-cancelled timer is a no-op.
//
// The timer stays in the event heap — deleting from the middle of a binary
// heap is O(n) — and is discarded when popped. The environment counts these
// corpses and compacts the heap once they outnumber live timers, so an
// RPC-timeout storm (every reply beating its timeout) keeps the heap
// bounded by twice the live timer population instead of accumulating dead
// entries until their far-future deadlines.
func (t *Timer) Cancel() {
	if t.state != timerPending {
		return
	}
	t.state = timerCancelled
	e := t.env
	e.deadTimers++
	if len(e.events) >= heapCompactMin && e.deadTimers*2 > len(e.events) {
		e.compactTimers()
	}
}

// heapCompactMin is the heap size below which compaction is not worth the
// re-heapify; small heaps drain dead timers quickly on their own.
const heapCompactMin = 64

// procCompactMin is the process-table size below which finished procs are
// left in place rather than compacted out.
const procCompactMin = 32

// eventHeap is a binary heap of timers ordered by (time, sequence). The
// sift operations are hand-rolled rather than container/heap so the event
// loop's hottest instructions avoid interface dispatch; because (time, seq)
// is a total order, pop order — and therefore simulation behavior — is
// identical to any other correct heap over the same comparator.
type eventHeap []*Timer

// timerLess is the (time, sequence) total order on queued timers.
func timerLess(a, b *Timer) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts t, restoring the heap invariant.
func (h *eventHeap) push(t *Timer) {
	s := append(*h, t)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !timerLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// pop removes and returns the earliest timer.
func (h *eventHeap) pop() *Timer {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = nil
	s = s[:n]
	*h = s
	if n > 1 {
		h.siftDown(0)
	}
	return top
}

// siftDown restores the invariant below index i.
func (h *eventHeap) siftDown(i int) {
	s := *h
	n := len(s)
	for {
		left := 2*i + 1
		if left >= n {
			return
		}
		least := left
		if right := left + 1; right < n && timerLess(s[right], s[left]) {
			least = right
		}
		if !timerLess(s[least], s[i]) {
			return
		}
		s[i], s[least] = s[least], s[i]
		i = least
	}
}

// init heapifies an arbitrarily ordered slice in O(n).
func (h *eventHeap) init() {
	for i := len(*h)/2 - 1; i >= 0; i-- {
		h.siftDown(i)
	}
}

// Env is a simulation environment: a virtual clock plus the pending-event
// queue. The zero value is not usable; construct with NewEnv.
type Env struct {
	now        Time
	events     eventHeap
	deadTimers int // cancelled timers still sitting in events
	timerFree  []*Timer
	workerFree []*worker
	seq        uint64
	current    *Proc
	procErr    any
	stopped    bool
	closed     bool
	spawned    int
	procs      []*Proc
	finished   int // finished procs still sitting in procs
	trace      any

	// No-progress watchdog state (watchdog.go): progress advances on
	// every proc completion and MarkProgress call; a full wdWindow with
	// no advance records stall and stops the run.
	progress uint64
	stall    *StallError
	wdWindow Time
	wdLast   uint64
	wdGen    uint64
}

// SetTrace attaches an opaque tracing context to the environment. The sim
// core never interprets it; packages built on sim (see internal/trace)
// retrieve it with Trace and type-assert. Held as `any` so the core stays
// free of tracing dependencies.
func (e *Env) SetTrace(t any) { e.trace = t }

// Trace returns the context installed with SetTrace, or nil.
func (e *Env) Trace() any { return e.trace }

// NewEnv returns an empty simulation environment at time zero. Its owner
// calls Close once done with it, so the worker goroutines end.
func NewEnv() *Env {
	return &Env{}
}

// Closed reports whether Close has been called. Code that a deferred call
// can reach while Close unwinds a parked proc checks it to record nothing
// (see trace.Tracer.End).
func (e *Env) Closed() bool { return e.closed }

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// schedule queues a timer at absolute time at, carrying either a process to
// wake or a callback. Pooled timers are drawn from (and later returned to)
// the free list; only timers whose references never escape the core may be
// pooled, since a recycled timer that an old holder could still Cancel
// would cancel an unrelated future event.
func (e *Env) schedule(at Time, proc *Proc, fn func(), pooled bool) *Timer {
	var tm *Timer
	if n := len(e.timerFree) - 1; pooled && n >= 0 {
		tm = e.timerFree[n]
		e.timerFree[n] = nil
		e.timerFree = e.timerFree[:n]
	} else {
		tm = &Timer{env: e}
	}
	tm.at, tm.seq, tm.proc, tm.fn, tm.state, tm.pooled = at, e.seq, proc, fn, timerPending, pooled
	tm.gen++
	e.seq++
	e.events.push(tm)
	return tm
}

// wake schedules a pooled dispatch of p at the current time: the
// allocation-free fast path under every Sleep return, Event broadcast,
// Queue hand-off, and Mutex transfer.
func (e *Env) wake(p *Proc) { e.schedule(e.now, p, nil, true) }

// recycle retires a timer popped from the heap. Pooled timers return to the
// free list; others just drop their references so a caller-held Timer does
// not pin its callback.
func (e *Env) recycle(t *Timer) {
	t.fn, t.afn, t.arg, t.proc, t.ev = nil, nil, nil, nil, nil
	if t.pooled {
		e.timerFree = append(e.timerFree, t)
	}
}

// compactTimers removes cancelled timers from the event heap and restores
// the heap invariant. Ordering of live timers is untouched: the heap is
// rebuilt under the same (time, seq) total order, so compaction can never
// perturb simulation results.
func (e *Env) compactTimers() {
	live := e.events[:0]
	for _, t := range e.events {
		if t.state == timerCancelled {
			e.recycle(t)
			continue
		}
		live = append(live, t)
	}
	for i := len(live); i < len(e.events); i++ {
		e.events[i] = nil
	}
	e.events = live
	e.deadTimers = 0
	e.events.init()
}

// At schedules fn to run at absolute virtual time t, which must not be in
// the past. The returned Timer may be used to cancel the callback.
func (e *Env) At(t Time, fn func()) *Timer {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%v) is in the past (now %v)", t, e.now))
	}
	return e.schedule(t, nil, fn, false)
}

// After schedules fn to run d nanoseconds from now. Negative delays panic.
func (e *Env) After(d Time, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: After(%v) with negative delay", d))
	}
	return e.schedule(e.now+d, nil, fn, false)
}

// Defer schedules fn like After but on a pooled timer and returns nothing:
// the fire-and-forget variant for hot paths (message delivery, fabric
// hops) that never cancel. Because the timer is recycled after firing,
// there is deliberately no handle to keep.
func (e *Env) Defer(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Defer(%v) with negative delay", d))
	}
	e.schedule(e.now+d, nil, fn, true)
}

// DeferAt is Defer at an absolute virtual time, which must not be in the
// past.
func (e *Env) DeferAt(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: DeferAt(%v) is in the past (now %v)", t, e.now))
	}
	e.schedule(t, nil, fn, true)
}

// DeferArg is Defer for a static callback: fn(arg) runs d nanoseconds
// from now on a pooled timer. When fn is a top-level function and arg a
// pointer, scheduling allocates nothing, which is what lets a hot path
// schedule per-object steps without building a closure per object.
func (e *Env) DeferArg(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: DeferArg(%v) with negative delay", d))
	}
	tm := e.schedule(e.now+d, nil, nil, true)
	tm.afn, tm.arg = fn, arg
}

// DeferArgAt is DeferArg at an absolute virtual time, which must not be
// in the past.
func (e *Env) DeferArgAt(t Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: DeferArgAt(%v) is in the past (now %v)", t, e.now))
	}
	tm := e.schedule(t, nil, nil, true)
	tm.afn, tm.arg = fn, arg
}

// Stop makes Run return after the current event completes. Pending events
// are kept; a subsequent Run resumes the simulation.
func (e *Env) Stop() { e.stopped = true }

// Pending returns the number of queued (possibly cancelled) events. Heap
// compaction keeps this within a factor of two of the live event count.
func (e *Env) Pending() int { return len(e.events) }

// LiveProcs returns the names of processes that have been spawned but have
// not finished, in spawn order. After Run returns with an empty event
// queue, any live process is blocked on an event that will never fire — the
// definition of a simulation deadlock — so fault-injection harnesses assert
// this list is empty (or contains only intentionally-immortal daemons).
func (e *Env) LiveProcs() []string {
	var out []string
	for _, p := range e.procs {
		if !p.finished {
			out = append(out, p.name)
		}
	}
	return out
}

// Spawned returns the total number of processes ever spawned.
func (e *Env) Spawned() int { return e.spawned }

// Scheduled returns the total number of events ever scheduled — the
// simulation's work metric, used by the perf harness to report soak sizes
// and events/second.
func (e *Env) Scheduled() uint64 { return e.seq }

// Run executes events in order until the queue is empty or Stop is called.
// If any process panics, Run re-panics with the process's stack trace.
func (e *Env) Run() { e.RunUntil(Time(1<<62 - 1)) }

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to deadline if the simulation got that far. Events after the deadline stay
// queued.
func (e *Env) RunUntil(deadline Time) {
	if e.closed {
		panic("sim: Run after Close")
	}
	e.stopped = false
	for !e.stopped && len(e.events) > 0 {
		next := e.events[0]
		if next.at > deadline {
			e.now = deadline
			return
		}
		e.events.pop()
		if next.state == timerCancelled {
			e.deadTimers--
			e.recycle(next)
			continue
		}
		next.state = timerFired
		e.now = next.at
		switch {
		case next.ev != nil:
			// WaitTimeout deadline: wake the proc only if it is still
			// parked on the event (a successful removal proves the event
			// has not fired, so the proc observes the timeout).
			if next.ev.removeWaiter(next.proc) {
				e.dispatch(next.proc)
			}
		case next.proc != nil:
			e.dispatch(next.proc)
		case next.afn != nil:
			next.afn(next.arg)
		default:
			next.fn()
		}
		e.recycle(next)
		if e.procErr != nil {
			err := e.procErr
			e.procErr = nil
			panic(err)
		}
	}
	if !e.stopped && deadline < Time(1<<62-1) && e.now < deadline {
		e.now = deadline
	}
}

// Spawn creates a process executing fn and schedules it to start at the
// current virtual time. The name appears in diagnostics.
func (e *Env) Spawn(name string, fn func(*Proc)) *Proc {
	if e.closed {
		panic(fmt.Sprintf("sim: Spawn(%q) after Close", name))
	}
	p := &Proc{
		env:  e,
		name: name,
		fn:   fn,
	}
	e.spawned++
	e.procs = append(e.procs, p)
	e.wake(p)
	return p
}

// compactProcs rebuilds the process table keeping only live procs, in
// spawn order.
func (e *Env) compactProcs() {
	live := e.procs[:0]
	for _, p := range e.procs {
		if !p.finished {
			live = append(live, p)
		}
	}
	for i := len(live); i < len(e.procs); i++ {
		e.procs[i] = nil
	}
	e.procs = live
	e.finished = 0
}

// Proc is a simulated process: a coroutine whose blocking operations
// (Sleep, Wait, Queue.Get, Mutex.Lock, PS.Consume) advance virtual time
// instead of wall-clock time. Procs are created with Env.Spawn.
type Proc struct {
	env      *Env
	name     string
	w        *worker
	fn       func(*Proc)
	done     *Event // created by the first Done call
	finished bool
	span     int64
}

// SetSpan records the tracing span the process is currently executing
// under. Zero means "no span". Like Env.SetTrace, the core only stores the
// value; interpretation belongs to the tracing layer.
func (p *Proc) SetSpan(id int64) { p.span = id }

// Span returns the process's current tracing span id (0 if none).
func (p *Proc) Span() int64 { return p.span }

// Name returns the diagnostic name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Done returns an event fired when the process function returns. The
// event is created on first use, since most procs are never waited on;
// for a proc that already finished it is returned already fired.
func (p *Proc) Done() *Event {
	if p.done == nil {
		p.done = &Event{env: p.env, fired: p.finished}
	}
	return p.done
}

// Sleep suspends the process for d nanoseconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Sleep(%v) with negative duration", d))
	}
	if d == 0 {
		return
	}
	p.env.schedule(p.env.now+d, p, nil, true)
	p.park()
}

// Wait suspends the process until ev fires. If ev already fired, Wait
// returns immediately.
func (p *Proc) Wait(ev *Event) {
	if ev.fired {
		return
	}
	ev.addWaiter(p)
	p.park()
}

// WaitAll suspends the process until every event in evs has fired.
func (p *Proc) WaitAll(evs ...*Event) {
	for _, ev := range evs {
		p.Wait(ev)
	}
}

// WaitTimeout suspends the process until ev fires or d elapses, whichever
// comes first, and reports whether the event fired. It is the primitive
// under every RPC timeout in the messaging layer: a deterministic race
// between the reply and the timer.
func (p *Proc) WaitTimeout(ev *Event, d Time) bool {
	if ev.fired {
		return true
	}
	if d < 0 {
		panic(fmt.Sprintf("sim: WaitTimeout(%v) with negative timeout", d))
	}
	ev.addWaiter(p)
	// A timeout timer carries (proc, ev) instead of a closure: when it
	// fires, the event loop wakes p only if removing it from ev's waiter
	// list succeeds — Fire clears the list, so a successful removal proves
	// the event has not fired. After resuming, ev.fired distinguishes the
	// two wake-up reasons. The timer is pooled and the whole path
	// allocates nothing.
	tm := p.env.schedule(p.env.now+d, p, nil, true)
	tm.ev = ev
	gen := tm.gen
	p.park()
	if ev.fired {
		// Cancel only our own incarnation: if the reply and the deadline
		// raced at the same timestamp, the timer already fired as a no-op
		// (waiter removal failed), was recycled, and may since back a
		// different pooled event.
		if tm.gen == gen {
			tm.Cancel()
		}
		return true
	}
	return false
}

// Event is a one-shot broadcast signal. Construct with Env.NewEvent. Firing
// wakes all waiting processes, in wait order.
//
// The first waiter is stored inline: the overwhelmingly common case — an
// RPC reply event with exactly one blocked caller — allocates no waiter
// list at all. Further waiters live behind one pointer, so an Event is 32
// bytes.
type Event struct {
	env   *Env
	w0    *Proc     // first waiter (nil when no waiters)
	ext   *eventExt // further waiters; nil when none
	fired bool
}

// eventExt holds an Event's rarely used waiter overflow.
type eventExt struct {
	more []*Proc // waiters after w0, in arrival order
}

// extra returns the event's waiter overflow, creating it on first use.
func (ev *Event) extra() *eventExt {
	if ev.ext == nil {
		ev.ext = &eventExt{}
	}
	return ev.ext
}

// NewEvent returns an unfired event bound to the environment.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Fired reports whether the event has been fired.
func (ev *Event) Fired() bool { return ev.fired }

// addWaiter appends p to the waiter list. Invariant: w0 holds the
// longest-waiting proc whenever any waiter exists.
func (ev *Event) addWaiter(p *Proc) {
	if ev.w0 == nil {
		ev.w0 = p
	} else {
		x := ev.extra()
		x.more = append(x.more, p)
	}
}

// removeWaiter deletes p from the waiter list, preserving arrival order of
// the rest, and reports whether p was waiting.
func (ev *Event) removeWaiter(p *Proc) bool {
	x := ev.ext
	if ev.w0 == p {
		ev.w0 = nil
		if x != nil && len(x.more) > 0 {
			ev.w0 = x.more[0]
			x.more = slices.Delete(x.more, 0, 1)
		}
		return true
	}
	if x != nil {
		if i := slices.Index(x.more, p); i >= 0 {
			x.more = slices.Delete(x.more, i, i+1)
			return true
		}
	}
	return false
}

// Fire triggers the event. Firing twice panics: one-shot events firing more
// than once almost always indicate a protocol bug in the caller.
func (ev *Event) Fire() {
	if ev.fired {
		panic("sim: event fired twice")
	}
	ev.fired = true
	if ev.w0 != nil {
		ev.env.wake(ev.w0)
		ev.w0 = nil
	}
	x := ev.ext
	if x == nil {
		return
	}
	ev.ext = nil
	for _, w := range x.more {
		ev.env.wake(w)
	}
}

// Mutex is a FIFO-fair lock for processes. The zero value is not usable;
// construct with NewMutex.
type Mutex struct {
	env     *Env
	locked  bool
	waiters ring[*Proc]
}

// NewMutex returns an unlocked mutex bound to the environment.
func (e *Env) NewMutex() *Mutex { return &Mutex{env: e} }

// Lock acquires the mutex, blocking the process in FIFO order.
func (m *Mutex) Lock(p *Proc) {
	if !m.locked {
		m.locked = true
		return
	}
	m.waiters.push(p)
	p.park()
	// Ownership was transferred to us by Unlock; m.locked stays true.
}

// Unlock releases the mutex, handing it to the longest-waiting process if
// any. Unlocking an unlocked mutex panics.
func (m *Mutex) Unlock() {
	if !m.locked {
		panic("sim: unlock of unlocked mutex")
	}
	if m.waiters.len() == 0 {
		m.locked = false
		return
	}
	m.env.wake(m.waiters.pop())
}

// Locked reports whether the mutex is currently held.
func (m *Mutex) Locked() bool { return m.locked }
