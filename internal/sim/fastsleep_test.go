package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The two shortcuts that skip a coroutine switch, Sleep's fast path
// (advance the clock in place when nothing else is due) and park's resume
// in place (run the loop's callbacks on the parking proc's coroutine until
// its own wake-up), must be invisible: every test here runs its world with
// them on and with alwaysSwitch set, and wants the same (time, seq, proc)
// trace.

// progOp is one step of a random proc program.
type progOp struct {
	kind int // one of the op* constants
	d    Time
	k    int // event index, or timer index for opCancel
}

const (
	opSleep = iota
	opWait
	opFire
	opAt
	opDefer
	opCancel
	opStop
	opPut
	opGet
	opLock
	opUnlock
	opConsume
	numOps
)

// progQueues is how many queues a program's procs share; they also share
// one mutex and one PS.
const progQueues = 2

// program is a random world: procs spawned by timers, each running a list
// of ops over a shared set of zero-value events, queues, a mutex and a PS,
// an optional watchdog, and a driver that runs it in RunUntil slices, then
// to the end.
type program struct {
	procs  [][]progOp
	starts []Time
	slices []Time // RunUntil deadline increments
	watch  Time   // watchdog window; 0 leaves it unarmed
	events int
}

func randomProgram(r *rand.Rand) program {
	pg := program{events: 1 + r.Intn(4)}
	dur := func() Time {
		if r.Intn(8) == 0 {
			return Time(r.Intn(60))
		}
		return Time(r.Intn(8))
	}
	for i, n := 0, 1+r.Intn(5); i < n; i++ {
		ops := make([]progOp, 1+r.Intn(25))
		for j := range ops {
			kind := opSleep
			if r.Intn(2) == 0 {
				kind = r.Intn(numOps)
			}
			ops[j] = progOp{kind: kind, d: dur(), k: r.Intn(pg.events)}
			if kind == opCancel {
				ops[j].k = r.Intn(8)
			}
		}
		pg.procs = append(pg.procs, ops)
		pg.starts = append(pg.starts, Time(r.Intn(12)))
	}
	for i, n := 0, r.Intn(6); i < n; i++ {
		pg.slices = append(pg.slices, Time(r.Intn(25)))
	}
	if r.Intn(3) == 0 {
		pg.watch = Time(5 + r.Intn(40))
	}
	return pg
}

// exec runs the program and returns its trace and the environment's
// final Scheduled and Dispatches counts.
func (pg program) exec(alwaysSwitch bool) (trace []string, scheduled, dispatches uint64) {
	e := NewEnv()
	e.alwaysSwitch = alwaysSwitch
	evs := make([]Event, pg.events)
	var queues [progQueues]*Queue[string]
	for i := range queues {
		queues[i] = NewQueue[string](e)
	}
	mu := e.NewMutex()
	ps := NewPS(e, 1e9)
	var timers []*Timer
	note := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("%v/%d/", e.now, e.seq)+fmt.Sprintf(format, args...))
	}
	for i, ops := range pg.procs {
		name := fmt.Sprintf("p%d", i)
		e.At(pg.starts[i], func() {
			e.Spawn(name, func(p *Proc) {
				defer note("%s.exit", name)
				locked := false
				defer func() {
					if locked {
						mu.Unlock()
					}
				}()
				for j, o := range ops {
					switch o.kind {
					case opSleep:
						p.Sleep(o.d)
					case opWait:
						p.Wait(&evs[o.k])
					case opFire:
						if !evs[o.k].Fired() {
							evs[o.k].Fire()
						}
					case opAt:
						id := len(timers)
						timers = append(timers, e.At(e.now+o.d, func() { note("at%d", id) }))
					case opDefer:
						e.Defer(o.d, func() { note("defer %s.%d", name, j) })
					case opCancel:
						if len(timers) > 0 {
							timers[o.k%len(timers)].Cancel()
						}
					case opStop:
						e.Stop()
					case opPut:
						queues[o.k%progQueues].Put(fmt.Sprintf("%s.%d", name, j))
					case opGet:
						note("%s got %s", name, queues[o.k%progQueues].Get(p))
					case opLock:
						if !locked {
							mu.Lock(p)
							locked = true
						}
					case opUnlock:
						if locked {
							mu.Unlock()
							locked = false
						}
					case opConsume:
						ps.ConsumeTime(p, o.d)
					}
					note("%s.%d", name, j)
				}
			})
		})
	}
	if pg.watch > 0 {
		e.WatchProgress(pg.watch)
	}
	for _, d := range pg.slices {
		e.RunUntil(e.now + d)
		note("slice")
	}
	for i := 0; e.Pending() > 0 && i < 100; i++ {
		e.Run()
		note("run")
	}
	if s := e.Stalled(); s != nil {
		note("stall %v", s)
	}
	e.Close()
	note("closed live=%v", e.LiveProcs())
	return trace, e.Scheduled(), e.Dispatches()
}

// TestSleepFastPathIsInvisible: random programs of procs, Sleeps, At and
// Defer timers, Cancel, Stop, queues, a mutex, a PS, RunUntil slices and
// the watchdog give the same trace and Scheduled count with the shortcuts
// on and off, and the shortcuts are actually taken: they never dispatch
// more than alwaysSwitch does, and over all programs strictly less.
func TestSleepFastPathIsInvisible(t *testing.T) {
	var fastSwitches, slowSwitches uint64
	for seed := int64(1); seed <= 400; seed++ {
		pg := randomProgram(rand.New(rand.NewSource(seed)))
		fast, fastN, fd := pg.exec(false)
		slow, slowN, sd := pg.exec(true)
		fastSwitches += fd
		slowSwitches += sd
		if fd > sd {
			t.Errorf("seed %d: %d dispatches with the shortcuts, %d without", seed, fd, sd)
		}
		if fastN != slowN {
			t.Errorf("seed %d: Scheduled %d with the shortcuts, %d without", seed, fastN, slowN)
		}
		if f, s := strings.Join(fast, "\n"), strings.Join(slow, "\n"); f != s {
			t.Fatalf("seed %d: traces differ\nshortcuts:\n%s\nalwaysSwitch:\n%s", seed, f, s)
		}
	}
	if fastSwitches >= slowSwitches {
		t.Errorf("%d dispatches with the shortcuts, %d without: no shortcut ran", fastSwitches, slowSwitches)
	}
}

// bothPaths runs f once with the shortcuts and once with alwaysSwitch.
// The subtests keep the name of the hook's predecessor, slowSleep, which
// turned off only Sleep's fast path, so their names stay stable.
func bothPaths(t *testing.T, f func(t *testing.T, e *Env)) {
	for _, always := range []bool{false, true} {
		t.Run(fmt.Sprintf("slowSleep=%v", always), func(t *testing.T) {
			e := NewEnv()
			defer e.Close()
			e.alwaysSwitch = always
			f(t, e)
		})
	}
}

// TestSleepAfterStopParks: a proc that stops the run and then sleeps
// parks, so Run returns at the Stop and the next Run wakes it.
func TestSleepAfterStopParks(t *testing.T) {
	bothPaths(t, func(t *testing.T, e *Env) {
		woke := Time(-1)
		e.Spawn("stopper", func(p *Proc) {
			p.Sleep(1)
			e.Stop()
			p.Sleep(5)
			woke = p.Now()
		})
		e.Run()
		if e.Now() != 1 || woke != -1 || e.Pending() != 1 {
			t.Fatalf("after Stop: now=%v woke=%v pending=%d, want 1ns, not woken, 1", e.Now(), woke, e.Pending())
		}
		e.Run()
		if woke != 6 {
			t.Fatalf("woke at %v, want 6ns", woke)
		}
	})
}

// TestSleepPastDeadlineParks: a Sleep that ends after RunUntil's deadline
// stays queued and the clock stops at the deadline; one that ends at the
// deadline completes within the run.
func TestSleepPastDeadlineParks(t *testing.T) {
	bothPaths(t, func(t *testing.T, e *Env) {
		var wakes []Time
		e.Spawn("sleeper", func(p *Proc) {
			for _, d := range []Time{3, 5, 10} {
				p.Sleep(d)
				wakes = append(wakes, p.Now())
			}
		})
		for _, deadline := range []Time{8, 12} {
			e.RunUntil(deadline)
			if fmt.Sprint(wakes) != "[3ns 8ns]" || e.Now() != deadline || e.Pending() != 1 {
				t.Fatalf("RunUntil(%v): wakes %v, now %v, pending %d; want [3ns 8ns], the deadline, 1",
					deadline, wakes, e.Now(), e.Pending())
			}
		}
		e.Run()
		if fmt.Sprint(wakes) != "[3ns 8ns 18ns]" {
			t.Fatalf("wakes %v, want [3ns 8ns 18ns]", wakes)
		}
	})
}

// TestSleepYieldsToWatchdog: the armed watchdog's timer is due before a
// Sleep ends, so the Sleep parks and the watchdog stops the run at its
// window, not after the sleeper has run on.
func TestSleepYieldsToWatchdog(t *testing.T) {
	bothPaths(t, func(t *testing.T, e *Env) {
		var wakes []Time
		e.Spawn("sleeper", func(p *Proc) {
			for i := 0; i < 4; i++ {
				p.Sleep(5)
				wakes = append(wakes, p.Now())
			}
		})
		e.WatchProgress(7)
		e.Run()
		s := e.Stalled()
		if s == nil || s.At != 7 || e.Now() != 7 || fmt.Sprint(wakes) != "[5ns]" {
			t.Fatalf("stall %v at now %v with wakes %v, want a stall at 7ns after [5ns]", s, e.Now(), wakes)
		}
	})
}

// TestFastSleepTakesNoPooledTimer: a fast-path Sleep queues no timer and
// takes no switch, and a Sleep with a callback due first parks on a pooled
// timer and resumes in place, also with no switch. Under alwaysSwitch each
// parks and is dispatched back once. Either way the sleeper wakes at the
// same (time, seq).
func TestFastSleepTakesNoPooledTimer(t *testing.T) {
	var traces []string
	bothPaths(t, func(t *testing.T, e *Env) {
		var log []string
		note := func(who string) { log = append(log, fmt.Sprintf("%s@%v/%d", who, e.now, e.seq)) }
		// Two overlapping procs leave timers on the free list.
		for _, name := range []string{"w1", "w2"} {
			e.Spawn(name, func(p *Proc) { p.Sleep(1) })
		}
		e.Run()
		e.Spawn("a", func(p *Proc) {
			sleep := func(what string) {
				before := e.Dispatches()
				p.Sleep(2)
				want := before
				if e.alwaysSwitch {
					want++ // parked and was dispatched back
				}
				if got := e.Dispatches(); got != want {
					t.Errorf("%d dispatches after a Sleep %s, want %d", got-before, what, want-before)
				}
				note("a")
			}
			sleep("with nothing else queued")
			e.Defer(1, func() { note("defer") })
			sleep("behind a callback")
		})
		e.Run()
		if got, want := fmt.Sprint(log), "[a@3ns/6 defer@4ns/8 a@5ns/8]"; got != want {
			t.Errorf("log %s, want %s", got, want)
		}
		traces = append(traces, fmt.Sprint(log, e.Scheduled()))
	})
	if len(traces) == 2 && traces[0] != traces[1] {
		t.Errorf("fast and slow paths differ: %s vs %s", traces[0], traces[1])
	}
}

// TestCloseCutsSleepInDeferredCall: a Sleep in a deferred call that Close
// runs while unwinding a parked proc is cut where it parks, even with
// nothing queued and no deadline in the way, and moves no clock.
func TestCloseCutsSleepInDeferredCall(t *testing.T) {
	bothPaths(t, func(t *testing.T, e *Env) {
		deferred, resumed := 0, false
		e.Spawn("parked", func(p *Proc) {
			defer func() {
				deferred++
				p.Sleep(5)
				resumed = true
			}()
			p.Sleep(3)
			p.Wait(new(Event))
		})
		e.Run()
		e.Close()
		if deferred != 1 || resumed || e.Now() != 3 {
			t.Fatalf("deferred=%d resumed=%v now=%v, want 1, false, 3ns", deferred, resumed, e.Now())
		}
	})
}

// TestSleepOutsideItsProcPanics: a Sleep called on a proc that is not the
// one running (here from a timer callback) panics as a park would, even
// when nothing else is queued.
func TestSleepOutsideItsProcPanics(t *testing.T) {
	bothPaths(t, func(t *testing.T, e *Env) {
		var parked *Proc
		parked = e.Spawn("parked", func(p *Proc) { p.Wait(new(Event)) })
		var msg string
		e.At(5, func() { msg = mustPanic(t, func() { parked.Sleep(1) }) })
		e.Run()
		if !strings.Contains(msg, "parking while not current") {
			t.Fatalf("panic %q, want a park-while-not-current panic", msg)
		}
	})
}

// TestRunUntilInPastPanics: a deadline before Now panics, like At in the
// past, and leaves the clock where it was.
func TestRunUntilInPastPanics(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	e.At(20, func() {})
	e.RunUntil(10)
	if msg := mustPanic(t, func() { e.RunUntil(5) }); !strings.Contains(msg, "is in the past") {
		t.Fatalf("panic %q, want one saying the deadline is in the past", msg)
	}
	e.RunUntil(10)
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(1)
		woke = p.Now()
	})
	e.Run()
	if woke != 11 || e.Now() != 20 {
		t.Fatalf("woke at %v, run ended at %v; want 11ns and 20ns", woke, e.Now())
	}
}

// TestZeroEventWakesWaiters: a zero-value Event needs no constructor; its
// waiters wake in wait order when it fires.
func TestZeroEventWakesWaiters(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	var ev Event
	var log []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		e.Spawn(name, func(p *Proc) {
			p.Wait(&ev)
			log = append(log, fmt.Sprintf("%s@%v", name, p.Now()))
		})
	}
	e.At(4, ev.Fire)
	e.Run()
	if got, want := fmt.Sprint(log), "[w0@4ns w1@4ns w2@4ns]"; got != want || !ev.Fired() {
		t.Fatalf("wake order %s (fired %v), want %s", got, ev.Fired(), want)
	}
}
