package sim

import "fmt"

// PS is a processor-sharing resource: a CPU core (or any rate-limited
// server) whose capacity is divided equally among all active jobs. With n
// active jobs each progresses at capacity/n work units per second — the
// classic fluid approximation of round-robin time slicing, which is how we
// model vCPU threads overcommitted on a pCPU.
//
// A PS can also carry permanent "background" jobs that consume a share of
// the capacity without ever completing. These model pinned interference
// such as GiantVM's QEMU helper threads or co-located Primary-VM load.
//
// Construct with NewPS.
type PS struct {
	env        *Env
	capacity   float64 // work units per second (e.g. cycles/s)
	jobs       []*psJob
	background float64
	last       Time
	timer      *Timer
	completeFn func() // ps.complete bound once, so rearming never allocates
	totalDone  float64
}

type psJob struct {
	work      float64
	remaining float64
	proc      *Proc
}

// NewPS returns a processor-sharing resource with the given capacity in
// work units per second. Capacity must be positive.
func NewPS(e *Env, capacity float64) *PS {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: NewPS capacity %v must be positive", capacity))
	}
	ps := &PS{env: e, capacity: capacity}
	ps.completeFn = ps.complete
	return ps
}

// Load returns the number of active jobs plus the background weight,
// rounded down.
func (ps *PS) Load() int { return len(ps.jobs) + int(ps.background) }

// TotalDone returns the cumulative work completed by finished jobs.
func (ps *PS) TotalDone() float64 { return ps.totalDone }

// SetBackground sets the number of permanent background jobs sharing the
// resource. It takes effect immediately for all in-flight jobs.
func (ps *PS) SetBackground(n int) {
	if n < 0 {
		panic("sim: negative background job count")
	}
	ps.SetBackgroundWeight(float64(n))
}

// SetBackgroundWeight sets a fractional permanent load: a weight w makes
// every real job progress at capacity/(n+w). Fractions model interference
// that is lighter than a pinned busy thread, e.g. periodic helper-thread
// activity.
func (ps *PS) SetBackgroundWeight(w float64) {
	if w < 0 {
		panic("sim: negative background weight")
	}
	ps.advance()
	ps.background = w
	ps.reschedule()
}

// Background returns the permanent background load, rounded down.
func (ps *PS) Background() int { return int(ps.background) }

// BackgroundWeight returns the permanent background load.
func (ps *PS) BackgroundWeight() float64 { return ps.background }

// Consume blocks the process until work units of service have been
// delivered under processor sharing. Zero work returns immediately.
func (ps *PS) Consume(p *Proc, work float64) {
	if work < 0 {
		panic(fmt.Sprintf("sim: PS.Consume(%v) with negative work", work))
	}
	if work == 0 {
		return
	}
	ps.advance()
	ps.jobs = append(ps.jobs, &psJob{work: work, remaining: work, proc: p})
	ps.reschedule()
	p.park()
}

// ConsumeTime blocks the process for the amount of CPU service that would
// take d at full capacity; under sharing it takes proportionally longer.
func (ps *PS) ConsumeTime(p *Proc, d Time) {
	ps.Consume(p, d.Seconds()*ps.capacity)
}

// advance applies the service delivered since the last update to all
// active jobs.
func (ps *PS) advance() {
	now := ps.env.Now()
	if len(ps.jobs) == 0 {
		ps.last = now
		return
	}
	dt := (now - ps.last).Seconds()
	ps.last = now
	if dt <= 0 {
		return
	}
	dec := dt * ps.capacity / (float64(len(ps.jobs)) + ps.background)
	for _, j := range ps.jobs {
		j.remaining -= dec
		if j.remaining < 0 {
			j.remaining = 0
		}
	}
}

// reschedule (re)arms the completion timer for the job closest to finishing.
func (ps *PS) reschedule() {
	if ps.timer != nil {
		ps.timer.Cancel()
		ps.timer = nil
	}
	if len(ps.jobs) == 0 {
		return
	}
	minRemaining := ps.jobs[0].remaining
	for _, j := range ps.jobs[1:] {
		if j.remaining < minRemaining {
			minRemaining = j.remaining
		}
	}
	rate := ps.capacity / (float64(len(ps.jobs)) + ps.background)
	d := FromSeconds(minRemaining / rate)
	if d < 0 {
		d = 0
	}
	// Pooled: the only reference is ps.timer, which complete and the
	// cancel path both clear before the timer could ever be reused.
	ps.timer = ps.env.schedule(ps.env.now+d, nil, ps.completeFn, true)
}

// complete retires all jobs whose remaining work has reached (numerically
// near) zero and wakes their processes.
func (ps *PS) complete() {
	ps.timer = nil
	ps.advance()
	// Tolerance: one nanosecond of service at the current rate.
	eps := ps.capacity * 1e-9
	kept := ps.jobs[:0]
	for _, j := range ps.jobs {
		if j.remaining <= eps {
			ps.totalDone += j.work
			ps.env.wake(j.proc)
		} else {
			kept = append(kept, j)
		}
	}
	// Zero dropped entries so the backing array does not pin procs.
	for i := len(kept); i < len(ps.jobs); i++ {
		ps.jobs[i] = nil
	}
	ps.jobs = kept
	ps.reschedule()
}
