package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPSSingleJob(t *testing.T) {
	e := NewEnv()
	ps := NewPS(e, 1e9) // 1 GHz
	var done Time
	e.Spawn("job", func(p *Proc) {
		ps.Consume(p, 1e9) // 1 s of work
		done = p.Now()
	})
	e.Run()
	if got := done.Seconds(); math.Abs(got-1.0) > 1e-6 {
		t.Fatalf("single job finished at %vs, want 1s", got)
	}
}

func TestPSEqualSharing(t *testing.T) {
	e := NewEnv()
	ps := NewPS(e, 1e9)
	finish := make([]Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("job", func(p *Proc) {
			ps.Consume(p, 1e9)
			finish[i] = p.Now()
		})
	}
	e.Run()
	// Two equal jobs sharing one core finish together at 2 s.
	for i, f := range finish {
		if math.Abs(f.Seconds()-2.0) > 1e-6 {
			t.Errorf("job %d finished at %vs, want 2s", i, f.Seconds())
		}
	}
}

func TestPSStaggeredArrival(t *testing.T) {
	e := NewEnv()
	ps := NewPS(e, 1.0) // 1 unit/s for easy math
	var aDone, bDone Time
	e.Spawn("a", func(p *Proc) {
		ps.Consume(p, 2.0)
		aDone = p.Now()
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(1 * Second)
		ps.Consume(p, 1.0)
		bDone = p.Now()
	})
	e.Run()
	// a runs alone [0,1) completing 1 unit; then shares [1,3) completing
	// the second unit at t=3. b gets 0.5 by t=2... let's derive: from t=1
	// both run at 0.5/s. a needs 1 more -> done t=3. b needs 1 -> at t=3
	// b has 1.0 done as well, so both complete at t=3.
	if math.Abs(aDone.Seconds()-3.0) > 1e-6 {
		t.Errorf("a done at %v, want 3s", aDone)
	}
	if math.Abs(bDone.Seconds()-3.0) > 1e-6 {
		t.Errorf("b done at %v, want 3s", bDone)
	}
}

func TestPSBackgroundLoad(t *testing.T) {
	e := NewEnv()
	ps := NewPS(e, 1.0)
	ps.SetBackgroundWeight(1) // a phantom job takes half the core
	var done Time
	e.Spawn("job", func(p *Proc) {
		ps.Consume(p, 1.0)
		done = p.Now()
	})
	e.Run()
	if math.Abs(done.Seconds()-2.0) > 1e-6 {
		t.Fatalf("job with background finished at %v, want 2s", done)
	}
	if ps.BackgroundWeight() != 1 {
		t.Fatalf("BackgroundWeight() = %v", ps.BackgroundWeight())
	}
}

func TestPSConsumeTime(t *testing.T) {
	e := NewEnv()
	ps := NewPS(e, 2.1e9)
	var done Time
	e.Spawn("job", func(p *Proc) {
		ps.ConsumeTime(p, 500*Millisecond)
		done = p.Now()
	})
	e.Run()
	if math.Abs(done.Seconds()-0.5) > 1e-6 {
		t.Fatalf("ConsumeTime(500ms) finished at %v", done)
	}
}

func TestPSZeroWork(t *testing.T) {
	e := NewEnv()
	ps := NewPS(e, 1e9)
	ran := false
	e.Spawn("job", func(p *Proc) {
		ps.Consume(p, 0)
		ran = true
	})
	e.Run()
	if !ran || e.Now() != 0 {
		t.Fatalf("zero work: ran=%v now=%v", ran, e.Now())
	}
}

func TestPSTotalDone(t *testing.T) {
	e := NewEnv()
	ps := NewPS(e, 1e6)
	for i := 0; i < 3; i++ {
		e.Spawn("job", func(p *Proc) { ps.Consume(p, 1000) })
	}
	e.Run()
	if math.Abs(ps.TotalDone()-3000) > 1 {
		t.Fatalf("TotalDone = %v, want 3000", ps.TotalDone())
	}
	if ps.Load() != 0 {
		t.Fatalf("Load = %d after completion", ps.Load())
	}
}

// TestPSWorkConservation checks the defining property of processor sharing:
// the total completion time of any job mix on one core equals total work /
// capacity, regardless of arrival interleaving (as long as the server never
// idles).
func TestPSWorkConservation(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEnv()
		ps := NewPS(e, 1e6)
		njobs := 2 + rng.Intn(6)
		total := 0.0
		var last Time
		for i := 0; i < njobs; i++ {
			work := 100 + rng.Float64()*10000
			total += work
			e.Spawn("job", func(p *Proc) {
				ps.Consume(p, work)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		e.Run()
		want := total / 1e6
		return math.Abs(last.Seconds()-want) < 1e-6
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPSNegativeWorkPanics(t *testing.T) {
	e := NewEnv()
	ps := NewPS(e, 1e9)
	e.Spawn("bad", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative work did not panic")
			}
		}()
		ps.Consume(p, -1)
	})
	e.Run()
}

func TestPSInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewPS(NewEnv(), 0)
}

// TestPSConsumeAllocatesNothing: jobs are held by value and the
// completion timer is pooled, so once the job slice and timer pool are
// warm a Consume allocates nothing, also when two jobs share the core.
func TestPSConsumeAllocatesNothing(t *testing.T) {
	e := NewEnv()
	defer e.Close()
	ps := NewPS(e, 1e9)
	q := NewQueue[float64](e)
	for i := 0; i < 2; i++ {
		e.Spawn("worker", func(p *Proc) {
			for {
				ps.Consume(p, q.Get(p))
			}
		})
	}
	allocs := testing.AllocsPerRun(1000, func() {
		q.Put(1000)
		q.Put(3000)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("a warm Consume allocates %v times, want 0", allocs)
	}
	if want := 1001 * 4000.0; math.Abs(ps.TotalDone()-want) > 1 {
		t.Errorf("TotalDone = %v, want %v", ps.TotalDone(), want)
	}
}
