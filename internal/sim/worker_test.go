package sim

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// TestProcGoexitEndsRun checks that a proc calling runtime.Goexit — what
// t.FailNow does inside a proc — ends the goroutine running the event loop
// instead of leaving it blocked forever waiting for the proc to hand
// control back.
func TestProcGoexitEndsRun(t *testing.T) {
	ended := make(chan bool, 1)
	go func() {
		returned := false
		defer func() { ended <- returned }()
		e := NewEnv()
		e.Spawn("goexit", func(p *Proc) {
			p.Sleep(10)
			runtime.Goexit()
		})
		e.Run()
		returned = true
	}()
	select {
	case returned := <-ended:
		if returned {
			t.Fatal("Run returned normally after a proc called runtime.Goexit")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Run still blocked 2s after a proc called runtime.Goexit")
	}
}

// TestWorkersAreReused pins worker pooling: a driver proc that spawns and
// joins 1,000 short-lived children one after another needs one worker for
// itself and one recycled across every child, so the run adds at most two
// goroutines, and Close ends both.
func TestWorkersAreReused(t *testing.T) {
	const children = 1000
	before := runtime.NumGoroutine()
	e := NewEnv()
	joined := 0
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < children; i++ {
			c := e.Spawn("child", func(c *Proc) { c.Sleep(1) })
			p.Wait(c.Done())
			joined++
		}
	})
	e.Run()
	if joined != children {
		t.Fatalf("joined %d children, want %d", joined, children)
	}
	if added := runtime.NumGoroutine() - before; added > 2 {
		t.Fatalf("%d sequential spawns added %d goroutines, want at most 2", children, added)
	}
	e.Close()
	if n := leakcheck.Settle(before); n > before {
		t.Fatalf("%d goroutines after Close, %d before the run", n, before)
	}
}
