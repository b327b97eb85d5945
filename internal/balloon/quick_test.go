package balloon

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// TestQuickDeflateOrderInvariant: deflating a driver's balloon in any
// order of per-node chunks lands every arena on the same final balance,
// with every pinned page back with the guest, and counts the same work.
func TestQuickDeflateOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nNodes = 3
		pin := make([]int64, nNodes)
		for n := range pin {
			pin[n] = rng.Int63n(1 << 12)
		}
		// Split each node's balloon into random-size chunks, then
		// deflate them in two different orders.
		type chunk struct {
			node  int
			pages int64
		}
		var chunks []chunk
		for n, b := range pin {
			for rest := b; rest > 0; {
				c := 1 + rng.Int63n(rest)
				chunks = append(chunks, chunk{n, c})
				rest -= c
			}
		}
		run := func(order []int) ([]int64, Stats) {
			env, k := newTestGuest(nNodes, 64<<20)
			defer env.Close()
			drv := NewDriver(env, k)
			env.Spawn("driver", func(p *sim.Proc) {
				for n, pages := range pin {
					if took := drv.Inflate(p, n, n, pages); took != pages {
						t.Errorf("node %d: inflate took %d of %d free pages", n, took, pages)
					}
				}
				for _, i := range order {
					drv.Deflate(p, chunks[i].node, chunks[i].node, chunks[i].pages)
				}
			})
			env.Run()
			left := make([]int64, nNodes)
			for n := range left {
				left[n] = k.BalloonedOn(n)
			}
			return left, drv.Stats()
		}
		fwd := make([]int, len(chunks))
		for i := range fwd {
			fwd[i] = i
		}
		shuf := append([]int(nil), fwd...)
		rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
		la, sa := run(fwd)
		lb, sb := run(shuf)
		if !slices.Equal(la, make([]int64, nNodes)) || !slices.Equal(la, lb) {
			return false
		}
		return sa.Deflations == sb.Deflations && sa.DeflatedPages == sb.DeflatedPages &&
			sa.DeflatedPages == sa.InflatedPages
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickEstimatorDeterministic: the working-set estimate is a pure
// function of the observation sequence — two estimators fed the same
// seeded stream agree bit-exactly at every step.
func TestQuickEstimatorDeterministic(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		gen := func() []int64 {
			rng := rand.New(rand.NewSource(seed))
			out := make([]int64, int(n)+1)
			for i := range out {
				out[i] = rng.Int63n(1 << 20)
			}
			return out
		}
		a, b := NewEstimator(0.2), NewEstimator(0.2)
		sa, sb := gen(), gen()
		for i := range sa {
			a.Observe(sa[i])
			b.Observe(sb[i])
			if a.Pages() != b.Pages() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
