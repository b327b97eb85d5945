package sim

import (
	"math/rand"
	"testing"
)

// TestRingAgainstReferenceSlice drives a ring and a plain slice through
// the same randomized push/pop sequence and checks they agree at
// every step.
func TestRingAgainstReferenceSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r ring[int]
	var ref []int
	next := 0
	for step := 0; step < 100_000; step++ {
		switch op := rng.Intn(8); {
		case op < 5: // push
			r.push(next)
			ref = append(ref, next)
			next++
		default: // pop
			if len(ref) == 0 {
				continue
			}
			want := ref[0]
			ref = ref[1:]
			if got := r.pop(); got != want {
				t.Fatalf("step %d: pop = %d, want %d", step, got, want)
			}
		}
		if r.len() != len(ref) {
			t.Fatalf("step %d: len = %d, want %d", step, r.len(), len(ref))
		}
		for i, want := range ref {
			if got := r.at(i); got != want {
				t.Fatalf("step %d: at(%d) = %d, want %d", step, i, got, want)
			}
		}
	}
}

// TestRingShrinks checks the buffer halves after a burst drains, so a
// one-time spike does not pin its peak footprint.
func TestRingShrinks(t *testing.T) {
	var r ring[int]
	for i := 0; i < 4096; i++ {
		r.push(i)
	}
	peak := len(r.buf)
	for i := 0; i < 4095; i++ {
		r.pop()
	}
	if len(r.buf) >= peak/4 {
		t.Fatalf("buffer still %d slots after drain (peak %d)", len(r.buf), peak)
	}
	if got := r.pop(); got != 4095 {
		t.Fatalf("last element = %d, want 4095", got)
	}
}

// TestRingEmptyPopPanics pins the misuse contract.
func TestRingEmptyPopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("pop from empty ring did not panic")
		}
	}()
	var r ring[int]
	r.pop()
}
