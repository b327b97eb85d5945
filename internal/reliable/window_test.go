package reliable

import "testing"

func TestWindowAdmitsEachSeqOnce(t *testing.T) {
	var w Window
	steps := []struct {
		seq    uint64
		fresh  bool
		parked int
	}{
		{0, true, 0}, {0, false, 0}, // in order, then its duplicate
		{2, true, 1}, {3, true, 2}, {2, false, 2}, // ahead of the gap at 1
		{1, true, 0}, // closes the gap: 2 and 3 unpark
		{3, false, 0}, {4, true, 0},
	}
	for i, s := range steps {
		if got := w.Admit(s.seq); got != s.fresh {
			t.Errorf("step %d: Admit(%d) = %v, want %v", i, s.seq, got, s.fresh)
		}
		if got := w.Parked(); got != s.parked {
			t.Errorf("step %d: %d parked, want %d", i, got, s.parked)
		}
	}
}
