package reliable

// Window is a receiver's dedup state for one sender whose sequence
// numbers are contiguous from zero: every seq below next has been
// admitted, and fresh arrivals ahead of next park until the gap closes.
// In-order arrivals take a fast path that touches no map, and at most the
// sender's in-flight messages park: a gap closes when its frame is
// retransmitted, and a fence deletes the whole flow. The transport keeps
// one per (from, to) flow.
type Window struct {
	next   uint64
	parked map[uint64]bool
}

// Admit reports whether seq is fresh, recording it; a seq admitted
// before is a duplicate.
func (w *Window) Admit(seq uint64) bool {
	if seq == w.next && len(w.parked) == 0 {
		w.next++
		return true
	}
	if seq < w.next || w.parked[seq] {
		return false
	}
	if w.parked == nil {
		w.parked = make(map[uint64]bool)
	}
	w.parked[seq] = true
	for w.parked[w.next] {
		delete(w.parked, w.next)
		w.next++
	}
	return true
}

// Parked returns how many admitted seqs sit ahead of a gap.
func (w *Window) Parked() int { return len(w.parked) }
