package sim

// ring is a growable circular FIFO buffer. It replaces the `s = s[1:]`
// slice-shift idiom previously used for queue items and waiter lists: that
// idiom keeps every popped element reachable through the shared backing
// array (the slice header advances but the array head does not), so a
// long-lived queue pins its all-time peak contents forever. The ring zeroes
// each slot on pop and shrinks its buffer when occupancy falls below a
// quarter, so steady-state memory tracks the live population, not history.
//
// Capacity is always a power of two (so index wrapping is a mask), growing
// by doubling and shrinking by halving with 1/4-occupancy hysteresis —
// both amortized O(1).
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// ringMinCap is the smallest non-zero buffer size. Below it the ring never
// shrinks; an empty ring that has never been pushed holds no buffer at all.
const ringMinCap = 8

// len returns the number of buffered elements.
func (r *ring[T]) len() int { return r.n }

// push appends v at the tail.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.resize(max(ringMinCap, 2*r.n))
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the head element, zeroing its slot so the ring
// never pins popped values.
func (r *ring[T]) pop() T {
	if r.n == 0 {
		panic("sim: pop from empty ring")
	}
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	if len(r.buf) > ringMinCap && r.n <= len(r.buf)/4 {
		r.resize(len(r.buf) / 2)
	}
	return v
}

// at returns the i-th element from the head without removing it.
func (r *ring[T]) at(i int) T {
	if i < 0 || i >= r.n {
		panic("sim: ring index out of range")
	}
	return r.buf[(r.head+i)&(len(r.buf)-1)]
}

// resize re-homes the live elements into a fresh buffer of newCap (a power
// of two >= n), releasing the old array.
func (r *ring[T]) resize(newCap int) {
	buf := make([]T, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}
