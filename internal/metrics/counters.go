package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Counters is a set of named monotonic int64 counters with deterministic
// (sorted) rendering — the reporting vehicle for fault-injection, retry,
// and recovery accounting, where bit-identical output across same-seed
// runs is itself an asserted invariant.
type Counters struct {
	vals map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters {
	return &Counters{vals: make(map[string]int64)}
}

// Inc adds delta to the named counter, creating it at zero first.
func (c *Counters) Inc(name string, delta int64) {
	c.vals[name] += delta
}

// Get returns the named counter's value (zero if never incremented).
func (c *Counters) Get(name string) int64 { return c.vals[name] }

// Names returns the counter names in sorted order.
func (c *Counters) Names() []string {
	out := make([]string, 0, len(c.vals))
	for name := range c.vals {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// String renders "name=value" pairs, sorted by name, space-separated —
// stable across runs, so it can be compared byte-for-byte in determinism
// tests.
func (c *Counters) String() string {
	var b strings.Builder
	for i, name := range c.Names() {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", name, c.vals[name])
	}
	return b.String()
}

// Snapshot returns a copy of the current counter values. Mutating the
// returned map does not affect the counter set.
func (c *Counters) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(c.vals))
	for name, v := range c.vals {
		out[name] = v
	}
	return out
}

// Merge adds every counter from other into c, creating names c lacks.
// Merging nil is a no-op. It is the aggregation primitive for per-node
// reports: build one Counters per node (or cluster), Merge into a total.
func (c *Counters) Merge(other *Counters) {
	if other == nil {
		return
	}
	for name, v := range other.vals {
		c.vals[name] += v
	}
}
