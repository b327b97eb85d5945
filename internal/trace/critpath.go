// Critical-path analyzer: walks the causal span DAG of each root work
// item and attributes every nanosecond of its lifetime to exactly one
// category, answering "where did the time go?" for a whole run.
//
// The attribution rule is an exact interval partition. For each root span
// (a vCPU task or checkpoint operation with no parent), the analyzer
// sweeps its children in start order with a cursor: the portion of a
// child's interval past the cursor (clipped to the parent's window) is
// attributed recursively to that child; whatever the children leave
// uncovered is the span's own time, charged to its category. A root task's
// own time is, by definition, time the guest was neither computing nor
// waiting on an instrumented subsystem — runnable-but-not-running — so it
// is charged to the queueing category. Because the sweep partitions the
// root window exactly, the per-category times sum to the total end-to-end
// time with zero error — the property the fig-4 acceptance check asserts.

package trace

import (
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Breakdown is the per-category critical-path attribution of a session.
type Breakdown struct {
	Cat   [numCategories]sim.Time
	Total sim.Time // summed lifetimes of all root spans
	Roots int
}

// CriticalPath computes the breakdown over every tracer in the session.
// Roots are spans with no parent in the task or checkpoint categories;
// parentless network spans (fire-and-forget daemon traffic such as
// heartbeats) are background load, not work items, and are excluded.
func (s *Session) CriticalPath() Breakdown {
	var b Breakdown
	for _, t := range s.tracers {
		t.criticalPath(&b)
	}
	return b
}

func isRoot(sp *Span) bool {
	return sp.Parent == 0 && !sp.Instant && (sp.Cat == CatTask || sp.Cat == CatCheckpoint)
}

func (t *Tracer) criticalPath(b *Breakdown) {
	if t == nil || len(t.spans) == 0 {
		return
	}
	horizon := t.horizon()
	endOf := func(sp *Span) sim.Time {
		if sp.End < 0 {
			return horizon
		}
		return sp.End
	}
	// children[id] lists span indexes by parent id, in creation order —
	// already almost start-ordered; the walk stable-sorts per parent.
	children := make([][]int32, len(t.spans)+1)
	for i := range t.spans {
		sp := &t.spans[i]
		if sp.Parent > 0 && !sp.Instant {
			children[sp.Parent] = append(children[sp.Parent], int32(i))
		}
	}
	for id := range children {
		ch := children[id]
		// Insertion sort by start time; stable, and nearly-sorted input
		// makes it effectively linear.
		for i := 1; i < len(ch); i++ {
			for j := i; j > 0 && t.spans[ch[j]].Start < t.spans[ch[j-1]].Start; j-- {
				ch[j], ch[j-1] = ch[j-1], ch[j]
			}
		}
	}
	var walk func(idx int32, ws, we sim.Time)
	walk = func(idx int32, ws, we sim.Time) {
		sp := &t.spans[idx]
		cursor := ws
		var covered sim.Time
		for _, ci := range children[sp.ID] {
			c := &t.spans[ci]
			cs := c.Start
			if cs < cursor {
				cs = cursor
			}
			ce := endOf(c)
			if ce > we {
				ce = we
			}
			if ce <= cs {
				continue
			}
			walk(ci, cs, ce)
			covered += ce - cs
			cursor = ce
		}
		own := (we - ws) - covered
		cat := sp.Cat
		if cat == CatTask {
			cat = CatQueue
		}
		b.Cat[cat] += own
	}
	for i := range t.spans {
		sp := &t.spans[i]
		if !isRoot(sp) {
			continue
		}
		b.Roots++
		b.Total += endOf(sp) - sp.Start
		walk(int32(i), sp.Start, endOf(sp))
	}
}

// Sum returns the summed per-category attribution; equal to Total by
// construction.
func (b Breakdown) Sum() sim.Time {
	var s sim.Time
	for _, v := range b.Cat {
		s += v
	}
	return s
}

// Table renders the breakdown as a metrics table: one row per category
// that received time, with its share of the total.
func (b Breakdown) Table(title string) *metrics.Table {
	t := metrics.NewTable(title, "category", "time", "share")
	order := []Category{CatCompute, CatDSM, CatNet, CatQueue, CatCheckpoint, CatMigrate, CatFleet, CatBalloon, CatOther}
	for _, cat := range order {
		v := b.Cat[cat]
		core := cat == CatCompute || cat == CatDSM || cat == CatNet || cat == CatQueue
		if v == 0 && !core {
			continue
		}
		share := 0.0
		if b.Total > 0 {
			share = float64(v) / float64(b.Total)
		}
		t.AddRow(cat.String(), v, share)
	}
	t.AddRow("total", b.Total, boolShare(b.Total > 0))
	t.AddNote("critical path over %d root span(s); categories partition the total exactly", b.Roots)
	return t
}

func boolShare(nonzero bool) float64 {
	if nonzero {
		return 1.0
	}
	return 0.0
}
