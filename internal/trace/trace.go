// Package trace is the causal event-tracing subsystem for the simulation.
//
// A Tracer records typed spans — intervals of virtual time attributed to a
// node and a category — with parent/child causality forming a DAG over one
// simulation run: a vCPU task span parents the DSM fault spans its memory
// accesses open, a fault span parents the network delivery span of its
// request, the directory's handler span parents the invalidation and grant
// traffic, and so on. Causality is threaded through the existing layers
// with two hooks that keep the core dependency-free:
//
//   - sim.Env carries an opaque tracing context (Env.SetTrace / Env.Trace);
//     FromEnv type-asserts it back to a *Tracer.
//   - sim.Proc carries the current span id (Proc.SetSpan / Proc.Span), so
//     any code running inside a process can parent new work correctly
//     without plumbing span arguments through every call.
//
// Tracing is zero-cost when disabled: every Tracer method is safe on a nil
// receiver and FromEnv returns nil for untraced environments, so
// instrumented code calls `tr.Begin(...)` unconditionally and pays one nil
// check. When enabled, recording a span is one append into a flat slice;
// span names are static literals or interned via Key, so steady-state
// tracing does not allocate per event beyond slice growth.
//
// Determinism: the simulation core executes events in a deterministic
// order, and Tracer assigns span ids in creation order, so two runs with
// the same seed produce identical span tables — and, via WriteChrome's
// stable ordering and integer-only timestamp formatting, byte-identical
// trace files. Instrumented code must not let map iteration order influence
// span creation order; see DESIGN.md for the full rules.
package trace

import (
	"repro/internal/sim"
)

// SpanID identifies a span within one Session. It aliases int64 so it can
// be stored directly in sim.Proc and msg.Message without converting.
// Zero means "no span" and is always a valid parent.
type SpanID = int64

// Category classifies where a span's time goes. The critical-path analyzer
// reports one row per category.
type Category uint8

// Span categories, in display order.
const (
	CatTask       Category = iota // root work items (vCPU tasks, boot)
	CatCompute                    // guest cycles on a pCPU
	CatDSM                        // waiting on the ownership protocol
	CatNet                        // message serialization + flight + handling
	CatCheckpoint                 // checkpoint collect/persist/restore
	CatMigrate                    // vCPU live migration
	CatFault                      // injected faults (instants)
	CatFleet                      // fleet control plane: admit/lease/reclaim/rebalance
	CatBalloon                    // balloon driver: inflate/deflate/reclaim stalls
	CatQueue                      // derived: root time no child span covers
	CatOther
	numCategories
)

var catNames = [numCategories]string{
	"task", "compute", "dsm-wait", "network", "checkpoint",
	"migrate", "fault", "fleet", "balloon", "queueing", "other",
}

func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "invalid"
}

// Span is one recorded interval (or instant) of virtual time.
type Span struct {
	ID      SpanID
	Parent  SpanID // 0 for roots
	Cat     Category
	Node    int // cluster node id (netsim endpoint); -1 for external hosts
	Name    string
	Start   sim.Time
	End     sim.Time // -1 while open; exporters clamp open spans
	Instant bool     // zero-duration marker (sched decisions, faults)
}

// Tracer records spans for one simulation environment. Create via
// Session.Attach; all methods are no-ops on a nil receiver so callers
// never branch on "tracing enabled".
type Tracer struct {
	env   *sim.Env
	pid   int // process id in the Chrome export; 1-based session index
	label string
	spans []Span
	names map[nameKey]string
}

type nameKey struct{ a, b string }

// FromEnv returns the tracer attached to env, or nil if the environment is
// untraced (or env itself is nil).
func FromEnv(env *sim.Env) *Tracer {
	if env == nil {
		return nil
	}
	t, _ := env.Trace().(*Tracer)
	return t
}

// Label returns the label given to Session.Attach.
func (t *Tracer) Label() string {
	if t == nil {
		return ""
	}
	return t.label
}

// Key interns the two-part name "a/b" so hot paths (one span per message)
// do not re-concatenate strings per event.
func (t *Tracer) Key(a, b string) string {
	if t == nil {
		return ""
	}
	k := nameKey{a, b}
	s, ok := t.names[k]
	if !ok {
		s = a + "/" + b
		t.names[k] = s
	}
	return s
}

// Begin opens a span starting now and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(parent SpanID, cat Category, node int, name string) SpanID {
	if t == nil {
		return 0
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Cat: cat, Node: node, Name: name,
		Start: t.env.Now(), End: -1,
	})
	return id
}

// End closes an open span at the current time. End(0) is a no-op, so the
// id returned by a nil tracer's Begin can be passed back unconditionally.
func (t *Tracer) End(id SpanID) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = t.env.Now()
}

// Complete records a span with explicit bounds, for intervals whose start
// or end is computed rather than observed (e.g. future NIC occupancy),
// and returns its id (0 on a nil tracer).
func (t *Tracer) Complete(parent SpanID, cat Category, node int, name string, start, end sim.Time) SpanID {
	if t == nil {
		return 0
	}
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Cat: cat, Node: node, Name: name,
		Start: start, End: end,
	})
	return id
}

// Instant records a zero-duration marker at the current time.
func (t *Tracer) Instant(parent SpanID, cat Category, node int, name string) {
	if t == nil {
		return
	}
	id := SpanID(len(t.spans) + 1)
	now := t.env.Now()
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Cat: cat, Node: node, Name: name,
		Start: now, End: now, Instant: true,
	})
}

// Len returns the number of recorded spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// Spans returns the recorded spans in creation order. The slice is shared;
// callers must not mutate it.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// horizon returns the clamp time for open spans: the latest Start or End
// the tracer observed.
func (t *Tracer) horizon() sim.Time {
	var h sim.Time
	for i := range t.spans {
		if t.spans[i].Start > h {
			h = t.spans[i].Start
		}
		if t.spans[i].End > h {
			h = t.spans[i].End
		}
	}
	if now := t.env.Now(); now > h {
		h = now
	}
	return h
}

// Session groups the tracers of one logical run. Experiments build several
// simulation environments (one per compared system); attaching them all to
// one Session yields a single trace file with one "process" per
// environment.
type Session struct {
	tracers []*Tracer
}

// NewSession returns an empty session.
func NewSession() *Session { return &Session{} }

// Attach creates a tracer for env, labels it, installs it via
// env.SetTrace, and returns it. Attach must run before any component
// caches the environment's tracer — in practice, before the cluster and VM
// are built on env.
func (s *Session) Attach(env *sim.Env, label string) *Tracer {
	t := &Tracer{
		env:   env,
		pid:   len(s.tracers) + 1,
		label: label,
		names: make(map[nameKey]string),
	}
	s.tracers = append(s.tracers, t)
	env.SetTrace(t)
	return t
}

// Tracers returns the attached tracers in attach order.
func (s *Session) Tracers() []*Tracer { return s.tracers }

// SpanCount returns the total spans recorded across all tracers.
func (s *Session) SpanCount() int {
	n := 0
	for _, t := range s.tracers {
		n += len(t.spans)
	}
	return n
}
