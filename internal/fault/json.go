// JSON export/import for fault schedules, so chaos repro artifacts are
// shareable and diffable. Encoding is deterministic: fixed field order,
// kinds rendered by name, times as integer nanoseconds of virtual time.
// Unused per-kind fields are omitted, which keeps diffs between two
// schedules focused on the events that actually changed.
package fault

import (
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// eventJSON is the wire form of an Event. Pointers distinguish "absent"
// from zero, so an exported event carries only the fields its kind uses
// and a re-imported event compares equal to the original.
type eventJSON struct {
	At     sim.Time `json:"at"`
	Kind   string   `json:"kind"`
	Node   *int     `json:"node,omitempty"`
	A      *int     `json:"a,omitempty"`
	B      *int     `json:"b,omitempty"`
	From   *string  `json:"from,omitempty"` // endpoint id, or "*" for Any
	To     *string  `json:"to,omitempty"`
	Count  *int     `json:"count,omitempty"`
	Delay  sim.Time `json:"delay,omitempty"`
	Factor float64  `json:"factor,omitempty"`
	Link   string   `json:"link,omitempty"`
}

// kindNames maps every Kind to its String() name; kindFromName is the
// inverse, built once at init.
var kindNames = []Kind{
	CrashNode, HealNode, Partition, HealPartition,
	DropMessages, DelayMessages, DupMessages,
	DegradeCPU, HealCPU, DegradeDisk, HealDisk,
	CutLink, HealLink, DegradeLink,
}

var kindFromName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for _, k := range kindNames {
		m[k.String()] = k
	}
	return m
}()

func endJSON(id int) *string {
	s := end(id) // "*" for Any, decimal otherwise
	return &s
}

func endFromJSON(s *string) (int, error) {
	if s == nil {
		return 0, nil
	}
	if *s == "*" {
		return Any, nil
	}
	var id int
	if _, err := fmt.Sscanf(*s, "%d", &id); err != nil {
		return 0, fmt.Errorf("fault: bad endpoint %q", *s)
	}
	return id, nil
}

// MarshalJSON encodes the event with only the fields its kind uses.
func (e Event) MarshalJSON() ([]byte, error) {
	w := eventJSON{At: e.At, Kind: e.Kind.String()}
	switch e.Kind {
	case CrashNode, HealNode, HealCPU, HealDisk:
		w.Node = &e.Node
	case Partition, HealPartition:
		w.A, w.B = &e.A, &e.B
	case DropMessages, DupMessages:
		w.From, w.To, w.Count = endJSON(e.From), endJSON(e.To), &e.Count
	case DelayMessages:
		w.From, w.To, w.Count = endJSON(e.From), endJSON(e.To), &e.Count
		w.Delay = e.Delay
	case DegradeCPU, DegradeDisk:
		w.Node, w.Factor = &e.Node, e.Factor
	case CutLink, HealLink:
		w.Link = e.Link
	case DegradeLink:
		w.Link, w.Delay = e.Link, e.Delay
	default:
		return nil, fmt.Errorf("fault: cannot encode unknown kind %v", e.Kind)
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes an event previously encoded by MarshalJSON.
func (e *Event) UnmarshalJSON(data []byte) error {
	var w eventJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	k, ok := kindFromName[w.Kind]
	if !ok {
		return fmt.Errorf("fault: unknown event kind %q", w.Kind)
	}
	from, err := endFromJSON(w.From)
	if err != nil {
		return err
	}
	to, err := endFromJSON(w.To)
	if err != nil {
		return err
	}
	*e = Event{At: w.At, Kind: k, Delay: w.Delay, Factor: w.Factor, Link: w.Link, From: from, To: to}
	if w.Node != nil {
		e.Node = *w.Node
	}
	if w.A != nil {
		e.A = *w.A
	}
	if w.B != nil {
		e.B = *w.B
	}
	if w.Count != nil {
		e.Count = *w.Count
	}
	return nil
}

// JSON exports the schedule as deterministic, indented JSON: same
// schedule value, same bytes.
func (s Schedule) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(s.Events, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ScheduleFromJSON imports a schedule exported by JSON.
func ScheduleFromJSON(data []byte) (Schedule, error) {
	var evs []Event
	if err := json.Unmarshal(data, &evs); err != nil {
		return Schedule{}, fmt.Errorf("fault: bad schedule JSON: %w", err)
	}
	return Schedule{Events: evs}, nil
}
