package fault

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// everyKind is a schedule exercising every event kind with every field
// its kind uses, including Any wildcards and negative endpoints.
func everyKind() Schedule {
	var s Schedule
	s.Add(Event{At: 1 * sim.Millisecond, Kind: CrashNode, Node: 2})
	s.Add(Event{At: 2 * sim.Millisecond, Kind: HealNode, Node: 2})
	s.Add(Event{At: 3 * sim.Millisecond, Kind: Partition, A: 0, B: 3})
	s.Add(Event{At: 4 * sim.Millisecond, Kind: HealPartition, A: 0, B: 3})
	s.Add(Event{At: 5 * sim.Millisecond, Kind: DropMessages, From: Any, To: 1, Count: 7})
	s.Add(Event{At: 6 * sim.Millisecond, Kind: DelayMessages, From: -1, To: Any, Count: 3, Delay: 250 * sim.Microsecond})
	s.Add(Event{At: 7 * sim.Millisecond, Kind: DupMessages, From: 1, To: 2, Count: 4})
	s.Add(Event{At: 8 * sim.Millisecond, Kind: DegradeCPU, Node: 1, Factor: 1.5})
	s.Add(Event{At: 9 * sim.Millisecond, Kind: HealCPU, Node: 1})
	s.Add(Event{At: 10 * sim.Millisecond, Kind: DegradeDisk, Node: 3, Factor: 4})
	s.Add(Event{At: 11 * sim.Millisecond, Kind: HealDisk, Node: 3})
	s.Add(Event{At: 12 * sim.Millisecond, Kind: CutLink, Link: "tor0-up"})
	s.Add(Event{At: 13 * sim.Millisecond, Kind: DegradeLink, Link: "n1", Delay: 100 * sim.Microsecond})
	s.Add(Event{At: 14 * sim.Millisecond, Kind: HealLink, Link: "spine"})
	return s
}

// TestScheduleJSONRoundTrip: export → import reproduces the exact
// schedule value, and re-export reproduces the exact bytes.
func TestScheduleJSONRoundTrip(t *testing.T) {
	s := everyKind()
	b, err := s.JSON()
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	got, err := ScheduleFromJSON(b)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip changed the schedule:\nwant %+v\ngot  %+v", s, got)
	}
	b2, err := got.JSON()
	if err != nil {
		t.Fatalf("re-export: %v", err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("re-export not byte-identical:\n%s\nvs\n%s", b, b2)
	}
}

// TestScheduleJSONOmitsUnusedFields: a crash event should not mention
// message-rule or link fields.
func TestScheduleJSONOmitsUnusedFields(t *testing.T) {
	s := Schedule{Events: []Event{{At: sim.Millisecond, Kind: CrashNode, Node: 1}}}
	b, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"count", "delay", "factor", "link", "from", "to", `"a"`, `"b"`} {
		if bytes.Contains(b, []byte(field)) {
			t.Errorf("crash event encoding mentions %s:\n%s", field, b)
		}
	}
}

// TestScheduleJSONWildcards: Any encodes as "*" (not its raw integer)
// and decodes back to Any.
func TestScheduleJSONWildcards(t *testing.T) {
	s := Schedule{Events: []Event{{At: 0, Kind: DropMessages, From: Any, To: Any, Count: 1}}}
	b, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"*"`)) {
		t.Fatalf("wildcard not rendered as *:\n%s", b)
	}
	got, err := ScheduleFromJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Events[0].From != Any || got.Events[0].To != Any {
		t.Fatalf("wildcards lost: %+v", got.Events[0])
	}
}

// TestScheduleJSONRejectsUnknownKind: bad input fails loudly.
func TestScheduleJSONRejectsUnknownKind(t *testing.T) {
	if _, err := ScheduleFromJSON([]byte(`[{"at":1,"kind":"meteor-strike"}]`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := ScheduleFromJSON([]byte(`[{"at":1,"kind":"drop","from":"north"}]`)); err == nil {
		t.Fatal("bad endpoint accepted")
	}
}
