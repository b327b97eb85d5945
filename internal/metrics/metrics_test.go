package metrics

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestTableRendering(t *testing.T) {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("short", 1.5)
	tab.AddRow("a-longer-name", 42*sim.Microsecond)
	tab.AddNote("note %d", 7)
	out := tab.String()
	for _, want := range []string{"== demo ==", "name", "a-longer-name", "1.500", "42.00us", "note: note 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 6 {
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestSummarize(t *testing.T) {
	var samples []sim.Time
	for i := 1; i <= 100; i++ {
		samples = append(samples, sim.Time(i))
	}
	s := Summarize(samples)
	if s.N != 100 || s.P50 != 50 || s.P95 != 95 || s.Max != 100 {
		t.Fatalf("summary = %+v", s)
	}
	if s.Mean != 50 { // (1+...+100)/100 = 50.5, integer division
		t.Fatalf("mean = %v", s.Mean)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(10, 5) != 2.0 || Ratio(10, 0) != 0 {
		t.Fatal("Ratio wrong")
	}
}

func TestCountersSnapshotAndMerge(t *testing.T) {
	a := NewCounters()
	a.Inc("msgs", 3)
	a.Inc("bytes", 100)
	b := NewCounters()
	b.Inc("msgs", 2)
	b.Inc("drops", 1)

	a.Merge(b)
	if got := a.Get("msgs"); got != 5 {
		t.Fatalf("merged msgs = %d, want 5", got)
	}
	if got := a.Get("drops"); got != 1 {
		t.Fatalf("merged drops = %d, want 1 (new name created)", got)
	}
	if got := b.Get("msgs"); got != 2 {
		t.Fatalf("merge mutated its argument: msgs = %d, want 2", got)
	}
	a.Merge(nil) // no-op

	snap := a.Snapshot()
	if len(snap) != 3 || snap["bytes"] != 100 {
		t.Fatalf("snapshot = %v, want 3 entries with bytes=100", snap)
	}
	snap["bytes"] = 0
	if got := a.Get("bytes"); got != 100 {
		t.Fatalf("mutating snapshot changed counters: bytes = %d", got)
	}
}
