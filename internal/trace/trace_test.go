package trace_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// TestNilTracerIsSafe: every method must no-op on a nil tracer — the
// zero-cost-when-disabled contract instrumented code relies on.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *trace.Tracer
	id := tr.Begin(0, trace.CatDSM, 0, "x")
	if id != 0 {
		t.Fatalf("nil Begin returned %d, want 0", id)
	}
	tr.End(id)
	tr.Complete(0, trace.CatNet, 0, "x", 0, 1)
	tr.Instant(0, trace.CatFault, 0, "x")
	if tr.Len() != 0 || tr.Spans() != nil || tr.Label() != "" || tr.Key("a", "b") != "" {
		t.Fatal("nil tracer accessors must return zero values")
	}
	if got := trace.FromEnv(sim.NewEnv()); got != nil {
		t.Fatalf("FromEnv on untraced env = %v, want nil", got)
	}
	if got := trace.FromEnv(nil); got != nil {
		t.Fatalf("FromEnv(nil) = %v, want nil", got)
	}
}

func TestBeginEndRecordsVirtualTime(t *testing.T) {
	env := sim.NewEnv()
	sess := trace.NewSession()
	tr := sess.Attach(env, "unit")
	if trace.FromEnv(env) != tr {
		t.Fatal("FromEnv must return the attached tracer")
	}
	env.Spawn("w", func(p *sim.Proc) {
		p.Sleep(10)
		id := tr.Begin(0, trace.CatTask, 3, "work")
		p.Sleep(25)
		tr.End(id)
	})
	env.Run()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("recorded %d spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Start != 10 || sp.End != 35 || sp.Node != 3 || sp.Cat != trace.CatTask {
		t.Fatalf("span = %+v, want start 10 end 35 node 3 cat task", sp)
	}
}

// TestCloseLeavesSpansOpen: closing an environment unwinds its parked
// procs and runs their deferred End calls, but Close is not a simulated
// event, so a span open when the run stopped stays open in the export.
func TestCloseLeavesSpansOpen(t *testing.T) {
	env := sim.NewEnv()
	tr := trace.NewSession().Attach(env, "unit")
	env.Spawn("w", func(p *sim.Proc) {
		id := tr.Begin(0, trace.CatTask, 0, "parked")
		defer tr.End(id)
		p.Wait(new(sim.Event))
	})
	env.Run()
	env.Close()
	if sp := tr.Spans()[0]; sp.End != -1 {
		t.Fatalf("span after Close = %+v, want it still open (End -1)", sp)
	}
}

func TestKeyInternsNames(t *testing.T) {
	sess := trace.NewSession()
	tr := sess.Attach(sim.NewEnv(), "unit")
	a := tr.Key("dsm1.dir", "fault")
	b := tr.Key("dsm1.dir", "fault")
	if a != "dsm1.dir/fault" || b != a {
		t.Fatalf("Key = %q / %q, want dsm1.dir/fault twice", a, b)
	}
}

// TestCriticalPathPartition checks the analyzer on a hand-built DAG:
// root task [0,100] with compute [10,30] and dsm [30,80], the dsm span
// containing a nested network span [40,60]. Expected attribution:
// compute 20, dsm 50-20=30, network 20, queueing (root's own) 30 — an
// exact partition of the 100ns root.
func TestCriticalPathPartition(t *testing.T) {
	sess := trace.NewSession()
	tr := sess.Attach(sim.NewEnv(), "unit")
	root := tr.Complete(0, trace.CatTask, 0, "root", 0, 100)
	tr.Complete(root, trace.CatCompute, 0, "compute", 10, 30)
	dsm := tr.Complete(root, trace.CatDSM, 0, "dsm.write", 30, 80)
	tr.Complete(dsm, trace.CatNet, 0, "nic", 40, 60)
	tr.Instant(root, trace.CatFault, 0, "fault.crash") // instants get no time

	bd := sess.CriticalPath()
	if bd.Roots != 1 || bd.Total != 100 {
		t.Fatalf("roots=%d total=%v, want 1 and 100", bd.Roots, bd.Total)
	}
	want := map[trace.Category]sim.Time{
		trace.CatCompute: 20,
		trace.CatDSM:     30,
		trace.CatNet:     20,
		trace.CatQueue:   30,
	}
	for cat, w := range want {
		if bd.Cat[cat] != w {
			t.Fatalf("category %v got %v, want %v (breakdown %+v)", cat, bd.Cat[cat], w, bd)
		}
	}
	if bd.Sum() != bd.Total {
		t.Fatalf("Sum() = %v, want Total %v — partition must be exact", bd.Sum(), bd.Total)
	}
	tbl := bd.Table("unit")
	if len(tbl.Rows) == 0 {
		t.Fatal("breakdown table is empty")
	}
}

// TestCriticalPathOverlappingChildren: overlapping child intervals must
// not double-count — the cursor clips the second child to its uncovered
// remainder.
func TestCriticalPathOverlappingChildren(t *testing.T) {
	sess := trace.NewSession()
	tr := sess.Attach(sim.NewEnv(), "unit")
	root := tr.Complete(0, trace.CatTask, 0, "root", 0, 100)
	tr.Complete(root, trace.CatCompute, 0, "compute", 0, 60)
	tr.Complete(root, trace.CatDSM, 0, "dsm.read", 40, 90) // overlaps [40,60)

	bd := sess.CriticalPath()
	if bd.Cat[trace.CatCompute] != 60 || bd.Cat[trace.CatDSM] != 30 || bd.Cat[trace.CatQueue] != 10 {
		t.Fatalf("breakdown %+v, want compute 60 dsm 30 queueing 10", bd.Cat)
	}
	if bd.Sum() != 100 {
		t.Fatalf("Sum() = %v, want 100", bd.Sum())
	}
}

// TestChromeExportIsValidJSON exports a small trace and parses it back.
func TestChromeExportIsValidJSON(t *testing.T) {
	env := sim.NewEnv()
	sess := trace.NewSession()
	tr := sess.Attach(env, "unit")
	env.Spawn("w", func(p *sim.Proc) {
		id := tr.Begin(0, trace.CatTask, 0, "work")
		p.Sleep(1500)
		cid := tr.Begin(id, trace.CatDSM, 1, "dsm.read")
		p.Sleep(2750)
		tr.End(cid)
		tr.Instant(id, trace.CatFault, 0, "fault.crash")
		tr.End(id)
		tr.Begin(id, trace.CatNet, 1, "left.open") // never ended
	})
	env.Run()
	var buf bytes.Buffer
	if err := sess.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	// 4 spans + 1 process_name + 2 thread_name (nodes 0 and 1).
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("exported %d events, want 7:\n%s", len(doc.TraceEvents), buf.String())
	}
	var open, instants int
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "i" {
			instants++
		}
		if args, ok := ev["args"].(map[string]any); ok && args["open"] == float64(1) {
			open++
		}
	}
	if instants != 1 || open != 1 {
		t.Fatalf("instants = %d open = %d, want 1 and 1:\n%s", instants, open, buf.String())
	}
}
