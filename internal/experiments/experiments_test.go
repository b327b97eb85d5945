package experiments

import (
	"errors"
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/golden"
	"repro/internal/metrics"
)

// quickRuns caches each experiment's QuickOptions table, so one test
// binary runs every experiment at most once: TestAllExperimentsRun and
// the shape tests share the same run.
var quickRuns sync.Map // name -> func() (*metrics.Table, error)

// quick returns the experiment's table at QuickOptions, running it on
// first use.
func quick(t *testing.T, name string) *metrics.Table {
	t.Helper()
	run, _ := quickRuns.LoadOrStore(name, sync.OnceValues(func() (*metrics.Table, error) {
		return Run(name, QuickOptions())
	}))
	tab, err := run.(func() (*metrics.Table, error))()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestAllExperimentsRun is the determinism gate for every figure and
// table: each experiment runs once at QuickOptions, in parallel as
// RunSweep runs them, and its text and JSON renderings must match
// testdata/<name>.{txt,json} byte for byte. Every golden file must
// belong to an experiment. The fig14 goldens pin the paper's timeline:
// the t≈222 s veto, the t≈470 s partial fill, the handback.
func TestAllExperimentsRun(t *testing.T) {
	owned := map[string]bool{}
	for _, name := range Names() {
		txt := filepath.Join("testdata", name+".txt")
		js := filepath.Join("testdata", name+".json")
		owned[txt], owned[js] = true, true
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			tab := quick(t, name)
			golden.Check(t, txt, []byte(tab.String()))
			b, err := tab.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, js, b)
		})
	}
	files, err := filepath.Glob(filepath.Join("testdata", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if !owned[f] {
			t.Errorf("golden %s belongs to no experiment; delete it", f)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", QuickOptions()); err == nil {
		t.Fatal("unknown experiment did not error")
	}
}

// TestBadScaleIsAnError: a scale that is not finite and positive comes
// back as an ErrScale error from Run and RunSweep instead of a panic or
// a table of meaningless numbers.
func TestBadScaleIsAnError(t *testing.T) {
	for _, sc := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		t.Run(strconv.FormatFloat(sc, 'g', -1, 64), func(t *testing.T) {
			if _, err := Run("fig4", Options{Scale: sc, Seed: 42}); !errors.Is(err, ErrScale) {
				t.Errorf("Run: err = %v, want ErrScale", err)
			}
			_, err := RunSweep(SweepSpec{Experiments: []string{"fig4"}, Scales: []float64{0.02, sc}})
			if !errors.Is(err, ErrScale) {
				t.Errorf("RunSweep: err = %v, want ErrScale", err)
			}
		})
	}
}

func cell(t *testing.T, row []string, i int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[i], 64)
	if err != nil {
		t.Fatalf("cell %d = %q: %v", i, row[i], err)
	}
	return v
}

// TestFig4Shape: sharing cost grows with node count; false == true.
func TestFig4Shape(t *testing.T) {
	tab := quick(t, "fig4")
	var prev float64
	for _, row := range tab.Rows {
		f, tr := cell(t, row, 2), cell(t, row, 3)
		if f < 1.5 {
			t.Errorf("vcpus=%s: false-sharing ratio %.2f too low", row[0], f)
		}
		if ratio := tr / f; ratio < 0.7 || ratio > 1.4 {
			t.Errorf("vcpus=%s: true/false = %.2f, want ~1", row[0], ratio)
		}
		if f < prev*0.9 {
			t.Errorf("sharing cost decreased with more nodes: %.2f after %.2f", f, prev)
		}
		prev = f
	}
}

// TestFig5Shape: FragVisor no-sharing >> max-sharing; overcommit flat.
func TestFig5Shape(t *testing.T) {
	tab := quick(t, "fig5")
	first, last := tab.Rows[0], tab.Rows[len(tab.Rows)-1]
	if cell(t, first, 1) < 3*cell(t, last, 1) {
		t.Errorf("fragvisor ops: no-sharing %s not >> max-sharing %s", first[1], last[1])
	}
	ocRatio := cell(t, first, 2) / cell(t, last, 2)
	if ocRatio < 0.85 || ocRatio > 1.15 {
		t.Errorf("overcommit ops not flat: ratio %.2f", ocRatio)
	}
}

// TestFig7Shape: local >= bypass > raw DSM.
func TestFig7Shape(t *testing.T) {
	tab := quick(t, "fig7")
	local := cell(t, tab.Rows[0], 1)
	dsm := cell(t, tab.Rows[1], 1)
	bypass := cell(t, tab.Rows[2], 1)
	if !(local > bypass && bypass > dsm) {
		t.Errorf("read bandwidth ordering wrong: local=%.0f dsm=%.0f bypass=%.0f", local, dsm, bypass)
	}
}

// TestFig8Shape: EP near-linear at 4 vCPUs, IS clearly below it.
func TestFig8Shape(t *testing.T) {
	tab := quick(t, "fig8")
	var ep4, is4 float64
	for _, row := range tab.Rows {
		if row[0] == "EP" && row[1] == "4" {
			ep4 = cell(t, row, 2)
		}
		if row[0] == "IS" && row[1] == "4" {
			is4 = cell(t, row, 2)
		}
	}
	if ep4 < 3.3 {
		t.Errorf("EP 4-vCPU speedup = %.2f, want ~3.9", ep4)
	}
	if is4 > ep4-0.5 {
		t.Errorf("IS speedup %.2f not clearly below EP's %.2f", is4, ep4)
	}
}

// TestFig9Shape: FragVisor faster than GiantVM for every kernel/size.
func TestFig9Shape(t *testing.T) {
	tab := quick(t, "fig9")
	for _, row := range tab.Rows {
		for i := 1; i <= 3; i++ {
			if r := cell(t, row, i); r < 1.0 {
				t.Errorf("%s at %d vcpus: GiantVM/FragVisor = %.2f < 1", row[0], i+1, r)
			}
		}
	}
}

// TestFig10Shape: the optimized guest never loses to vanilla.
func TestFig10Shape(t *testing.T) {
	tab := quick(t, "fig10")
	for _, row := range tab.Rows {
		if r := cell(t, row, 3); r < 0.95 {
			t.Errorf("%s: optimized/vanilla = %.2f < 1", row[0], r)
		}
	}
}

// TestFig11Shape: checkpoint overhead vs single-node stays <= ~10%.
func TestFig11Shape(t *testing.T) {
	tab := quick(t, "fig11")
	for _, row := range tab.Rows {
		pct := strings.TrimSuffix(row[4], "%")
		v, err := strconv.ParseFloat(pct, 64)
		if err != nil {
			t.Fatalf("overhead cell %q", row[4])
		}
		if v > 10.0 {
			t.Errorf("%s/%s vcpus: overhead %.1f%% > 10%%", row[0], row[1], v)
		}
	}
}

// TestFig12Shape: FragVisor loses at 25 ms and wins at 500 ms vs both
// baselines.
func TestFig12Shape(t *testing.T) {
	tab := quick(t, "fig12")
	for _, row := range tab.Rows {
		frag := cell(t, row, 2)
		ratioGiant := cell(t, row, 4)
		switch row[0] {
		case "25.000ms":
			if frag > 1.0 {
				t.Errorf("25ms %s vcpus: fragvisor/overcommit = %.2f, want < 1", row[1], frag)
			}
			if ratioGiant > 1.0 {
				t.Errorf("25ms %s vcpus: fragvisor/giantvm = %.2f, want < 1", row[1], ratioGiant)
			}
		case "500.000ms":
			// The speedup grows with vCPU count (paper: 3.5x at 4
			// vCPUs); at 2 vCPUs the single worker is near parity.
			if row[1] == "4" && frag < 1.8 {
				t.Errorf("500ms 4 vcpus: fragvisor/overcommit = %.2f, want >> 1", frag)
			}
			if row[1] == "2" && frag < 0.85 {
				t.Errorf("500ms 2 vcpus: fragvisor/overcommit = %.2f, collapsed", frag)
			}
			if ratioGiant < 1.0 {
				t.Errorf("500ms %s vcpus: fragvisor/giantvm = %.2f, want > 1", row[1], ratioGiant)
			}
		}
	}
}

// TestFig13Shape: FragVisor beats GiantVM on totals at every size.
func TestFig13Shape(t *testing.T) {
	tab := quick(t, "fig13")
	totals := map[string]map[string]float64{}
	for _, row := range tab.Rows {
		if totals[row[0]] == nil {
			totals[row[0]] = map[string]float64{}
		}
		totals[row[0]][row[1]] = cell(t, row, 5)
	}
	for size, m := range totals {
		if m["fragvisor"] <= m["giantvm"] {
			t.Errorf("%s vcpus: fragvisor total speedup %.2f <= giantvm %.2f",
				size, m["fragvisor"], m["giantvm"])
		}
	}
}

// TestFig14Shape: the trace must contain migrations, a handback, and
// latency samples.
func TestFig14Shape(t *testing.T) {
	tab := quick(t, "fig14")
	notes := strings.Join(tab.Notes, "\n")
	if !strings.Contains(notes, "handbacks") {
		t.Fatalf("notes missing scheduler stats: %s", notes)
	}
	if strings.Contains(notes, "0 handbacks") {
		t.Errorf("target VM never consolidated: %s", notes)
	}
	if !strings.Contains(notes, "request latency") {
		t.Errorf("no request latencies recorded: %s", notes)
	}
}

// rowByName returns the first row whose label column matches name.
func rowByName(t *testing.T, rows [][]string, name string) []string {
	t.Helper()
	for _, row := range rows {
		if row[0] == name {
			return row
		}
	}
	t.Fatalf("no row %q in %v", name, rows)
	return nil
}

// TestReduceShape: the reduce baseline's acceptance shape — squeezing a
// VM above its working set is ~free, squeezing below it degrades.
func TestReduceShape(t *testing.T) {
	tab := quick(t, "reduce")
	// columns: config, wall_ms, slowdown, stalls, stall_ms, wss_pages, ballooned_pages
	above := rowByName(t, tab.Rows, "ballooned-above-ws")
	below := rowByName(t, tab.Rows, "ballooned-below-ws")
	if s := cell(t, above, 2); s > 1.05 {
		t.Errorf("above-ws slowdown = %.3f, want ~1.0", s)
	}
	if st := cell(t, above, 3); st != 0 {
		t.Errorf("above-ws stalls = %v, want 0", st)
	}
	if b := cell(t, above, 6); b == 0 {
		t.Error("above-ws run never ballooned")
	}
	if s := cell(t, below, 2); s <= 1.2 {
		t.Errorf("below-ws slowdown = %.3f, want measurable degradation", s)
	}
	if st := cell(t, below, 3); st == 0 {
		t.Error("below-ws run never stalled")
	}
}

// TestFleetSoakResizeShape: the resize soak admits work without
// evictions and reports balloon activity plus a mean slowdown >= 1.
func TestFleetSoakResizeShape(t *testing.T) {
	tab := quick(t, "fleetsoak-resize")
	stat := func(name string) float64 {
		return cell(t, rowByName(t, tab.Rows, name), 1)
	}
	if ev := stat("evictions"); ev != 0 {
		t.Errorf("resize soak evicted %v VMs, want 0", ev)
	}
	if stat("admitted") == 0 {
		t.Error("resize soak admitted nothing")
	}
	if s := stat("slowdown_mean"); s < 1.0 {
		t.Errorf("slowdown_mean = %.3f, want >= 1.0", s)
	}
}

// TestNetStormShape: the storm and cut scenarios actually exercise the
// fault path — the ToR-cut row is present and records deaths, and every
// fleet-storm row sees probes fail with a typed unreachable error.
func TestNetStormShape(t *testing.T) {
	tab := quick(t, "netstorm")
	col := func(name string) int {
		for i, h := range tab.Headers {
			if h == name {
				return i
			}
		}
		t.Fatalf("no %q column in %v", name, tab.Headers)
		return -1
	}
	deaths, unreachable := col("deaths"), col("unreachable")
	if d := cell(t, rowByName(t, tab.Rows, "vm-tor-cut"), deaths); d == 0 {
		t.Error("vm-tor-cut recorded no deaths")
	}
	storms := 0
	for _, row := range tab.Rows {
		if row[0] != "fleet-storm" {
			continue
		}
		storms++
		if u := cell(t, row, unreachable); u == 0 {
			t.Errorf("fleet-storm %s: no unreachable probes", row[1])
		}
	}
	if storms == 0 {
		t.Error("no fleet-storm rows")
	}
}
