package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/golden"
	"repro/internal/sim"
)

// TestGenerateDeterministic: the episode list is a pure function of the
// config — regenerating yields identical episodes, and each episode is
// independent of the others (a prefix of a larger generation).
func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Episodes: 32, Seed: 7}
	a := Generate(cfg)
	b := Generate(cfg)
	for i := range a {
		if a[i].String() != b[i].String() || a[i].Schedule.String() != b[i].Schedule.String() {
			t.Fatalf("episode %d differs between generations", i)
		}
	}
	big := Generate(Config{Episodes: 64, Seed: 7})
	for i := range a {
		if big[i].String() != a[i].String() {
			t.Fatalf("episode %d changed when the episode count grew", i)
		}
	}
}

// TestGenerateRespectsGrammarSafety: generated schedules stay inside
// the constraints the workloads need — node 0 untouched by
// crashes/cuts, vm schedules crash distinct nodes and never cut links.
func TestGenerateRespectsGrammarSafety(t *testing.T) {
	for _, ep := range Generate(Config{Episodes: 128, Seed: 3}) {
		crashes := map[int]int{}
		for _, e := range ep.Schedule.Events {
			switch e.Kind.String() {
			case "crash":
				if e.Node == 0 {
					t.Fatalf("%s crashes node 0", ep)
				}
				crashes[e.Node]++
			case "cut-link":
				if ep.Workload == WorkloadVM {
					t.Fatalf("%s: vm schedule cuts a link", ep)
				}
				if e.Link == "n0" || e.Link == "spine" || e.Link == "tor0" {
					t.Fatalf("%s cuts %s, severing the controller", ep, e.Link)
				}
			}
		}
		if ep.Workload == WorkloadVM {
			for n, c := range crashes {
				if c > 1 {
					t.Fatalf("%s crashes node %d twice", ep, n)
				}
			}
			if len(ep.Storms) > 0 {
				t.Fatalf("%s: vm episode has arrival storms", ep)
			}
		}
	}
}

// TestCleanSearchFindsNothing is the engine's false-positive gate: a
// bounded search over seed code (no test hooks) must come back with
// zero violations on every episode, across all workloads.
func TestCleanSearchFindsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("full clean search is the long pole; run without -short")
	}
	rep := Search(Config{Episodes: 64, Seed: 1})
	if len(rep.Findings) != 0 {
		t.Fatalf("clean search produced findings:\n%s", rep.Summary())
	}
	for i, vs := range rep.Outcomes {
		if len(vs) != 0 {
			t.Fatalf("episode %d violated: %v", i, vs)
		}
	}
}

// TestSearchDeterministicAcrossParallelism: the report is a pure
// function of the config — worker count changes wall time only — and
// matches testdata/nodedup_seed5.json.
func TestSearchDeterministicAcrossParallelism(t *testing.T) {
	cfg := Config{Episodes: 10, Seed: 5, Hooks: Hooks{NoDedup: true}}
	cfg.Parallel = 1
	seq := Search(cfg).JSON()
	cfg.Parallel = 4
	par := Search(cfg).JSON()
	if !bytes.Equal(seq, par) {
		t.Fatalf("report differs between -parallel 1 and 4:\n--- seq\n%s\n--- par\n%s", seq, par)
	}
	golden.Check(t, filepath.Join("testdata", "nodedup_seed5.json"), seq)
}

// TestFixedArtifactsReplayClean replays the checked-in artifacts of
// bugs since fixed: each one tripped its oracle when it was found, and
// each must now run with no violation at all.
//
//   - quorum_seed2_ep16.json: `fragchaos -episodes 64 -seed 2` episode
//     16, shrunk to one tor1 cut. The even split left no node with
//     quorum, node 0 included, so the fleet saw every node down and its
//     heartbeat was the only proc left running.
func TestFixedArtifactsReplayClean(t *testing.T) {
	for _, name := range []string{"quorum_seed2_ep16.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		art, err := ArtifactFromJSON(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, vs, _ := art.Replay(); len(vs) != 0 {
			t.Errorf("%s replays with violations: %v", name, vs)
		}
	}
}

// TestNoDedupBugFoundAndShrunk seeds the PR 9 dedup bug back in and
// requires the full pipeline to work: the search finds an exactly-once
// violation, shrinks it to a handful of events, and the artifact
// replays byte-identically while tripping the same oracle.
func TestNoDedupBugFoundAndShrunk(t *testing.T) {
	cfg := Config{Episodes: 16, Seed: 2, Hooks: Hooks{NoDedup: true}}
	rep := Search(cfg)
	var f *Finding
	for i := range rep.Findings {
		if rep.Findings[i].Oracle == OracleExactlyOnce {
			f = &rep.Findings[i]
			break
		}
	}
	if f == nil {
		t.Fatalf("search with NoDedup found no exactly-once violation:\n%s", rep.Summary())
	}
	if f.Shrunk.Size() > 5 {
		t.Fatalf("shrunk repro has %d elements, want <= 5:\n%s", f.Shrunk.Size(), f.Shrunk.Schedule.String())
	}
	if !hasOracle(f.ShrunkViolations, OracleExactlyOnce) {
		t.Fatalf("shrunk episode lost the exactly-once violation: %v", f.ShrunkViolations)
	}

	art := f.Artifact(cfg.Seed, cfg.Hooks)
	replayed, vs, ok := art.Replay()
	if !ok {
		t.Fatalf("artifact replay did not trip %s: %v", art.Oracle, vs)
	}
	if !bytes.Equal(art.JSON(), replayed.JSON()) {
		t.Fatalf("replay is not byte-identical:\n--- original\n%s\n--- replayed\n%s", art.JSON(), replayed.JSON())
	}
	// The hook is live: without it the same episode keeps exactly-once.
	if vs := Run(f.Shrunk, Hooks{}); hasOracle(vs, OracleExactlyOnce) {
		t.Fatalf("shrunk episode violates exactly-once without NoDedup: %v", vs)
	}
}

// TestPhantomEndpointsShrinksToEmpty: a bug the workload trips with no
// faults at all must shrink to the empty schedule.
func TestPhantomEndpointsShrinksToEmpty(t *testing.T) {
	cfg := Config{Episodes: 2, Seed: 4, Hooks: Hooks{PhantomEndpoints: true}}
	rep := Search(cfg)
	if len(rep.Findings) == 0 {
		t.Fatalf("search with PhantomEndpoints found nothing")
	}
	for _, f := range rep.Findings {
		if f.Oracle != OracleFabric {
			t.Fatalf("finding oracle = %s, want %s", f.Oracle, OracleFabric)
		}
		if f.Shrunk.Size() != 0 {
			t.Fatalf("shrunk repro has %d elements, want 0 (bug needs no faults)", f.Shrunk.Size())
		}
		// The hook is live: without it the same episode's accounting holds.
		if vs := Run(f.Shrunk, Hooks{}); hasOracle(vs, OracleFabric) {
			t.Fatalf("shrunk episode violates fabric accounting without PhantomEndpoints: %v", vs)
		}
	}
}

// TestCheckProgress covers the progress oracle's three verdicts: a
// watchdog stall is one violation carrying the stall, procs left blocked
// on a drained queue are a deadlock, and a clean runtime passes.
func TestCheckProgress(t *testing.T) {
	stall := &sim.StallError{At: sim.Second, Window: 100 * sim.Millisecond, Procs: []string{"ckpt-restore-3"}}
	cases := []struct {
		name string
		rt   Runtime
		want []Violation
	}{
		{"stall", Runtime{Stall: stall, LiveProcs: []string{"ckpt-restore-3"}},
			[]Violation{{OracleProgress, stall.Error()}}},
		{"deadlock", Runtime{Drained: true, LiveProcs: []string{"a", "b"}},
			[]Violation{{OracleProgress, "deadlock: 2 procs blocked with empty queue: [a b]"}}},
		{"clean", Runtime{Drained: true}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkProgress(&tc.rt); !slices.Equal(got, tc.want) {
				t.Fatalf("checkProgress = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestArtifactRoundTrip: artifact JSON parses back to an identical
// re-rendering.
func TestArtifactRoundTrip(t *testing.T) {
	eps := Generate(Config{Episodes: 1, Seed: 9})
	a := &Artifact{
		Version: ArtifactVersion,
		Seed:    9,
		Hooks:   Hooks{NoDedup: true},
		Oracle:  OracleExactlyOnce,
		Detail:  "delivered 2 > sent 1",
		Episode: eps[0],
	}
	b, err := ArtifactFromJSON(a.JSON())
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !bytes.Equal(a.JSON(), b.JSON()) {
		t.Fatalf("artifact changed across a JSON round trip")
	}
	if _, err := ArtifactFromJSON([]byte(`{"version":"fragchaos/0"}`)); err == nil {
		t.Fatalf("wrong version accepted")
	}
}
