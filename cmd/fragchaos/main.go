// Command fragchaos runs the deterministic chaos-search engine: it
// generates seeded fault schedules over every fault primitive, runs
// each episode in its own simulation across a worker pool, judges the
// quiescent state with the cross-subsystem invariant oracles, and
// shrinks any violation to a minimal replayable repro.
//
// Usage:
//
//	fragchaos                                  # 64-episode search over seed code
//	fragchaos -episodes 256 -seed 7            # bigger search, different seed
//	fragchaos -parallel 1                      # sequential; identical output
//	fragchaos -workloads vm-recovery           # one workload family only
//	fragchaos -json report.json                # full machine-readable report
//	fragchaos -json -                          # report on stdout, summary on stderr
//	fragchaos -no-dedup -artifact repro.json   # re-introduce a fixed bug, export the repro
//	fragchaos -replay repro.json               # re-execute an artifact byte-identically
//
// The report is a pure function of (seed, episodes, workloads,
// max-events, hooks): -parallel changes wall time, never bytes. Exit
// status: 0 for a clean search, 3 when the search found violations, 1
// on usage or replay failure.
//
// The -phantom-endpoints and -no-dedup flags
// re-introduce bugs this codebase actually had (and fixed) behind test
// hooks; they exist so the engine can demonstrate end to end that the
// search finds them, shrinks them, and replays them.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"repro/internal/chaos"
)

func main() {
	episodes := flag.Int("episodes", 64, "number of episodes to search")
	seed := flag.Int64("seed", 1, "root seed; every episode derives its own sub-seed")
	scale := flag.Float64("scale", 0.02, "workload scale factor")
	parallel := flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS); never affects results")
	workloads := flag.String("workloads", "", "comma-separated workload subset (default: all; see -list-workloads)")
	maxEvents := flag.Int("max-events", 12, "fault-event budget per generated schedule")
	shrinkBudget := flag.Int("shrink-budget", 200, "episode re-runs one finding's shrink may spend")
	jsonOut := flag.String("json", "", "write the full report as JSON to this path (- for stdout)")
	artifactOut := flag.String("artifact", "", "write the first finding's replayable artifact to this path")
	replay := flag.String("replay", "", "replay an artifact file instead of searching")
	listWl := flag.Bool("list-workloads", false, "list workload names and exit")
	phantom := flag.Bool("phantom-endpoints", false, "re-introduce the endpoint-materializing read (PR 9 bug)")
	noDedup := flag.Bool("no-dedup", false, "re-introduce the missing receive-side dedup (PR 9 bug)")
	flag.Parse()

	if *listWl {
		fmt.Println(strings.Join(chaos.AllWorkloads(), "\n"))
		return
	}
	if *replay != "" {
		os.Exit(runReplay(*replay))
	}
	if err := checkFlags(*episodes, *maxEvents, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "fragchaos:", err)
		os.Exit(1)
	}

	cfg := chaos.Config{
		Episodes:     *episodes,
		Seed:         *seed,
		Scale:        *scale,
		Parallel:     *parallel,
		MaxEvents:    *maxEvents,
		ShrinkBudget: *shrinkBudget,
		Hooks:        chaos.Hooks{PhantomEndpoints: *phantom, NoDedup: *noDedup},
	}
	if *workloads != "" {
		cfg.Workloads = strings.Split(*workloads, ",")
		known := map[string]bool{}
		for _, w := range chaos.AllWorkloads() {
			known[w] = true
		}
		for _, w := range cfg.Workloads {
			if !known[w] {
				fmt.Fprintf(os.Stderr, "fragchaos: unknown workload %q (see -list-workloads)\n", w)
				os.Exit(1)
			}
		}
	}

	// With the JSON report on stdout, the human-readable lines go to
	// stderr so stdout stays parseable.
	text := os.Stdout
	if *jsonOut == "-" {
		text = os.Stderr
	}
	rep := chaos.Search(cfg)
	fmt.Fprint(text, rep.Summary())

	if *jsonOut != "" {
		if err := writeFile(*jsonOut, rep.JSON()); err != nil {
			fmt.Fprintf(os.Stderr, "fragchaos: %v\n", err)
			os.Exit(1)
		}
	}
	if *artifactOut != "" {
		if len(rep.Findings) == 0 {
			fmt.Fprintln(os.Stderr, "fragchaos: -artifact set but the search found nothing")
			os.Exit(1)
		}
		art := rep.Findings[0].Artifact(cfg.Seed, cfg.Hooks)
		if err := writeFile(*artifactOut, art.JSON()); err != nil {
			fmt.Fprintf(os.Stderr, "fragchaos: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(text, "artifact: %s (%s, %d -> %d elements)\n",
			*artifactOut, art.Oracle, art.OriginalEvents, art.Episode.Size())
	}
	if len(rep.Findings) > 0 {
		os.Exit(3)
	}
}

// checkFlags rejects the search flags the engine cannot use: episode and
// fault-event counts below 1, and a workload scale that is not finite
// and > 0 (every episode would report the workload's refusal as a
// finding).
func checkFlags(episodes, maxEvents int, scale float64) error {
	if episodes < 1 {
		return fmt.Errorf("-episodes %d: want a count >= 1", episodes)
	}
	if maxEvents < 1 {
		return fmt.Errorf("-max-events %d: want a count >= 1", maxEvents)
	}
	if !(scale > 0) || math.IsInf(scale, 1) {
		return fmt.Errorf("-scale %v: want a finite value > 0", scale)
	}
	return nil
}

// runReplay re-executes an artifact and verifies the replay is
// byte-identical to the file — the determinism contract: same episode,
// same hooks, same violation, same bytes.
func runReplay(path string) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fragchaos: %v\n", err)
		return 1
	}
	art, err := chaos.ArtifactFromJSON(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fragchaos: %v\n", err)
		return 1
	}
	replayed, vs, ok := art.Replay()
	if !ok {
		fmt.Fprintf(os.Stderr, "fragchaos: replay did not trip %s; violations: %v\n", art.Oracle, vs)
		return 1
	}
	if string(replayed.JSON()) != string(raw) {
		fmt.Fprintf(os.Stderr, "fragchaos: replay diverged from the artifact bytes\n")
		return 1
	}
	fmt.Printf("replay: %s reproduced %s byte-identically (%d violations)\n", path, art.Oracle, len(vs))
	return 0
}

func writeFile(path string, b []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
