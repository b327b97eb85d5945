// Command fragbench regenerates the paper's evaluation figures as text
// tables.
//
// Usage:
//
//	fragbench -fig fig8            # one figure
//	fragbench -fig all             # every figure (EXPERIMENTS.md input)
//	fragbench -fig fig12 -scale 1  # full paper scale
//	fragbench -fig fig4 -scale 0.01 -trace fig4.json
//	fragbench -fig fig8 -json      # machine-readable tables
//
// With -trace, every simulation the selected experiments build is traced,
// a critical-path breakdown and per-node traffic table are appended to
// the output, and one combined Chrome trace-event file is written (load
// it at ui.perfetto.dev or chrome://tracing). Use a single -fig and a
// small -scale: tracing records one span per message and per DSM fault,
// so paper-scale traces run to hundreds of megabytes. The run exits 1 if
// the critical-path categories do not partition the total or the written
// file does not re-read as trace-event JSON with at least one event.
// Same seed, same scale, same trace bytes.
//
// Seed sweeps (statistics over many seeds) are cmd/fragsweep's job:
// "fragsweep -experiments fig8 -scales 0.1 -seed 42 -seeds 8". Run
// "fragbench -list" for the available experiment ids.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/fragvisor"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/topo"
	"repro/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "experiment id (e.g. fig8) or 'all'")
	scale := flag.Float64("scale", 0.1, "workload scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 42, "deterministic seed")
	traceOut := flag.String("trace", "", "write a combined Chrome trace-event file and append critical-path + traffic tables")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array instead of text tables")
	topoFlag := flag.String("topo", "", "fabric topology: flat (the default single switch) or tree:RxN@O (R racks x N nodes, O:1 oversubscribed spine)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(fragvisor.ExperimentNames(), "\n"))
		return
	}
	names := fragvisor.ExperimentNames()
	if *fig != "all" {
		names = []string{*fig}
	}

	o := experiments.Options{Scale: *scale, Seed: *seed}
	if spec, err := topo.ParseSpec(*topoFlag); err != nil {
		fmt.Fprintln(os.Stderr, "fragbench:", err)
		os.Exit(2)
	} else {
		o.Topo = spec
	}
	if *traceOut != "" {
		o.Trace = trace.NewSession()
		o.Acct = experiments.NewTraffic()
	}
	type result struct {
		Experiment string         `json:"experiment"`
		Table      *metrics.Table `json:"table"`
	}
	var results []result
	for _, name := range names {
		tab, err := experiments.Run(name, o)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			if errors.Is(err, experiments.ErrScale) {
				os.Exit(2)
			}
			os.Exit(1)
		}
		if *jsonOut {
			results = append(results, result{name, tab})
			continue
		}
		fmt.Printf("[%s]\n", name)
		tab.Fprint(os.Stdout)
		fmt.Println()
	}
	if *traceOut != "" {
		bd := o.Trace.CriticalPath()
		if got, want := bd.Sum(), bd.Total; got != want {
			fmt.Fprintf(os.Stderr, "fragbench: critical-path categories sum to %v, want %v\n", got, want)
			os.Exit(1)
		}
		crit, traffic := bd.Table("Critical path"), o.Acct.Table()
		if *jsonOut {
			results = append(results, result{"critical-path", crit}, result{"traffic", traffic})
		} else {
			crit.Fprint(os.Stdout)
			fmt.Println()
			traffic.Fprint(os.Stdout)
		}
	}
	// In -json mode stdout carries only the JSON array; the trace status
	// line goes to stderr so the output stays parseable.
	status := os.Stdout
	if *jsonOut {
		status = os.Stderr
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(os.Stderr, "fragbench:", err)
			os.Exit(1)
		}
	}
	if *traceOut == "" {
		return
	}
	if err := writeTrace(o.Trace, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "fragbench:", err)
		os.Exit(1)
	}
	if err := validateTrace(*traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "fragbench: invalid trace:", err)
		os.Exit(1)
	}
	fmt.Fprintf(status, "trace: %d spans written to %s (open in ui.perfetto.dev)\n",
		o.Trace.SpanCount(), *traceOut)
}

func writeTrace(sess *trace.Session, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := sess.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// validateTrace re-reads the emitted file and checks it is a well-formed
// trace-event JSON object with at least one event, so a malformed
// export fails the run.
func validateTrace(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("%s contains no trace events", path)
	}
	return nil
}
