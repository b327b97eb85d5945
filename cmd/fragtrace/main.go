// Command fragtrace runs one experiment with causal tracing enabled and
// emits three artifacts: a Chrome trace-event file (load it at
// ui.perfetto.dev or chrome://tracing), a critical-path breakdown table
// attributing end-to-end time to compute / DSM wait / network / queueing,
// and a per-node fabric traffic table.
//
// Usage:
//
//	fragtrace -experiment fig4 -out trace.json
//	fragtrace -experiment fig6 -scale 0.05 -out fig6.json
//
// The default scale is deliberately small (0.01): tracing records one
// span per message and per DSM fault, so paper-scale runs produce
// traces in the hundreds of megabytes. Same seed, same scale — same
// bytes in the output file: traces are part of the repository's
// determinism contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/topo"
	"repro/internal/trace"
)

func main() {
	experiment := flag.String("experiment", "fig4", "experiment id (see -list)")
	out := flag.String("out", "trace.json", "Chrome trace-event output file")
	scale := flag.Float64("scale", 0.01, "workload scale (1.0 = paper scale)")
	seed := flag.Int64("seed", 42, "deterministic seed")
	topoFlag := flag.String("topo", "", "fabric topology: flat (the default) or tree:RxN@O")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		fmt.Println(strings.Join(experiments.Names(), "\n"))
		return
	}

	spec, err := topo.ParseSpec(*topoFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fragtrace:", err)
		os.Exit(2)
	}

	sess := trace.NewSession()
	acct := experiments.NewTraffic()
	o := experiments.Options{Scale: *scale, Seed: *seed, Trace: sess, Acct: acct, Topo: spec}
	tab, err := experiments.Run(*experiment, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("[%s]\n", *experiment)
	tab.Fprint(os.Stdout)
	fmt.Println()

	bd := sess.CriticalPath()
	bd.Table(fmt.Sprintf("Critical path: %s", *experiment)).Fprint(os.Stdout)
	if got, want := bd.Sum(), bd.Total; got != want {
		fmt.Fprintf(os.Stderr, "fragtrace: critical-path categories sum to %v, want %v\n", got, want)
		os.Exit(1)
	}
	fmt.Println()
	acct.Table().Fprint(os.Stdout)
	fmt.Println()

	if err := writeTrace(sess, *out); err != nil {
		fmt.Fprintln(os.Stderr, "fragtrace:", err)
		os.Exit(1)
	}
	n, err := validateTrace(*out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fragtrace: invalid trace:", err)
		os.Exit(1)
	}
	fmt.Printf("trace: %d spans across %d tracer(s); %d events written to %s (open in ui.perfetto.dev)\n",
		sess.SpanCount(), len(sess.Tracers()), n, *out)
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
func validateTrace(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return 0, err
	}
	if len(doc.TraceEvents) == 0 {
		return 0, fmt.Errorf("%s contains no trace events", path)
	}
	return len(doc.TraceEvents), nil
}
