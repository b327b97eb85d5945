// Per-node traffic accounting: an optional observer (Options.Acct) that
// records every cluster an experiment run builds and, after the run,
// renders one table of fabric messages and bytes sent per node — merged
// across all compared systems via metrics.Counters.Merge.

package experiments

import (
	"fmt"
	"sort"

	"repro/internal/cluster"
	"repro/internal/metrics"
)

// Traffic collects per-node fabric accounting across every cluster an
// experiment run builds. Construct with NewTraffic, pass as Options.Acct,
// and render with Table after the run.
type Traffic struct {
	clusters []trafficEntry
}

type trafficEntry struct {
	label string
	c     *cluster.Cluster
}

// NewTraffic returns an empty collector.
func NewTraffic() *Traffic { return &Traffic{} }

// Register adds a cluster to the report. Experiments call it (via
// Options.observe) for every cluster they build.
func (tr *Traffic) Register(label string, c *cluster.Cluster) {
	tr.clusters = append(tr.clusters, trafficEntry{label: label, c: c})
}

func nodeLabel(id int) string {
	if id < 0 {
		return "client"
	}
	return fmt.Sprintf("node%d", id)
}

func trafficKey(kind string, node int) string {
	return kind + "." + nodeLabel(node)
}

// Counters snapshots the per-node egress of every registered cluster's
// hypervisor fabric, merged into one counter set: "msgs.nodeN" and
// "bytes.nodeN" per endpoint (client-network endpoints appear under
// ".client").
func (tr *Traffic) Counters() *metrics.Counters {
	total := metrics.NewCounters()
	for _, e := range tr.clusters {
		c := metrics.NewCounters()
		for _, id := range e.c.Fabric.Endpoints() {
			msgs, bytes := e.c.Fabric.EndpointSent(id)
			c.Inc(trafficKey("msgs", id), msgs)
			c.Inc(trafficKey("bytes", id), bytes)
		}
		total.Merge(c)
	}
	return total
}

// Table renders the merged per-node accounting. Node rows are sorted by
// node id; the totals row sums the columns.
func (tr *Traffic) Table() *metrics.Table {
	t := metrics.NewTable("Per-node fabric traffic (egress, merged over all clusters)",
		"node", "msgs", "bytes")
	snap := tr.Counters().Snapshot()
	ids := make(map[int]bool)
	for _, e := range tr.clusters {
		for _, id := range e.c.Fabric.Endpoints() {
			ids[id] = true
		}
	}
	sorted := make([]int, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Ints(sorted)
	var tm, tb int64
	for _, id := range sorted {
		m := snap[trafficKey("msgs", id)]
		b := snap[trafficKey("bytes", id)]
		tm += m
		tb += b
		t.AddRow(nodeLabel(id), m, b)
	}
	t.AddRow("total", tm, tb)
	t.AddNote("egress per hypervisor-fabric endpoint, summed over %d simulated cluster(s)", len(tr.clusters))
	return t
}
