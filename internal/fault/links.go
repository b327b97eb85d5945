// Link-level fault domains: CutLink/HealLink/DegradeLink events target
// named links of the cluster topology, and the injector evaluates its
// verdict per route — every link a message crosses — rather than per
// endpoint pair. A ToR uplink cut silences a whole rack with one event,
// which endpoint-pair partitions cannot express.
//
// The injector keeps its own canonical directed link names ("nX-up",
// "torR-down", ...) derived from the cluster's topo.Spec instead of the
// fabric's internal graph: a flat fabric has only per-sender egress
// links and no receiver downlinks to name. On flat fabrics a message's
// route is simply sender-up + receiver-down, so host-level domains
// behave identically on flat and tree topologies.
package fault

import (
	"fmt"
	"strings"

	"repro/internal/sim"
	"repro/internal/topo"
)

// linkNames precomputes the canonical directed names for a cluster shape
// so per-message route evaluation never formats strings.
type linkNames struct {
	spec    *topo.Spec // nil = the flat default
	nodes   int        // addressable cluster nodes (external hosts excluded)
	up      []string   // nX-up
	down    []string   // nX-down
	torUp   []string   // torR-up
	torDown []string   // torR-down
}

func newLinkNames(spec *topo.Spec, nodes int) *linkNames {
	ln := &linkNames{spec: spec, nodes: nodes}
	for n := 0; n < nodes; n++ {
		ln.up = append(ln.up, fmt.Sprintf("n%d-up", n))
		ln.down = append(ln.down, fmt.Sprintf("n%d-down", n))
	}
	if spec != nil && !spec.Flat {
		for r := 0; r < spec.Racks; r++ {
			ln.torUp = append(ln.torUp, fmt.Sprintf("tor%d-up", r))
			ln.torDown = append(ln.torDown, fmt.Sprintf("tor%d-down", r))
		}
	}
	return ln
}

func (ln *linkNames) inRange(id int) bool { return id >= 0 && id < ln.nodes }

// route appends the directed fault-domain links a (from, to) message
// crosses, in traversal order. External endpoints (the client host) and
// same-node messages contribute no links. buf lets callers reuse a
// stack-allocated array: the longest route is 4 links.
func (ln *linkNames) route(from, to int, buf []string) []string {
	if from == to {
		return buf
	}
	tree := ln.spec != nil && !ln.spec.Flat
	if ln.inRange(from) {
		buf = append(buf, ln.up[from])
		if tree && ln.inRange(to) && ln.spec.Rack(from) != ln.spec.Rack(to) {
			buf = append(buf, ln.torUp[ln.spec.Rack(from)])
		}
	}
	if ln.inRange(to) {
		if tree && ln.inRange(from) && ln.spec.Rack(from) != ln.spec.Rack(to) {
			buf = append(buf, ln.torDown[ln.spec.Rack(to)])
		}
		buf = append(buf, ln.down[to])
	}
	return buf
}

// expand resolves a fault-domain name to directed link names: directed
// names pass through, undirected domains ("nX", "torR", "spine") expand
// to every direction they cover. Unknown domains expand to nothing — a
// ToR cut scheduled against a flat fabric is a no-op, not a panic, so
// one schedule can run across topologies.
func (ln *linkNames) expand(name string) []string {
	if strings.HasSuffix(name, "-up") || strings.HasSuffix(name, "-down") {
		return []string{name}
	}
	if name == "spine" {
		out := make([]string, 0, 2*len(ln.torUp))
		for r := range ln.torUp {
			out = append(out, ln.torUp[r], ln.torDown[r])
		}
		return out
	}
	if strings.HasPrefix(name, "tor") {
		var r int
		if _, err := fmt.Sscanf(name, "tor%d", &r); err == nil && r >= 0 && r < len(ln.torUp) {
			return []string{ln.torUp[r], ln.torDown[r]}
		}
		return nil
	}
	if strings.HasPrefix(name, "n") {
		var n int
		if _, err := fmt.Sscanf(name, "n%d", &n); err == nil && ln.inRange(n) {
			return []string{ln.up[n], ln.down[n]}
		}
		return nil
	}
	return nil
}

// linkVerdict walks the (from, to) route against the cut and degraded
// link sets: any cut link drops the message; degraded links sum their
// extra delays. The len guard keeps the common no-link-fault case free
// of route computation.
func (i *Injector) linkVerdict(from, to int) (cut bool, delay sim.Time) {
	if len(i.cutLinks) == 0 && len(i.degLinks) == 0 {
		return false, 0
	}
	var buf [4]string
	for _, l := range i.links.route(from, to, buf[:0]) {
		if i.cutLinks[l] {
			return true, 0
		}
		delay += i.degLinks[l]
	}
	return false, delay
}

// LinkCut reports whether the named directed link is currently cut.
func (i *Injector) LinkCut(name string) bool { return i.cutLinks[name] }
