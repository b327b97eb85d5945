// Typed control-plane invariant checking. VerifyReport runs every
// conservation check the fleet knows and returns the violations as data
// instead of panicking, so the chaos engine can treat a broken book as
// a first-class finding (attach it to an episode, shrink the schedule
// that produced it, replay it). Verify keeps the old contract — panic
// on the first violation — for tests; the internal quiescent points use
// verify, the same check memoized on the event log.
package fleet

import "fmt"

// ViolationClass names one conservation invariant of the fleet control
// plane. The classes partition every panic Verify used to raise.
type ViolationClass string

const (
	// VDownNodeHosting: a node marked down still hosts fragments.
	VDownNodeHosting ViolationClass = "down-node-hosting"
	// VCPUBooks: a node's free+used vCPUs do not equal its capacity.
	VCPUBooks ViolationClass = "cpu-books"
	// VMemBooks: a node's free+used memory does not equal its capacity.
	VMemBooks ViolationClass = "mem-books"
	// VBalloonBooks: a VM's balloon lies outside [0, provisioned], or
	// its resident+ballooned vCPUs do not equal its provisioned size.
	VBalloonBooks ViolationClass = "balloon-books"
	// VLeaseDoubleBook: two active leases cover the same (VM, node).
	VLeaseDoubleBook ViolationClass = "lease-double-book"
	// VLeaseNoFragment: an active lease covers no borrowed fragment.
	VLeaseNoFragment ViolationClass = "lease-no-fragment"
	// VLeaseCPUMismatch: a lease books a different vCPU count than the
	// fragment it covers.
	VLeaseCPUMismatch ViolationClass = "lease-cpu-mismatch"
	// VFragmentNoLease: a borrowed fragment has no active lease.
	VFragmentNoLease ViolationClass = "fragment-no-lease"
	// VLeaseIndex: the outstanding-lease list is not exactly the
	// ledger's unreleased leases in grant order.
	VLeaseIndex ViolationClass = "lease-index"
)

// Violation is one broken invariant. Node, VM, and Lease identify the
// offending entities where the class has them; -1 means not applicable.
type Violation struct {
	Class ViolationClass `json:"class"`
	Node  int            `json:"node"`
	VM    int            `json:"vm"`
	Lease int            `json:"lease"`
	Msg   string         `json:"msg"`
}

// Error renders the violation with the same "fleet: ..." prefix the old
// panics used, so it satisfies error and reads identically in logs.
func (v Violation) Error() string { return "fleet: " + v.Msg }

// violations collects broken invariants during a VerifyReport pass.
type violations []Violation

func (vs *violations) add(class ViolationClass, node, vm, lease int, format string, args ...any) {
	*vs = append(*vs, Violation{
		Class: class, Node: node, VM: vm, Lease: lease,
		Msg: fmt.Sprintf(format, args...),
	})
}

// VerifyReport checks every control-plane invariant and returns all
// violations found, in deterministic order (node-major books first,
// then balloon accounting, then the lease ledger, then borrowed
// fragments in VM and node order). An empty result (nil) means the
// books balance. It never panics and never mutates the books; it
// reuses its own scratch, so one fleet's reports are not concurrent.
// A clean report allocates nothing, and a report with violations is
// the caller's: it shares no memory with the scratch.
func (f *Fleet) VerifyReport() []Violation {
	var vs violations
	sc := &f.scratch
	sc.reset(f.cfg.Nodes)
	// One walk over each VM's placement, in ID order, gathers everything
	// the checks read from it: the node books, the VM's resident vCPUs,
	// and its fragments off the home node, kept in borrowed for the
	// lease check at the end.
	usedCPU, usedMem, borrowed := sc.usedCPU, sc.usedMem, sc.borrowed
	for _, rec := range f.vms {
		s := vmScan{lo: len(borrowed)}
		mpc := rec.req.memPerCPU()
		for _, fr := range rec.pl {
			n, c := fr.Node, fr.CPUs
			usedCPU[n] += c
			usedMem[n] += int64(c) * mpc
			s.resident += int64(c)
			if n != rec.home {
				borrowed = append(borrowed, n)
			}
		}
		s.hi = len(borrowed)
		sc.scans = append(sc.scans, s)
	}
	sc.borrowed = borrowed
	for n := 0; n < f.cfg.Nodes; n++ {
		if f.down[n] {
			if usedCPU[n] != 0 {
				vs.add(VDownNodeHosting, n, -1, -1, "down node %d still hosts %d vCPUs", n, usedCPU[n])
			}
			continue
		}
		if f.freeCPU[n] < 0 || f.freeCPU[n]+usedCPU[n] != f.cfg.CPUsPerNode {
			vs.add(VCPUBooks, n, -1, -1, "node %d CPU books broken: free %d + used %d != %d",
				n, f.freeCPU[n], usedCPU[n], f.cfg.CPUsPerNode)
		}
		if f.freeMem[n] < 0 || f.freeMem[n]+usedMem[n] != f.cfg.MemPerNode {
			vs.add(VMemBooks, n, -1, -1, "node %d memory books broken: free %d + used %d != %d",
				n, f.freeMem[n], usedMem[n], f.cfg.MemPerNode)
		}
	}
	// Balloon conservation: every VM's balloon lies in [0, provisioned],
	// and its resident vCPUs plus its ballooned vCPUs equal its
	// provisioned size, bit-exactly.
	for i, s := range sc.scans {
		rec := f.vms[i]
		id, prov := rec.req.ID, int64(rec.req.VCPUs)
		switch {
		case rec.ballooned < 0 || rec.ballooned > prov:
			vs.add(VBalloonBooks, -1, id, -1, "VM %d balloon out of range: ballooned %d not in [0, %d]",
				id, rec.ballooned, prov)
		case s.resident+rec.ballooned != prov:
			vs.add(VBalloonBooks, -1, id, -1, "VM %d balloon books broken: resident %d + ballooned %d != provisioned %d",
				id, s.resident, rec.ballooned, prov)
		}
	}
	// Lease ledger: exactly one active lease per non-home fragment,
	// none anywhere else. The scan walks the whole ledger, not the
	// outstanding-lease list, so it is an oracle for that list too: the
	// list must hold exactly the unreleased leases, in grant order.
	active := sc.active
	outstanding, indexed := 0, true
	for _, l := range f.leases {
		if l.State == LeaseReleased {
			continue
		}
		if indexed && (outstanding >= len(f.live) || f.live[outstanding] != l) {
			indexed = false
			vs.add(VLeaseIndex, l.Node, l.VM, l.ID, "outstanding lease %d is not entry %d of the live list", l.ID, outstanding)
		}
		outstanding++
		k := leaseKey{l.VM, l.Node}
		if active[k] != nil {
			vs.add(VLeaseDoubleBook, l.Node, l.VM, l.ID, "leases %d and %d double-book VM %d on node %d",
				active[k].ID, l.ID, l.VM, l.Node)
		}
		active[k] = l
		rec := f.vm(l.VM)
		if rec == nil || rec.pl.CPUs(l.Node) == 0 || rec.home == l.Node {
			vs.add(VLeaseNoFragment, l.Node, l.VM, l.ID, "lease %d covers no fragment (VM %d node %d)", l.ID, l.VM, l.Node)
			continue
		}
		if c := rec.pl.CPUs(l.Node); l.CPUs != c {
			vs.add(VLeaseCPUMismatch, l.Node, l.VM, l.ID, "lease %d books %d vCPUs, fragment has %d", l.ID, l.CPUs, c)
		}
	}
	if indexed && outstanding != len(f.live) {
		l := f.live[outstanding]
		vs.add(VLeaseIndex, l.Node, l.VM, l.ID, "live list holds %d leases, the ledger %d outstanding; lease %d is extra",
			len(f.live), outstanding, l.ID)
	}
	for i, s := range sc.scans {
		// Placements are in node order, so the report is too.
		id := f.vms[i].req.ID
		for _, n := range borrowed[s.lo:s.hi] {
			if active[leaseKey{id, n}] == nil {
				vs.add(VFragmentNoLease, n, id, -1, "fragment of VM %d on node %d has no lease", id, n)
			}
		}
	}
	return vs
}

// vmScan is one VM as VerifyReport's single walk over its placement
// saw it: its resident vCPUs, and borrowed[lo:hi] as its off-home
// nodes. Scan i is of f.vms[i].
type vmScan struct {
	resident int64
	lo, hi   int
}

// leaseKey names the fragment a lease covers: a VM on a node.
type leaseKey struct{ vm, node int }

// verifyScratch is VerifyReport's working memory, kept by the fleet so
// that a report allocates only the violations it returns: the per-node
// used books, the per-VM scans, the borrowed nodes they index, and the
// active leases by fragment.
type verifyScratch struct {
	usedCPU  []int
	usedMem  []int64
	scans    []vmScan
	borrowed []int
	active   map[leaseKey]*Lease
}

// reset empties the scratch for a report over nodes nodes.
func (sc *verifyScratch) reset(nodes int) {
	if len(sc.usedCPU) != nodes {
		sc.usedCPU, sc.usedMem = make([]int, nodes), make([]int64, nodes)
	}
	clear(sc.usedCPU)
	clear(sc.usedMem)
	sc.scans = sc.scans[:0]
	sc.borrowed = sc.borrowed[:0]
	if sc.active == nil {
		sc.active = map[leaseKey]*Lease{}
	}
	clear(sc.active)
}

// verify is the fleet's quiescent-point check: Verify, memoized on the
// event log. Every write to the books logs an Event, so when the log has
// not grown since the last passing scan the books are the ones that
// passed, and the scan is skipped. Every state the books reach is still
// verified; only a re-check of an identical state is not.
func (f *Fleet) verify() {
	if len(f.events) == f.verified {
		return
	}
	f.Verify()
	f.verified = len(f.events)
}
