package fleet

import (
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/sim"
)

// gangFleet builds the lease-bearing fixture the violation tests
// corrupt: three VMs on two 4-CPU nodes, the third gang-placed 1+1 with
// one active lease on node 1.
func gangFleet(t *testing.T) *Fleet {
	t.Helper()
	env, f := newFleet(t, Config{Nodes: 2, CPUsPerNode: 4, MemPerNode: 8 * gig, Policy: sched.MinNodes})
	f.Submit([]Request{
		{ID: 1, VCPUs: 3, MemBytes: gig, Arrival: 0, Duration: 10 * sim.Second},
		{ID: 2, VCPUs: 3, MemBytes: gig, Arrival: 0, Duration: 10 * sim.Second},
		{ID: 3, VCPUs: 2, MemBytes: gig, Arrival: 1, Duration: 10 * sim.Second},
	})
	env.RunUntil(2)
	if got := f.VerifyReport(); len(got) != 0 {
		t.Fatalf("fixture already broken: %v", got)
	}
	return f
}

// activeLease returns the fixture's single active lease.
func activeLease(t *testing.T, f *Fleet) *Lease {
	t.Helper()
	for _, l := range f.live {
		if l.State == LeaseActive {
			return l
		}
	}
	t.Fatal("fixture has no active lease")
	return nil
}

// wantOnly asserts the report holds exactly one violation of the class.
func wantOnly(t *testing.T, f *Fleet, class ViolationClass) Violation {
	t.Helper()
	vs := f.VerifyReport()
	if len(vs) != 1 || vs[0].Class != class {
		t.Fatalf("report = %+v, want exactly one %s", vs, class)
	}
	return vs[0]
}

func TestViolationDownNodeHosting(t *testing.T) {
	f := gangFleet(t)
	f.down[0] = true
	v := wantOnly(t, f, VDownNodeHosting)
	if v.Node != 0 {
		t.Fatalf("violation node = %d, want 0", v.Node)
	}
}

func TestViolationCPUBooks(t *testing.T) {
	f := gangFleet(t)
	f.freeCPU[1]--
	v := wantOnly(t, f, VCPUBooks)
	if v.Node != 1 || !strings.Contains(v.Msg, "CPU books broken") {
		t.Fatalf("violation = %+v", v)
	}
}

func TestViolationMemBooks(t *testing.T) {
	f := gangFleet(t)
	f.freeMem[0] -= 512
	wantOnly(t, f, VMemBooks)
}

// TestViolationBalloonBooks: a balloon outside [0, provisioned] and a
// balloon that no longer matches the placement are each reported once.
func TestViolationBalloonBooks(t *testing.T) {
	t.Run("mismatch", func(t *testing.T) {
		f := gangFleet(t)
		// Inflate behind the fleet's back: the balloon stays in range
		// but resident+ballooned no longer matches provisioned.
		f.vm(3).inflate(1)
		v := wantOnly(t, f, VBalloonBooks)
		if v.VM != 3 || !strings.Contains(v.Msg, "books broken") {
			t.Fatalf("violation = %+v, want VM 3 books broken", v)
		}
	})
	t.Run("out-of-range", func(t *testing.T) {
		f := gangFleet(t)
		f.vm(3).ballooned = -1
		v := wantOnly(t, f, VBalloonBooks)
		if v.VM != 3 || !strings.Contains(v.Msg, "out of range") {
			t.Fatalf("violation = %+v, want VM 3 out of range", v)
		}
	})
}

// TestBalloonOverInflatePanics: a VM's balloon never holds more than
// the VM was provisioned.
func TestBalloonOverInflatePanics(t *testing.T) {
	f := gangFleet(t)
	defer func() {
		if recover() == nil {
			t.Fatal("inflating past provisioned should panic")
		}
	}()
	f.vm(3).inflate(3)
}

// TestBalloonOverDeflatePanics: deflating returns at most what the
// balloon holds.
func TestBalloonOverDeflatePanics(t *testing.T) {
	f := gangFleet(t)
	f.vm(3).inflate(1)
	defer func() {
		if recover() == nil {
			t.Fatal("deflating past ballooned should panic")
		}
	}()
	f.vm(3).deflate(2)
}

func TestViolationLeaseDoubleBook(t *testing.T) {
	f := gangFleet(t)
	l := activeLease(t, f)
	dup := *l
	dup.ID = 99
	f.leases = append(f.leases, &dup)
	f.live = append(f.live, &dup)
	v := wantOnly(t, f, VLeaseDoubleBook)
	if v.VM != l.VM || v.Node != l.Node {
		t.Fatalf("violation = %+v, want VM %d node %d", v, l.VM, l.Node)
	}
}

func TestViolationLeaseNoFragment(t *testing.T) {
	f := gangFleet(t)
	l := &Lease{ID: 99, VM: 42, Node: 0, CPUs: 1, State: LeaseActive}
	f.leases = append(f.leases, l)
	f.live = append(f.live, l)
	v := wantOnly(t, f, VLeaseNoFragment)
	if v.Lease != 99 {
		t.Fatalf("violation lease = %d, want 99", v.Lease)
	}
}

func TestViolationLeaseCPUMismatch(t *testing.T) {
	f := gangFleet(t)
	activeLease(t, f).CPUs++
	wantOnly(t, f, VLeaseCPUMismatch)
}

func TestViolationFragmentNoLease(t *testing.T) {
	f := gangFleet(t)
	activeLease(t, f).State = LeaseReleased
	f.live = f.live[:0]
	v := wantOnly(t, f, VFragmentNoLease)
	if v.VM != 3 {
		t.Fatalf("violation VM = %d, want 3", v.VM)
	}
}

// TestViolationLeaseIndex: the outstanding-lease list must be exactly
// the ledger's unreleased leases in grant order. A lease released
// behind the list's back, an outstanding lease missing from it, and a
// reordered list are each reported once.
func TestViolationLeaseIndex(t *testing.T) {
	t.Run("released-but-listed", func(t *testing.T) {
		f := gangFleet(t)
		// A lease released without leaving the list: what a release
		// that forgot the list would leave behind.
		l := &Lease{ID: 99, VM: 42, Node: 0, CPUs: 1, State: LeaseReleased}
		f.leases = append(f.leases, l)
		f.live = append(f.live, l)
		v := wantOnly(t, f, VLeaseIndex)
		if v.Lease != l.ID || !strings.Contains(v.Msg, "extra") {
			t.Fatalf("violation = %+v, want lease %d reported extra", v, l.ID)
		}
	})
	t.Run("outstanding-but-unlisted", func(t *testing.T) {
		f := gangFleet(t)
		l := activeLease(t, f)
		f.live = f.live[:0]
		v := wantOnly(t, f, VLeaseIndex)
		if v.Lease != l.ID {
			t.Fatalf("violation lease = %d, want %d", v.Lease, l.ID)
		}
	})
	t.Run("out-of-order", func(t *testing.T) {
		f := gangFleet(t)
		// A second outstanding lease, granted after the fixture's, on a
		// VM the books do not know: listed before the first.
		extra := &Lease{ID: 99, VM: 42, Node: 0, CPUs: 1, State: LeaseActive}
		f.leases = append(f.leases, extra)
		f.live = append([]*Lease{extra}, f.live...)
		classes := map[ViolationClass]int{}
		for _, v := range f.VerifyReport() {
			classes[v.Class]++
		}
		if classes[VLeaseIndex] != 1 {
			t.Fatalf("report classes %v, want one %s", classes, VLeaseIndex)
		}
	})
}

// TestVerifyPanicsOnFirstViolation: the panic wrapper keeps the old
// contract — fail fast with the first violation's rendered message.
func TestVerifyPanicsOnFirstViolation(t *testing.T) {
	f := gangFleet(t)
	f.freeCPU[0]--
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Verify did not panic on broken books")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "CPU books broken") {
			t.Fatalf("panic = %v, want fleet CPU-books message", r)
		}
	}()
	f.Verify()
}

// TestVerifyReportMultiple: independent corruptions each surface — the
// report does not stop at the first broken invariant.
func TestVerifyReportMultiple(t *testing.T) {
	f := gangFleet(t)
	f.freeCPU[0]--
	f.freeMem[1] -= 512
	activeLease(t, f).CPUs++
	vs := f.VerifyReport()
	classes := map[ViolationClass]bool{}
	for _, v := range vs {
		classes[v.Class] = true
	}
	for _, want := range []ViolationClass{VCPUBooks, VMemBooks, VLeaseCPUMismatch} {
		if !classes[want] {
			t.Errorf("report %v missing %s", vs, want)
		}
	}
	if len(vs) != 3 {
		t.Errorf("report has %d violations, want 3: %+v", len(vs), vs)
	}
}

// TestVerifyReportAllocatesNothing: a clean report on the busy world
// allocates nothing — its scans, used books, borrowed nodes and active
// lease set are the fleet's reused scratch — and returns nil.
func TestVerifyReportAllocatesNothing(t *testing.T) {
	env, f := newBusyFleet()
	defer env.Close()
	if len(f.vms) < 40 || len(f.live) == 0 || gangs(f) == 0 {
		t.Fatalf("fixture: %d VMs, %d gangs, %d outstanding leases; want a busy world", len(f.vms), gangs(f), len(f.live))
	}
	allocs := testing.AllocsPerRun(100, func() {
		if vs := f.VerifyReport(); vs != nil {
			t.Fatalf("busy world reported %v, want nil", vs)
		}
	})
	if allocs != 0 {
		t.Errorf("a clean report over %d VMs and %d leases allocated %v times", len(f.vms), len(f.leases), allocs)
	}
}

// TestReportsDoNotShareScratch: a report with violations is the
// caller's. Reports taken from two corrupted copies in a row, and two
// reports from one copy whose corruption changed between them, leave
// each earlier report as it was.
func TestReportsDoNotShareScratch(t *testing.T) {
	env, f := newBusyFleet()
	defer env.Close()
	corrupt := func(name string, c *Fleet, k int) {
		t.Helper()
		for _, corr := range corruptions {
			if corr.name == name && corr.apply(c, k) {
				return
			}
		}
		t.Fatalf("corruption %s did not apply", name)
	}
	// report takes c's report and holds it to the reference.
	report := func(c *Fleet) []Violation {
		t.Helper()
		vs := c.VerifyReport()
		if want := verifyReportRef(c); len(vs) == 0 || !slices.Equal(vs, want) {
			t.Fatalf("report %v, want the reference's %v (and at least one)", vs, want)
		}
		return vs
	}
	a, b := cloneBooks(f), cloneBooks(f)
	corrupt("multiple", a, 0)
	corrupt("fragment-no-lease", b, 1)
	first := report(a)
	kept := slices.Clone(first)
	second := report(b)
	corrupt("balloon-range", a, 2)
	third := report(a)
	if slices.Equal(first, second) || len(third) <= len(first) {
		t.Fatalf("fixture: reports %v, %v and %v; want the copies to differ and the third to grow the first", first, second, third)
	}
	if !slices.Equal(first, kept) {
		t.Errorf("later reports changed an earlier one:\n%v\nwas\n%v", first, kept)
	}
}

// TestVMsStayInIDOrder: VM 1 queues behind VMs 20–22, is admitted after
// gang 5, and still comes first wherever the fleet walks its VMs: in
// f.vms, in a report (held to the reference, which sorts IDs itself),
// and in a consolidation pass, which moves VM 1 before VM 5.
func TestVMsStayInIDOrder(t *testing.T) {
	env, f := newFleet(t, Config{Nodes: 3, CPUsPerNode: 4, MemPerNode: 8 * gig, Policy: sched.MinNodes})
	f.Submit([]Request{
		{ID: 20, VCPUs: 3, MemBytes: gig, Duration: 10 * sim.Second},
		{ID: 21, VCPUs: 3, MemBytes: gig, Duration: 100 * sim.Second},
		{ID: 22, VCPUs: 3, MemBytes: gig, Duration: 20 * sim.Second},
		{ID: 1, VCPUs: 4, MemBytes: gig, Arrival: 1, Duration: 100 * sim.Second}, // waits
		{ID: 5, VCPUs: 2, MemBytes: gig, Arrival: 2, Duration: 100 * sim.Second}, // gang {0:1, 1:1}
	})
	ids := func() []int {
		var out []int
		for _, rec := range f.vms {
			out = append(out, rec.req.ID)
		}
		return out
	}
	// VM 20's departure admits VM 1 as the gang {0:3, 2:1}.
	env.RunUntil(15 * sim.Second)
	if got := ids(); !slices.Equal(got, []int{1, 5, 21, 22}) || len(f.vm(1).pl) != 2 || len(f.vm(5).pl) != 2 {
		t.Fatalf("fixture: VMs %v, VM 1 on %v, VM 5 on %v; want 1, 5, 21, 22 with two gangs",
			got, f.PlacementOf(1), f.PlacementOf(5))
	}
	c := cloneBooks(f)
	for _, rec := range c.vms {
		rec.ballooned = -1
	}
	c.live = c.live[:0]
	for _, l := range c.leases {
		l.State = LeaseReleased
	}
	got, want := c.VerifyReport(), verifyReportRef(c)
	var vms []int
	for _, v := range got {
		if v.Class == VFragmentNoLease {
			vms = append(vms, v.VM)
		}
	}
	if !slices.Equal(got, want) || !slices.Equal(vms, []int{1, 5}) {
		t.Fatalf("report\n%v\nwant the reference's\n%v\nwith unleased fragments of VMs 1 then 5, got %v", got, want, vms)
	}
	// VM 22's departure frees node 2: VM 1 consolidates onto it, which
	// frees node 0 for VM 5.
	logged := len(f.events)
	env.RunUntil(25 * sim.Second)
	var moved []int
	for _, e := range f.events[logged:] {
		if e.Kind == "migrate" {
			moved = append(moved, e.VM)
		}
	}
	if !slices.Equal(moved, []int{1, 5}) {
		t.Fatalf("the pass migrated VMs %v, want 1 then 5; log %+v", moved, f.events[logged:])
	}
	f.Verify()
}

// verifyReportRef is VerifyReport as it was before the scan walked each
// placement once: it copies every placement into a map, walks each one
// three times (books, residentCPU, fragments) and looks each VM up three
// times. Kept as the oracle TestVerifyReportMatchesReference holds the
// single walk to.
func verifyReportRef(f *Fleet) []Violation {
	var vs violations
	usedCPU := make([]int, f.cfg.Nodes)
	usedMem := make([]int64, f.cfg.Nodes)
	pls := map[int]map[int]int{}
	for _, rec := range f.vms {
		pl := map[int]int{}
		for _, fr := range rec.pl {
			pl[fr.Node] = fr.CPUs
		}
		pls[rec.req.ID] = pl
	}
	for _, rec := range f.vms {
		mpc := rec.req.memPerCPU()
		for n, c := range pls[rec.req.ID] {
			usedCPU[n] += c
			usedMem[n] += int64(c) * mpc
		}
	}
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
	ids := sortedVMs(f.vms)
	for _, id := range ids {
		rec := f.vm(id)
		prov, resident := int64(rec.req.VCPUs), rec.residentCPU()
		switch {
		case rec.ballooned < 0 || rec.ballooned > prov:
			vs.add(VBalloonBooks, -1, id, -1, "VM %d balloon out of range: ballooned %d not in [0, %d]",
				id, rec.ballooned, prov)
		case resident+rec.ballooned != prov:
			vs.add(VBalloonBooks, -1, id, -1, "VM %d balloon books broken: resident %d + ballooned %d != provisioned %d",
				id, resident, rec.ballooned, prov)
		}
	}
	// Lease ledger: exactly one active lease per non-home fragment,
	// none anywhere else. The scan walks the whole ledger, not the
	// outstanding-lease list, so it is an oracle for that list too: the
	// list must hold exactly the unreleased leases, in grant order.
	type key struct{ vm, node int }
	active := map[key]*Lease{}
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
		k := key{l.VM, l.Node}
		if active[k] != nil {
			vs.add(VLeaseDoubleBook, l.Node, l.VM, l.ID, "leases %d and %d double-book VM %d on node %d",
				active[k].ID, l.ID, l.VM, l.Node)
		}
		active[k] = l
		rec, pl := f.vm(l.VM), pls[l.VM]
		if rec == nil || pl[l.Node] == 0 || rec.home == l.Node {
			vs.add(VLeaseNoFragment, l.Node, l.VM, l.ID, "lease %d covers no fragment (VM %d node %d)", l.ID, l.VM, l.Node)
			continue
		}
		if l.CPUs != pl[l.Node] {
			vs.add(VLeaseCPUMismatch, l.Node, l.VM, l.ID, "lease %d books %d vCPUs, fragment has %d", l.ID, l.CPUs, pl[l.Node])
		}
	}
	if indexed && outstanding != len(f.live) {
		l := f.live[outstanding]
		vs.add(VLeaseIndex, l.Node, l.VM, l.ID, "live list holds %d leases, the ledger %d outstanding; lease %d is extra",
			len(f.live), outstanding, l.ID)
	}
	for _, id := range ids {
		// Report in node order.
		rec := f.vm(id)
		var nodes []int
		for n := range pls[id] {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		for _, n := range nodes {
			if n != rec.home && active[key{id, n}] == nil {
				vs.add(VFragmentNoLease, n, id, -1, "fragment of VM %d on node %d has no lease", id, n)
			}
		}
	}
	return vs
}

// sortedVMs returns the admitted VMs' ids in ascending order.
func sortedVMs(vms []*vmRec) []int {
	ids := make([]int, 0, len(vms))
	for _, rec := range vms {
		ids = append(ids, rec.req.ID)
	}
	sort.Ints(ids)
	return ids
}

// cloneBooks copies everything VerifyReport reads, so a test can corrupt
// the copy and leave the running world alone.
func cloneBooks(f *Fleet) *Fleet {
	c := &Fleet{
		cfg:     f.cfg,
		freeCPU: slices.Clone(f.freeCPU),
		freeMem: slices.Clone(f.freeMem),
		down:    slices.Clone(f.down),
		vms:     make([]*vmRec, 0, len(f.vms)),
	}
	for _, rec := range f.vms {
		r := *rec
		r.pl = slices.Clone(rec.pl)
		c.vms = append(c.vms, &r)
	}
	copies := make(map[*Lease]*Lease, len(f.leases))
	for _, l := range f.leases {
		cl := *l
		copies[l] = &cl
		c.leases = append(c.leases, &cl)
	}
	for _, l := range f.live {
		c.live = append(c.live, copies[l])
	}
	return c
}

// corruption breaks one invariant of a cloned fleet, choosing its target
// by k so that successive samples hit different nodes, VMs and leases.
// It reports false when the books hold no target for it.
type corruption struct {
	name  string
	apply func(c *Fleet, k int) bool
}

// pickVM returns the k-th admitted VM (mod their number) that satisfies
// ok, in id order, or nil.
func pickVM(c *Fleet, k int, ok func(*vmRec) bool) *vmRec {
	var recs []*vmRec
	for _, id := range sortedVMs(c.vms) {
		if ok(c.vm(id)) {
			recs = append(recs, c.vm(id))
		}
	}
	if len(recs) == 0 {
		return nil
	}
	return recs[k%len(recs)]
}

// pickLive returns the k-th outstanding lease (mod their number), or nil.
func pickLive(c *Fleet, k int) *Lease {
	if len(c.live) == 0 {
		return nil
	}
	return c.live[k%len(c.live)]
}

func anyVM(*vmRec) bool { return true }

// corruptions are the breakages the TestViolation* tests apply, plus a
// VM whose home names a node it does not run on.
var corruptions = []corruption{
	{"none", func(*Fleet, int) bool { return true }},
	{"down-node", func(c *Fleet, k int) bool {
		rec := pickVM(c, k, anyVM)
		if rec == nil {
			return false
		}
		c.down[rec.home] = true
		return true
	}},
	{"cpu-books", func(c *Fleet, k int) bool { c.freeCPU[k%len(c.freeCPU)]--; return true }},
	{"mem-books", func(c *Fleet, k int) bool { c.freeMem[k%len(c.freeMem)] -= 512; return true }},
	{"balloon-mismatch", func(c *Fleet, k int) bool {
		rec := pickVM(c, k, func(r *vmRec) bool { return r.ballooned < int64(r.req.VCPUs) })
		if rec == nil {
			return false
		}
		rec.inflate(1)
		return true
	}},
	{"balloon-range", func(c *Fleet, k int) bool {
		rec := pickVM(c, k, anyVM)
		if rec == nil {
			return false
		}
		rec.ballooned = -1
		return true
	}},
	{"lease-double-book", func(c *Fleet, k int) bool {
		l := pickLive(c, k)
		if l == nil {
			return false
		}
		dup := *l
		dup.ID = 1 << 20
		c.leases = append(c.leases, &dup)
		c.live = append(c.live, &dup)
		return true
	}},
	{"lease-no-fragment", func(c *Fleet, k int) bool {
		l := &Lease{ID: 1 << 20, VM: -7, Node: k % len(c.freeCPU), CPUs: 1, State: LeaseActive}
		c.leases = append(c.leases, l)
		c.live = append(c.live, l)
		return true
	}},
	{"lease-cpu-mismatch", func(c *Fleet, k int) bool {
		l := pickLive(c, k)
		if l == nil {
			return false
		}
		l.CPUs++
		return true
	}},
	{"fragment-no-lease", func(c *Fleet, k int) bool {
		l := pickLive(c, k)
		if l == nil {
			return false
		}
		l.State = LeaseReleased
		c.live = slices.DeleteFunc(c.live, func(x *Lease) bool { return x == l })
		return true
	}},
	{"released-but-listed", func(c *Fleet, k int) bool {
		l := &Lease{ID: 1 << 20, VM: -7, Node: k % len(c.freeCPU), CPUs: 1, State: LeaseReleased}
		c.leases = append(c.leases, l)
		c.live = append(c.live, l)
		return true
	}},
	{"outstanding-but-unlisted", func(c *Fleet, k int) bool {
		if len(c.live) == 0 {
			return false
		}
		c.live = c.live[:0]
		return true
	}},
	{"out-of-order", func(c *Fleet, k int) bool {
		extra := &Lease{ID: 1 << 20, VM: -7, Node: k % len(c.freeCPU), CPUs: 1, State: LeaseActive}
		c.leases = append(c.leases, extra)
		c.live = append([]*Lease{extra}, c.live...)
		return true
	}},
	{"one-node-home-elsewhere", func(c *Fleet, k int) bool {
		rec := pickVM(c, k, func(r *vmRec) bool { return len(r.pl) == 1 })
		if rec == nil {
			return false
		}
		rec.home = (rec.home + 1) % len(c.freeCPU)
		return true
	}},
	{"gang-home-elsewhere", func(c *Fleet, k int) bool {
		rec := pickVM(c, k, func(r *vmRec) bool { return len(r.pl) > 1 })
		if rec == nil {
			return false
		}
		rec.home = (rec.home + 1 + k%(len(c.freeCPU)-1)) % len(c.freeCPU)
		return true
	}},
	{"multiple", func(c *Fleet, k int) bool {
		c.freeCPU[k%len(c.freeCPU)]--
		c.freeMem[(k+1)%len(c.freeMem)] -= 512
		if l := pickLive(c, k); l != nil {
			l.CPUs++
		}
		return true
	}},
}

// TestVerifyReportMatchesReference holds the single-walk VerifyReport to
// the three-walk reference: on states sampled from soak and reclaim
// worlds, clean and under every corruption, both must report the same
// violations (class, node, VM, lease and message) in the same order.
func TestVerifyReportMatchesReference(t *testing.T) {
	const every = 250 * sim.Millisecond
	type world struct {
		name string
		make func() (*sim.Env, *Fleet)
		end  sim.Time
	}
	worlds := []world{
		{"soak-seed1", func() (*sim.Env, *Fleet) { return newSoak(1, 8) }, soakWindow},
		{"soak-seed2", func() (*sim.Env, *Fleet) { return newSoak(2, 8) }, soakWindow},
	}
	for _, pol := range Policies() {
		worlds = append(worlds, world{"reclaim-" + pol.String(), func() (*sim.Env, *Fleet) { return newReclaimWorld(pol) }, reclaimHorizon})
	}
	applied := map[string]int{}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			env, f := w.make()
			k := 0
			var sample func()
			sample = func() {
				for _, corr := range corruptions {
					c := cloneBooks(f)
					if !corr.apply(c, k) {
						continue
					}
					applied[corr.name]++
					got, want := c.VerifyReport(), verifyReportRef(c)
					if !slices.Equal(got, want) {
						t.Errorf("t=%v %s: report\n%v\nwant\n%v", env.Now(), corr.name, got, want)
					}
					if broken := len(want) > 0; broken != (corr.name != "none") {
						t.Errorf("t=%v %s: reference reported %v", env.Now(), corr.name, want)
					}
				}
				k++
				if env.Now()+every <= w.end {
					env.After(every, sample)
				}
			}
			env.At(0, sample)
			env.Run()
		})
	}
	for _, corr := range corruptions {
		if applied[corr.name] == 0 {
			t.Errorf("corruption %s never applied", corr.name)
		}
	}
	t.Log(applied)
}
