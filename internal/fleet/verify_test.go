package fleet

import (
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
		f.vms[3].inflate(1)
		v := wantOnly(t, f, VBalloonBooks)
		if v.VM != 3 || !strings.Contains(v.Msg, "books broken") {
			t.Fatalf("violation = %+v, want VM 3 books broken", v)
		}
	})
	t.Run("out-of-range", func(t *testing.T) {
		f := gangFleet(t)
		f.vms[3].ballooned = -1
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
	f.vms[3].inflate(3)
}

// TestBalloonOverDeflatePanics: deflating returns at most what the
// balloon holds.
func TestBalloonOverDeflatePanics(t *testing.T) {
	f := gangFleet(t)
	f.vms[3].inflate(1)
	defer func() {
		if recover() == nil {
			t.Fatal("deflating past ballooned should panic")
		}
	}()
	f.vms[3].deflate(2)
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
