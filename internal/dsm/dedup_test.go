package dsm

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/topo"
)

// scrambler is both the messaging layer's and the fabric's fault filter.
// It delays every cross-node fault request to the directory by a
// pseudo-random amount below maxDelay, so requests from one node overtake
// each other, and with dup set it also delivers each one twice, the copy
// delayed on its own — often past the original's grant. It counts the
// grants the directory sends.
type scrambler struct {
	dirSvc   string
	dup      bool
	maxDelay sim.Time
	rng      uint64
	// frames is how many of the fabric's next frames belong to the fault
	// request just offered: the layer rules on a message, then transmits
	// it, then its duplicate.
	frames int
	grants int
}

func (s *scrambler) MsgOutcome(from, to int, service, kind string) msg.MsgOutcome {
	if kind == "grant" {
		s.grants++
	}
	if service != s.dirSvc || from == to {
		return msg.MsgOutcome{}
	}
	s.frames = 1
	if s.dup {
		s.frames = 2
	}
	return msg.MsgOutcome{Duplicate: s.dup}
}

func (s *scrambler) Outcome(from, to, size int) topo.Outcome {
	if s.frames == 0 || s.maxDelay <= 0 {
		return topo.Outcome{}
	}
	s.frames--
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	return topo.Outcome{Delay: sim.Time(s.rng>>33) % s.maxDelay}
}

// newScrambledDSM builds an n-node DSM whose fault requests pass through
// a scrambler.
func newScrambledDSM(n int, dup bool, maxDelay sim.Time) (*sim.Env, *DSM, *scrambler) {
	env := sim.NewEnv()
	fabric := topo.FlatSpec().Build(env, "fabric", 56, 1500*sim.Nanosecond)
	layer := msg.NewLayer(env, fabric, msg.DefaultParams())
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	d := New(env, layer, nodes, DefaultParams())
	s := &scrambler{dirSvc: d.dirSvc, dup: dup, maxDelay: maxDelay, rng: 42}
	fabric.SetFilter(s)
	layer.SetFilter(s)
	return env, d, s
}

// shareWrites runs procs writers on each of the DSM's nodes, each doing
// ops accesses (two writes to one read) over a few shared pages with a
// microsecond or two of compute between them, and waits for them all.
func shareWrites(env *sim.Env, d *DSM, procs, ops int, pages []mem.PageID) {
	var done []*sim.Event
	for _, n := range d.nodes {
		for j := 0; j < procs; j++ {
			n, j := n, j
			ev := env.NewEvent()
			done = append(done, ev)
			env.Spawn(fmt.Sprintf("writer%d.%d", n, j), func(p *sim.Proc) {
				defer ev.Fire()
				for i := 0; i < ops; i++ {
					p.Sleep(sim.Time(1+(i+j)%2) * sim.Microsecond)
					pg := pages[(i+n+j)%len(pages)]
					if i%3 == 2 {
						d.Read(p, n, pg)
					} else {
						d.Write(p, n, pg, 8*(n*procs+j), []byte{byte(i), byte(n), byte(j)})
					}
				}
			})
		}
	}
	env.Spawn("join", func(p *sim.Proc) { p.WaitAll(done...) })
	env.Run()
}

// Every fault request reaches the directory twice, each copy delayed on
// its own, while concurrent writers on four nodes share three pages. The
// directory must grant each fault exactly once: a second grant for a
// duplicate would hand a page to a requester that already moved on,
// leaving the directory pointing at a stale replica.
func TestDuplicatedFaultRequestsGrantOnce(t *testing.T) {
	env, d, s := newScrambledDSM(4, true, 40*sim.Microsecond)
	defer env.Close()
	shareWrites(env, d, 3, 60, []mem.PageID{1, 2, 3})
	st := d.TotalStats()
	if dups := d.layer.FaultStats().Duplicated; dups < 100 {
		t.Fatalf("only %d fault requests were duplicated", dups)
	}
	if faults := st.ReadFaults + st.WriteFaults; int64(s.grants) != faults {
		t.Errorf("the directory sent %d grants for %d faults", s.grants, faults)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

// The directory's dedup state is O(faults in flight): after 100k faults
// from four nodes running three procs each, with requests overtaking one
// another, no node ever parks more ids than it has faults outstanding,
// the page records number the pages used, and the live heap does not
// grow with the fault count.
func TestDedupStateStaysBounded(t *testing.T) {
	const (
		nodes  = 4
		procs  = 3
		target = 100_000
	)
	env, d, _ := newScrambledDSM(nodes, false, 20*sim.Microsecond)
	defer env.Close()
	pages := []mem.PageID{1, 2, 3, 4, 5}
	maxParked := 0
	d.layer.Handle(d.origin, d.dirSvc, func(m *msg.Message) {
		d.handleDir(m)
		for i := range d.members {
			maxParked = max(maxParked, d.members[i].accepted.Parked())
		}
	})
	var heap [2]uint64
	for phase := range heap {
		want := int64(target / 2 * (phase + 1))
		for d.TotalStats().Faults() < want {
			shareWrites(env, d, procs, 300, pages)
		}
		heap[phase] = heapAllocAfterGC()
	}
	if faults := d.TotalStats().Faults(); faults < target {
		t.Fatalf("only %d faults", faults)
	}
	if maxParked == 0 {
		t.Error("no fault request ever overtook another: the test does not exercise parking")
	}
	if maxParked > procs {
		t.Errorf("a node had %d ids parked with at most %d faults in flight", maxParked, procs)
	}
	for i := range d.members {
		if n := d.members[i].accepted.Parked(); n != 0 {
			t.Errorf("node %d: %d ids still parked after every fault completed", d.nodes[i], n)
		}
	}
	if len(d.pages) != len(pages) {
		t.Errorf("%d page records for %d pages", len(d.pages), len(pages))
	}
	// One map entry per fault, as a set of every id ever accepted kept,
	// would be about 2 MB over the second half's 50k faults.
	if grew := int64(heap[1]) - int64(heap[0]); grew > 512<<10 {
		t.Errorf("live heap grew by %d bytes over the second 50k faults", grew)
	}
	runtime.KeepAlive(d)
}

func heapAllocAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// A late retransmission of a fault the directory accepted must stay a
// duplicate after its requester is marked dead: MarkDead forgets the
// node's parked ids, not the contiguous part of its window. Were the
// window reset, the stale write request would hand the page to the dead
// node.
func TestMarkDeadKeepsAcceptedIDsDuplicate(t *testing.T) {
	env, d, s := newScrambledDSM(3, false, 0)
	defer env.Close()
	pg, other := mem.PageID(7), mem.PageID(8)
	var first *pendingFault
	d.layer.Handle(d.origin, d.dirSvc, func(m *msg.Message) {
		if first == nil {
			first = m.Payload.(*pendingFault)
		}
		d.handleDir(m)
	})
	run(env, func(p *sim.Proc) {
		d.Write(p, 2, pg, 0, []byte("two"))
		d.Write(p, 1, pg, 0, []byte("one"))
	})
	if first == nil || first.ni != 2 || first.id != 0 || !first.write {
		t.Fatalf("first fault request = %+v, want node 2's write, id 0", first)
	}
	// A fresh request two ids ahead of node 2's window parks.
	ahead := &pendingFault{id: first.id + 2, rec: d.rec(other), ni: 2, ev: env.NewEvent()}
	d.layer.Send(2, d.origin, d.dirSvc, "fault", d.params.ReqBytes, ahead)
	env.Run()
	w := &d.members[2].accepted
	if w.Parked() != 1 {
		t.Fatalf("%d ids parked, want the one sent ahead", w.Parked())
	}

	d.MarkDead(2)
	if w.Parked() != 0 {
		t.Errorf("MarkDead kept %d parked ids", w.Parked())
	}
	grants := s.grants
	d.layer.Send(2, d.origin, d.dirSvc, "fault", d.params.ReqBytes, first)
	env.Run()
	if s.grants != grants {
		t.Errorf("a retransmitted id of a dead node drew %d grants", s.grants-grants)
	}
	if owner, _, _ := d.DirEntry(pg); owner != 1 {
		t.Errorf("page owner = %d, want 1", owner)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}
