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

// scrambler is the fabric's fault filter, and through its
// topo.MsgFilter method the reliable transport's too. It delays every
// cross-node frame to the directory's node by a pseudo-random amount
// below maxDelay, so fault requests from one node overtake each other,
// and with dup set it also puts each data frame to the directory's node
// on the fabric twice, the copy delayed on its own — often past the
// original's grant. It counts the grants the requesters receive.
type scrambler struct {
	origin   int
	dup      bool
	maxDelay sim.Time
	rng      uint64
	grants   int
}

func (s *scrambler) MsgOutcome(from, to int) topo.MsgOutcome {
	return topo.MsgOutcome{Duplicate: s.dup && to == s.origin}
}

func (s *scrambler) Outcome(from, to, size int) topo.Outcome {
	if to != s.origin || s.maxDelay <= 0 {
		return topo.Outcome{}
	}
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	return topo.Outcome{Delay: sim.Time(s.rng>>33) % s.maxDelay}
}

// newScrambledDSM builds an n-node DSM whose traffic to the directory
// passes through a scrambler.
func newScrambledDSM(n int, dup bool, maxDelay sim.Time) (*sim.Env, *DSM, *scrambler) {
	env := sim.NewEnv()
	fabric := topo.FlatSpec().Build(env, "fabric", 56, 1500*sim.Nanosecond)
	layer := msg.NewLayer(env, fabric)
	nodes := make([]int, n)
	for i := range nodes {
		nodes[i] = i
	}
	d := New(env, layer, nodes, DefaultParams())
	s := &scrambler{origin: d.origin, dup: dup, maxDelay: maxDelay, rng: 42}
	for _, n := range nodes {
		d.ownSvc.Handle(n, func(m *msg.Message) {
			if m.Kind == "grant" {
				s.grants++
			}
			d.handleOwner(m)
		})
	}
	fabric.SetFilter(s)
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
			ev := new(sim.Event)
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
	if dups := d.layer.Transport().Stats().DupFrames; dups < 100 {
		t.Fatalf("only %d frames to the directory were duplicated", dups)
	}
	if faults := st.ReadFaults + st.WriteFaults; int64(s.grants) != faults {
		t.Errorf("the directory sent %d grants for %d faults", s.grants, faults)
	}
	if err := d.Validate(); err != nil {
		t.Error(err)
	}
}

// The VM transport's dedup state is O(messages in flight): after 100k
// faults from four nodes running three procs each, with frames to the
// directory overtaking one another, the flow windows never park more
// seqs than can be in flight, none stay parked once every fault
// completed, the flows number the node pairs that talk, the page records
// number the pages used, and the live heap does not grow with the fault
// count.
func TestDedupStateStaysBounded(t *testing.T) {
	const (
		nodes  = 4
		procs  = 3
		target = 100_000
	)
	env, d, _ := newScrambledDSM(nodes, false, 20*sim.Microsecond)
	defer env.Close()
	pages := []mem.PageID{1, 2, 3, 4, 5}
	rel := d.layer.Transport()
	maxParked := 0
	d.dirSvc.Handle(d.origin, func(m *msg.Message) {
		d.handleDir(m)
		_, parked := rel.Flows()
		maxParked = max(maxParked, parked)
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
		t.Error("no frame ever overtook another: the test does not exercise parking")
	}
	// Each requester has at most procs faults in flight, and each fault
	// at most one frame toward the directory's node at a time.
	if bound := (nodes - 1) * procs; maxParked > bound {
		t.Errorf("%d seqs parked with at most %d frames in flight", maxParked, bound)
	}
	// The directory talks with every other node both ways; nothing else
	// crosses the fabric.
	if flows, parked := rel.Flows(); flows != 2*(nodes-1) || parked != 0 {
		t.Errorf("%d flows with %d seqs parked after every fault completed, want %d and none", flows, parked, 2*(nodes-1))
	}
	if len(d.pages) != len(pages) {
		t.Errorf("%d page records for %d pages", len(d.pages), len(pages))
	}
	// One map entry per message, as a set of every seq ever admitted kept,
	// would be several MB over the second half's 50k faults.
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
