package dsm

import (
	"sort"

	"repro/internal/mem"
	"repro/internal/msg"
	"repro/internal/sim"
)

// unclaimed marks extent ranges no node has touched yet. Conceptually the
// origin backs them (zero pages), but first touches are distinguished from
// accesses to live data so local first touch can be priced as a minor
// fault.
const unclaimed = -1

// extent is a run of pages with uniform ownership. copies is a bitmask of
// dense node indices holding valid replicas.
type extent struct {
	start, end mem.PageID // [start, end)
	owner      int        // node id, or unclaimed
	copies     uint32
	touched    bool // false for administratively delegated, never-accessed memory
}

func (x extent) pages() int64 { return int64(x.end - x.start) }

// extentTable tracks bulk-region ownership as sorted non-overlapping
// extents. It is the scale tier of the DSM: multi-gigabyte datasets are
// tracked per-range instead of per-page.
type extentTable struct {
	exts []extent
}

// query returns extents exactly covering [start, end), with gaps reported
// as unclaimed ranges.
func (t *extentTable) query(start, end mem.PageID) []extent {
	if start >= end {
		return nil
	}
	var out []extent
	pos := start
	i := sort.Search(len(t.exts), func(i int) bool { return t.exts[i].end > start })
	for ; i < len(t.exts) && pos < end; i++ {
		x := t.exts[i]
		if x.start >= end {
			break
		}
		if x.start > pos {
			out = append(out, extent{start: pos, end: x.start, owner: unclaimed})
		}
		lo, hi := x.start, x.end
		if lo < pos {
			lo = pos
		}
		if hi > end {
			hi = end
		}
		out = append(out, extent{start: lo, end: hi, owner: x.owner, copies: x.copies, touched: x.touched})
		pos = hi
	}
	if pos < end {
		out = append(out, extent{start: pos, end: end, owner: unclaimed})
	}
	return out
}

// set overwrites ownership for [start, end).
func (t *extentTable) set(start, end mem.PageID, owner int, copies uint32, touched bool) {
	if start >= end {
		return
	}
	var out []extent
	for _, x := range t.exts {
		switch {
		case x.end <= start || x.start >= end:
			out = append(out, x)
		default:
			if x.start < start {
				out = append(out, extent{start: x.start, end: start, owner: x.owner, copies: x.copies, touched: x.touched})
			}
			if x.end > end {
				out = append(out, extent{start: end, end: x.end, owner: x.owner, copies: x.copies, touched: x.touched})
			}
		}
	}
	out = append(out, extent{start: start, end: end, owner: owner, copies: copies, touched: touched})
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	// Merge adjacent extents with identical ownership.
	merged := out[:0]
	for _, x := range out {
		if n := len(merged); n > 0 {
			last := &merged[n-1]
			if last.end == x.start && last.owner == x.owner && last.copies == x.copies && last.touched == x.touched {
				last.end = x.end
				continue
			}
		}
		merged = append(merged, x)
	}
	t.exts = merged
}

// ownedPages sums the touched pages whose owner is the given node.
// Delegated-but-never-accessed memory holds no data and is not counted.
func (t *extentTable) ownedPages(owner int) int64 {
	var n int64
	for _, x := range t.exts {
		if x.owner == owner && x.touched {
			n += x.pages()
		}
	}
	return n
}

// bit returns the copyset bit for a node.
func (d *DSM) bit(node int) uint32 { return 1 << d.index(node) }

// remoteRTT estimates one request/response round trip carrying dataBytes of
// payload, as seen by a bulk fault. Local (origin) faults skip the fabric.
func (d *DSM) remoteRTT(node int, dataBytes int) sim.Time {
	if node == d.origin {
		return 2 * msg.HandlerLat
	}
	net := d.layer.Net()
	return 2*net.Latency() + 2*msg.HandlerLat +
		net.TxTime(reqBytes+msg.HeaderBytes) + net.TxTime(dataBytes+msg.HeaderBytes)
}

// TouchRange accesses pages [start, start+pages) as bulk data: ownership is
// tracked per extent and the aggregate protocol cost is charged in one
// sleep. Use it for private or migratory application datasets; use
// Read/Write/Touch for genuinely shared pages.
func (d *DSM) TouchRange(p *sim.Proc, node int, start mem.PageID, pages int64, write bool) {
	if pages < 0 {
		panic("dsm: negative page count")
	}
	if pages == 0 {
		return
	}
	if !d.alive(node) {
		// A crashed slice's bulk accesses must not mutate the extent
		// table out from under the survivors.
		return
	}
	st := d.mustStats(node)
	bit := d.bit(node)
	perFault := faultHandler + d.params.UserSpaceExtra
	var cost sim.Time
	end := start + mem.PageID(pages)
	for _, seg := range d.extents.query(start, end) {
		n := seg.pages()
		switch {
		case !write && seg.owner != unclaimed && seg.touched && seg.copies&bit != 0,
			write && seg.owner == node && seg.touched && seg.copies == bit:
			st.LocalHits += n
			continue
		case seg.owner == unclaimed && node == d.origin,
			seg.owner == node && !seg.touched:
			// Local first touch (fresh memory at the origin, or a range
			// pre-delegated to this node): allocate + map.
			cost += sim.Time(n) * minorFault
			st.BulkLocalPages += n
			d.extents.set(seg.start, seg.end, node, bit, true)
		case write && seg.owner == node:
			// Upgrade: we own the data but other replicas exist.
			cost += sim.Time(n) * (perFault + d.remoteRTT(node, 0))
			st.WriteFaults += n
			d.extents.set(seg.start, seg.end, node, bit, true)
		case write && seg.copies&bit != 0:
			// Ownership transfer without data movement.
			cost += sim.Time(n) * (perFault + d.remoteRTT(node, 0))
			st.WriteFaults += n
			d.extents.set(seg.start, seg.end, node, bit, true)
		default:
			// Replicate or claim with page payload from the owner.
			cost += sim.Time(n) * (perFault + d.remoteRTT(node, mem.PageSize))
			st.BytesMoved += n * mem.PageSize
			st.BulkRemotePages += n
			if write {
				st.WriteFaults += n
				d.extents.set(seg.start, seg.end, node, bit, true)
			} else {
				st.ReadFaults += n
				owner := seg.owner
				copies := seg.copies | bit
				if owner == unclaimed {
					owner = d.origin
					copies |= d.bit(d.origin)
				}
				d.extents.set(seg.start, seg.end, owner, copies, true)
			}
		}
	}
	p.Sleep(cost)
}

// DelegateRange administratively assigns ownership of a bulk range to a
// node with no protocol cost. FragVisor uses it when the guest is NUMA
// aware: per-node memory is pre-delegated to the slice that will allocate
// from it, so first touches stay local.
func (d *DSM) DelegateRange(node int, start mem.PageID, pages int64) {
	if pages <= 0 {
		panic("dsm: DelegateRange needs a positive page count")
	}
	d.extents.set(start, start+mem.PageID(pages), node, d.bit(node), false)
}

// OwnedBytes reports how many bytes of guest memory (bulk extents plus
// explicitly-managed pages) the node currently owns — the amount a
// distributed checkpoint must collect from it.
func (d *DSM) OwnedBytes(node int) int64 {
	total := d.extents.ownedPages(node) * mem.PageSize
	for _, r := range d.pages {
		if d.owns(r, node) {
			total += mem.PageSize
		}
	}
	return total
}

// owns reports whether the node owns an explicitly-managed page. A page
// the directory does not track is the origin's while the origin's
// replica is Exclusive (the bootstrap slice backs all memory).
func (d *DSM) owns(r *pageRec, node int) bool {
	if r.inDir {
		return r.owner == node
	}
	return node == d.origin && r.held&1 != 0 && r.local[0].state == Exclusive
}

// SnapshotOwned returns copies of the contents of every explicitly-managed
// page the node owns, each a full page (a zero page copies as zeros). Bulk
// extents carry no materialized bytes; their contribution to a checkpoint
// is counted by OwnedBytes. This is an administrative accessor (no
// protocol cost): the checkpointing code charges transfer and storage
// costs itself.
func (d *DSM) SnapshotOwned(node int) map[mem.PageID][]byte {
	out := make(map[mem.PageID][]byte)
	for pg, r := range d.pages {
		if !d.owns(r, node) {
			continue
		}
		if i := d.index(node); r.held&(1<<i) != 0 {
			out[pg] = append([]byte(nil), r.local[i].contents()...)
		}
	}
	return out
}

// RestorePage administratively installs page contents at a node and makes
// it the exclusive owner, invalidating every other replica. Used by
// checkpoint restore; costs are charged by the caller. The page lock is
// taken so a restore during recovery serializes with any in-flight
// directory grant on the same page.
func (d *DSM) RestorePage(p *sim.Proc, node int, pg mem.PageID, data []byte) {
	if len(data) > mem.PageSize {
		panic("dsm: restore data larger than a page")
	}
	r := d.rec(pg)
	d.lockProc(p, r)
	defer d.unlock(r)
	d.entry(r)
	for i := range r.local {
		if r.copyset&r.held&(1<<i) != 0 {
			r.local[i].state = Invalid
		}
	}
	ni := d.index(node)
	lp := d.replica(r, ni)
	buf := lp.writable()
	copy(buf, data)
	clear(buf[len(data):])
	lp.state = Exclusive
	r.owner = node
	r.copyset = 1 << ni
}
