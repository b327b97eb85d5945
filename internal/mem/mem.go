// Package mem models the guest pseudo-physical address space of an
// Aggregate VM.
//
// A Type-2 hypervisor holds guest physical memory (GPA space) inside the
// VMM process's virtual address space; FragVisor spreads that space over
// several hypervisor instances and keeps it coherent with DSM. This package
// provides the addressing vocabulary — pages, addresses, regions — and a
// simple region allocator used to lay out the guest: kernel text/data,
// page tables, virtio rings, and application heaps each get a Region whose
// kind informs the DSM's contextual optimizations.
package mem

import "fmt"

// PageSize is the guest page size in bytes (x86 4 KiB pages).
const PageSize = 4096

// PageID identifies one guest-physical page.
type PageID uint64

// Addr is a guest-physical byte address.
type Addr uint64

// PageOf returns the page containing the address.
func PageOf(a Addr) PageID { return PageID(a / PageSize) }

// Addr returns the first byte address of the page.
func (p PageID) Addr() Addr { return Addr(p) * PageSize }

// Kind classifies a region's contents, which determines how the DSM treats
// its pages.
type Kind int

const (
	// KindKernel marks guest-kernel data structures (run queues, inode
	// and socket tables, allocator metadata). Highly shared in SMP guests.
	KindKernel Kind = iota
	// KindContext marks CPU-context memory the hypervisor understands:
	// page tables, interrupt descriptors. Eligible for contextual-DSM
	// piggybacking.
	KindContext
	// KindDevice marks virtio ring and device configuration pages.
	KindDevice
	// KindHeap marks application anonymous memory.
	KindHeap
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindKernel:
		return "kernel"
	case KindContext:
		return "context"
	case KindDevice:
		return "device"
	case KindHeap:
		return "heap"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Region is a contiguous run of guest-physical pages.
type Region struct {
	Name  string
	Start PageID
	Pages int64
	Kind  Kind
}

// End returns the first page after the region.
func (r Region) End() PageID { return r.Start + PageID(r.Pages) }

// Bytes returns the region size in bytes.
func (r Region) Bytes() int64 { return r.Pages * PageSize }

// Contains reports whether the page lies inside the region.
func (r Region) Contains(p PageID) bool { return p >= r.Start && p < r.End() }

// Page returns the i-th page of the region, panicking when out of range.
func (r Region) Page(i int64) PageID {
	if i < 0 || i >= r.Pages {
		panic(fmt.Sprintf("mem: page %d out of region %q (%d pages)", i, r.Name, r.Pages))
	}
	return r.Start + PageID(i)
}

// Layout is a bump allocator carving regions out of the guest-physical
// address space. The zero value is an empty layout starting at page 0.
type Layout struct {
	regions []Region
	next    PageID
}

// Alloc carves a new region of n pages. Region names must be unique; n must
// be positive.
func (l *Layout) Alloc(name string, n int64, kind Kind) Region {
	if n <= 0 {
		panic(fmt.Sprintf("mem: Alloc(%q, %d): size must be positive", name, n))
	}
	for _, r := range l.regions {
		if r.Name == name {
			panic(fmt.Sprintf("mem: duplicate region name %q", name))
		}
	}
	r := Region{Name: name, Start: l.next, Pages: n, Kind: kind}
	l.regions = append(l.regions, r)
	l.next += PageID(n)
	return r
}

// AllocBytes carves a region of at least n bytes, rounded up to pages.
func (l *Layout) AllocBytes(name string, n int64, kind Kind) Region {
	pages := (n + PageSize - 1) / PageSize
	return l.Alloc(name, pages, kind)
}

// Region returns the named region.
func (l *Layout) Region(name string) (Region, bool) {
	for _, r := range l.regions {
		if r.Name == name {
			return r, true
		}
	}
	return Region{}, false
}

// RegionOf returns the region containing the page.
func (l *Layout) RegionOf(p PageID) (Region, bool) {
	for _, r := range l.regions {
		if r.Contains(p) {
			return r, true
		}
	}
	return Region{}, false
}

// NumRegions returns the number of regions allocated so far.
func (l *Layout) NumRegions() int { return len(l.regions) }

// TotalPages returns the number of pages allocated so far.
func (l *Layout) TotalPages() int64 { return int64(l.next) }
