// Package core provides the monitored region service (MRS) of "Practical
// Data Breakpoints" (PLDI 1993) as a small Go library.
//
// A monitored region service detects writes to contiguous, word-aligned,
// non-overlapping regions of a 32-bit address space. A host program that
// executes the debuggee itself — an interpreter, a virtual machine, a
// simulator — calls CheckWrite on every store it executes; the service
// invokes the registered notification callback on each monitor hit. The
// interface follows §2 of the paper:
//
//	CreateMonitoredRegion(region)
//	DeleteMonitoredRegion(region)
//	NotificationCallBack(targetAddress, size)
//
// plus the PreMonitor/PostMonitor pair from §4.2 that drives dynamic
// insertion and deletion of eliminated write checks through a client
// supplied Patcher.
//
// The service keeps its regions in a slice sorted by address and answers
// every check by binary search; hosts watch a handful of regions. The
// instruction-patching pipeline does not use this package: its inserted
// checks read the segmented bitmap that internal/monitor keeps in the
// debuggee's memory.
package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"databreak/internal/monitor"
)

// Region is a contiguous monitored region: word aligned, non-overlapping.
type Region struct {
	Addr uint32
	Size uint32 // bytes, word multiple
}

// End returns the exclusive upper bound of the region.
func (r Region) End() uint32 { return r.Addr + r.Size }

// last is the region's last byte; unlike End it cannot wrap for a region
// that ends at 2^32.
func (r Region) last() uint32 { return r.Addr + r.Size - 1 }

func (r Region) String() string {
	return fmt.Sprintf("[%#x,+%d)", r.Addr, r.Size)
}

// HitFunc is the notification callback: addr is the store's target address,
// size the store width in bytes.
type HitFunc func(addr uint32, size uint32)

// Kind is a region's access-kind mask: which access kinds trigger a hit.
// It aliases the monitor package's kind so the two services share constants.
type Kind = monitor.Kind

const (
	// KindStore triggers on stores — the paper's only kind.
	KindStore = monitor.KindStore
	// KindLoad triggers on loads (read watchpoints).
	KindLoad = monitor.KindLoad
	// KindAll triggers on both.
	KindAll = monitor.KindAll
)

// Patcher re-inserts and removes eliminated write checks at run time
// (Kessler-style code patching). The instruction-level pipeline registers an
// implementation; pure-Go hosts may ignore it.
type Patcher interface {
	// InsertChecks re-arms the eliminated write checks for symbol sym.
	InsertChecks(sym string)
	// RemoveChecks disarms them again.
	RemoveChecks(sym string)
}

// Stats counts service activity.
type Stats struct {
	Checks      uint64 // CheckWrite calls
	Hits        uint64 // monitor hits delivered
	ReadChecks  uint64 // CheckRead calls
	ReadHits    uint64 // read-watchpoint hits delivered
	RangeChecks uint64 // CheckRange calls
	RangeHits   uint64 // CheckRange calls that found an intersection
}

// Option configures New.
type Option func(*Service)

// WithCallback sets the notification callback.
func WithCallback(f HitFunc) Option { return func(s *Service) { s.callback = f } }

// WithPatcher registers the dynamic check patcher used by PreMonitor and
// PostMonitor.
func WithPatcher(p Patcher) Option { return func(s *Service) { s.patcher = p } }

// Service is a monitored region service. Create with New. Service is not
// safe for concurrent use; the debuggee it monitors is single-threaded, as
// in the paper.
type Service struct {
	regions  []monitored // disjoint, sorted by address
	callback HitFunc
	patcher  Patcher
	symbols  map[string]Region // PreMonitor'd symbol -> its region
	stats    Stats
}

// monitored is an installed region and the access kinds it triggers on.
type monitored struct {
	Region
	kind Kind
}

// New builds a service. With no options it has no patcher and a callback
// that does nothing.
func New(opts ...Option) *Service {
	s := &Service{symbols: make(map[string]Region)}
	for _, o := range opts {
		o(s)
	}
	if s.callback == nil {
		s.callback = func(uint32, uint32) {}
	}
	return s
}

// SetCallback replaces the notification callback.
func (s *Service) SetCallback(f HitFunc) {
	if f == nil {
		f = func(uint32, uint32) {}
	}
	s.callback = f
}

// CreateMonitoredRegion installs r with the paper's store kind. The region
// must be word aligned and disjoint from every installed region.
func (s *Service) CreateMonitoredRegion(r Region) error {
	return s.CreateMonitoredRegionKind(r, KindStore)
}

// CreateMonitoredRegionKind installs r triggering on the access kinds in k.
// A region that is not word aligned, is empty, extends past 2^32 or
// overlaps an installed region of any kind is refused, and the service is
// left as it was.
func (s *Service) CreateMonitoredRegionKind(r Region, k Kind) error {
	switch {
	case k == 0 || k&^KindAll != 0:
		return fmt.Errorf("core: invalid region kind %v", k)
	case r.Addr&3 != 0 || r.Size == 0 || r.Size&3 != 0:
		return fmt.Errorf("core: region %v is empty or not word aligned", r)
	case uint64(r.Addr)+uint64(r.Size) > 1<<32:
		return fmt.Errorf("core: region %v extends past 2^32", r)
	}
	i := s.first(r.Addr)
	if i < len(s.regions) && s.regions[i].Addr <= r.last() {
		return fmt.Errorf("core: region %v overlaps monitored region %v", r, s.regions[i].Region)
	}
	s.regions = slices.Insert(s.regions, i, monitored{r, k})
	return nil
}

// first returns the index of the first region whose last byte is at or
// above addr. The regions are disjoint, so their ends ascend with their
// starts.
func (s *Service) first(addr uint32) int {
	return sort.Search(len(s.regions), func(i int) bool { return s.regions[i].last() >= addr })
}

// find returns the index of the region installed with exactly r's bounds,
// or -1.
func (s *Service) find(r Region) int {
	if i := s.first(r.Addr); i < len(s.regions) && s.regions[i].Region == r {
		return i
	}
	return -1
}

// DeleteMonitoredRegion removes a region previously created with exactly
// these bounds (any kind).
func (s *Service) DeleteMonitoredRegion(r Region) error {
	i := s.find(r)
	if i < 0 {
		return fmt.Errorf("core: region %v is not monitored", r)
	}
	s.regions = slices.Delete(s.regions, i, i+1)
	return nil
}

// RegionKind returns the kind of an installed region, or 0 if r is not
// monitored.
func (s *Service) RegionKind(r Region) Kind {
	if i := s.find(r); i >= 0 {
		return s.regions[i].kind
	}
	return 0
}

// intersects reports whether a region with a kind bit in k holds a byte of
// the inclusive interval [lo, hi], lo <= hi.
func (s *Service) intersects(lo, hi uint32, k Kind) bool {
	for _, m := range s.regions[s.first(lo):] {
		if m.Addr > hi {
			return false
		}
		if m.kind&k != 0 {
			return true
		}
	}
	return false
}

// touches reports whether a size-byte access at addr touches a word of a
// region with a kind bit in k. Regions are whole words, so the access's
// bytes decide; like the address, they wrap at 2^32.
func (s *Service) touches(addr, size uint32, k Kind) bool {
	last := addr + size - 1
	if last < addr {
		return s.intersects(addr, math.MaxUint32, k) || s.intersects(0, last, k)
	}
	return s.intersects(addr, last, k)
}

// Disabled reports whether no regions are installed — the paper's global
// disabled flag, which write checks branch on to skip all work.
func (s *Service) Disabled() bool { return len(s.regions) == 0 }

// Regions returns the number of installed regions.
func (s *Service) Regions() int { return len(s.regions) }

// CheckWrite is the write check: the host calls it after every store of
// size bytes at addr. On a monitor hit the notification callback runs.
func (s *Service) CheckWrite(addr, size uint32) {
	s.stats.Checks++
	if s.touches(addr, size, KindStore) {
		s.stats.Hits++
		s.callback(addr, size)
	}
}

// CheckRead is the load check: the host calls it on every load of size
// bytes at addr when read watchpoints are armed. On a hit the notification
// callback runs.
func (s *Service) CheckRead(addr, size uint32) {
	s.stats.ReadChecks++
	if s.touches(addr, size, KindLoad) {
		s.stats.ReadHits++
		s.callback(addr, size)
	}
}

// CheckRange is the loop pre-header range check of §4.3: it reports whether
// the inclusive byte interval between lo and hi, given in either order,
// intersects a monitored region of any kind. The answer is exact.
func (s *Service) CheckRange(lo, hi uint32) bool {
	s.stats.RangeChecks++
	if hi < lo {
		lo, hi = hi, lo
	}
	if s.intersects(lo, hi, KindAll) {
		s.stats.RangeHits++
		return true
	}
	return false
}

// PreMonitor arms the eliminated write checks associated with symbol sym
// and then installs its region (§4.2: patch first, then create, so no hit
// is missed).
func (s *Service) PreMonitor(sym string, r Region) error {
	if _, dup := s.symbols[sym]; dup {
		return fmt.Errorf("core: symbol %q already monitored", sym)
	}
	if s.patcher != nil {
		s.patcher.InsertChecks(sym)
	}
	if err := s.CreateMonitoredRegion(r); err != nil {
		if s.patcher != nil {
			s.patcher.RemoveChecks(sym)
		}
		return err
	}
	s.symbols[sym] = r
	return nil
}

// PostMonitor removes the region installed for sym and disarms its checks.
func (s *Service) PostMonitor(sym string) error {
	r, ok := s.symbols[sym]
	if !ok {
		return fmt.Errorf("core: symbol %q is not monitored", sym)
	}
	if err := s.DeleteMonitoredRegion(r); err != nil {
		return err
	}
	if s.patcher != nil {
		s.patcher.RemoveChecks(sym)
	}
	delete(s.symbols, sym)
	return nil
}

// Stats returns a copy of the activity counters.
func (s *Service) Stats() Stats { return s.stats }
