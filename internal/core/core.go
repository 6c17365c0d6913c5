// Package core provides the monitored region service (MRS) of "Practical
// Data Breakpoints" (PLDI 1993) as a reusable Go library.
//
// A monitored region service detects writes to contiguous, word-aligned,
// non-overlapping regions of a 32-bit address space. A host program — an
// interpreter, a virtual machine, a simulator, or the instruction-patching
// pipeline in this repository — calls CheckWrite on every store it executes;
// the service invokes the registered notification callback on each monitor
// hit. The interface follows §2 of the paper:
//
//	CreateMonitoredRegion(region)
//	DeleteMonitoredRegion(region)
//	NotificationCallBack(targetAddress, size)
//
// plus the PreMonitor/PostMonitor pair from §4.2 that drives dynamic
// insertion and deletion of eliminated write checks through a client
// supplied Patcher.
//
// Address lookup is pluggable: the segmented bitmap (the paper's choice) or
// the hash table from the pilot study. A hierarchical range index answers
// the loop pre-header range checks of §4.3.
package core

import (
	"fmt"

	"databreak/internal/bitmap"
	"databreak/internal/hashtable"
	"databreak/internal/rangecheck"
)

// Region is a contiguous monitored region: word aligned, non-overlapping.
type Region struct {
	Addr uint32
	Size uint32 // bytes, word multiple
}

// End returns the exclusive upper bound of the region.
func (r Region) End() uint32 { return r.Addr + r.Size }

func (r Region) String() string {
	return fmt.Sprintf("[%#x,+%d)", r.Addr, r.Size)
}

// HitFunc is the notification callback: addr is the store's target address,
// size the store width in bytes.
type HitFunc func(addr uint32, size uint32)

// Kind is a region's access-kind mask: which access kinds trigger a hit.
// It aliases the bitmap package's kind so the two layers share constants.
type Kind = bitmap.Kind

const (
	// KindStore triggers on stores — the paper's only kind.
	KindStore = bitmap.KindStore
	// KindLoad triggers on loads (read watchpoints).
	KindLoad = bitmap.KindLoad
	// KindAll triggers on both.
	KindAll = bitmap.KindAll
)

// Lookup abstracts the address-lookup data structure.
type Lookup interface {
	// Add marks the region as monitored; it fails on overlap or misalignment.
	Add(addr, size uint32) error
	// Remove unmarks a region previously added with exactly these bounds.
	Remove(addr, size uint32) error
	// Contains reports whether the word containing addr is monitored.
	Contains(addr uint32) bool
	// ContainsAccess reports whether a size-byte store at addr hits.
	ContainsAccess(addr, size uint32) bool
}

// KindLookup is the optional kind-aware extension of Lookup. A lookup that
// implements it tracks per-kind coverage itself (the segmented bitmap's kind
// planes); for one that does not, the service falls back to its region table
// to filter hits by kind.
type KindLookup interface {
	Lookup
	// AddKind is Add with an explicit access-kind mask.
	AddKind(addr, size uint32, k Kind) error
	// RemoveKind is Remove for a region added with kind k.
	RemoveKind(addr, size uint32, k Kind) error
	// ContainsAccessKind reports whether a size-byte access of kind k at
	// addr touches a word monitored for that kind.
	ContainsAccessKind(addr, size uint32, k Kind) bool
}

var (
	_ Lookup     = (*hashtable.Table)(nil)
	_ KindLookup = (*bitmap.Bitmap)(nil)
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
	RangeHits   uint64 // conservative range intersections reported
}

// Option configures New.
type Option func(*Service)

// WithLookup selects the address-lookup structure (default: segmented
// bitmap with the paper's 128-word segments).
func WithLookup(l Lookup) Option { return func(s *Service) { s.lookup = l } }

// WithCallback sets the notification callback.
func WithCallback(f HitFunc) Option { return func(s *Service) { s.callback = f } }

// WithPatcher registers the dynamic check patcher used by PreMonitor and
// PostMonitor.
func WithPatcher(p Patcher) Option { return func(s *Service) { s.patcher = p } }

// Service is a monitored region service. Create with New. Service is not
// safe for concurrent use; the debuggee it monitors is single-threaded, as
// in the paper.
type Service struct {
	lookup   Lookup
	ranges   *rangecheck.Index
	callback HitFunc
	patcher  Patcher
	regions  map[Region]Kind
	storable int               // regions whose kind includes KindStore
	loadable int               // regions whose kind includes KindLoad
	symbols  map[string]Region // PreMonitor'd symbol -> its region
	stats    Stats
}

// New builds a service. With no options it uses a segmented bitmap over the
// full 32-bit address space and a callback that does nothing.
func New(opts ...Option) *Service {
	s := &Service{
		ranges:  rangecheck.New(),
		regions: make(map[Region]Kind),
		symbols: make(map[string]Region),
	}
	for _, o := range opts {
		o(s)
	}
	if s.lookup == nil {
		s.lookup = bitmap.New(bitmap.DefaultConfig)
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
func (s *Service) CreateMonitoredRegionKind(r Region, k Kind) error {
	if k == 0 || k&^KindAll != 0 {
		return fmt.Errorf("core: invalid region kind %v", k)
	}
	if _, dup := s.regions[r]; dup {
		return fmt.Errorf("core: region %v already monitored", r)
	}
	if kl, ok := s.lookup.(KindLookup); ok {
		if err := kl.AddKind(r.Addr, r.Size, k); err != nil {
			return err
		}
	} else if err := s.lookup.Add(r.Addr, r.Size); err != nil {
		return err
	}
	if err := s.ranges.Add(r.Addr, r.Size); err != nil {
		// Keep lookup and range index in sync even on failure.
		_ = s.removeFromLookup(r, k)
		return err
	}
	s.regions[r] = k
	if k&KindStore != 0 {
		s.storable++
	}
	if k&KindLoad != 0 {
		s.loadable++
	}
	return nil
}

func (s *Service) removeFromLookup(r Region, k Kind) error {
	if kl, ok := s.lookup.(KindLookup); ok {
		return kl.RemoveKind(r.Addr, r.Size, k)
	}
	return s.lookup.Remove(r.Addr, r.Size)
}

// DeleteMonitoredRegion removes a region previously created with exactly
// these bounds (any kind).
func (s *Service) DeleteMonitoredRegion(r Region) error {
	k, ok := s.regions[r]
	if !ok {
		return fmt.Errorf("core: region %v is not monitored", r)
	}
	if err := s.removeFromLookup(r, k); err != nil {
		return err
	}
	if err := s.ranges.Remove(r.Addr, r.Size); err != nil {
		return err
	}
	delete(s.regions, r)
	if k&KindStore != 0 {
		s.storable--
	}
	if k&KindLoad != 0 {
		s.loadable--
	}
	return nil
}

// RegionKind returns the kind of an installed region, or 0 if r is not
// monitored.
func (s *Service) RegionKind(r Region) Kind { return s.regions[r] }

// regionsHit reports whether any installed region with a kind bit in k
// covers a word of the size-byte access at addr. This is the kind filter for
// lookups without per-kind coverage (the hash table); region counts are
// small, so a linear scan on the hit path is fine.
func (s *Service) regionsHit(addr, size uint32, k Kind) bool {
	first := addr &^ 3
	last := (addr + size - 1) &^ 3
	for r, rk := range s.regions {
		if rk&k != 0 && first < r.End() && last >= r.Addr {
			return true
		}
	}
	return false
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
	if s.storable == 0 {
		return
	}
	if kl, ok := s.lookup.(KindLookup); ok {
		if kl.ContainsAccessKind(addr, size, KindStore) {
			s.stats.Hits++
			s.callback(addr, size)
		}
		return
	}
	if s.lookup.ContainsAccess(addr, size) && s.regionsHit(addr, size, KindStore) {
		s.stats.Hits++
		s.callback(addr, size)
	}
}

// CheckRead is the load check: the host calls it on every load of size
// bytes at addr when read watchpoints are armed. On a hit the notification
// callback runs.
func (s *Service) CheckRead(addr, size uint32) {
	s.stats.ReadChecks++
	if s.loadable == 0 {
		return
	}
	if kl, ok := s.lookup.(KindLookup); ok {
		if kl.ContainsAccessKind(addr, size, KindLoad) {
			s.stats.ReadHits++
			s.callback(addr, size)
		}
		return
	}
	if s.lookup.ContainsAccess(addr, size) && s.regionsHit(addr, size, KindLoad) {
		s.stats.ReadHits++
		s.callback(addr, size)
	}
}

// CheckRange is the loop pre-header range check of §4.3: it conservatively
// reports whether the inclusive interval [lo, hi] may intersect a monitored
// region. A true result never misses a real intersection.
func (s *Service) CheckRange(lo, hi uint32) bool {
	s.stats.RangeChecks++
	if len(s.regions) == 0 {
		return false
	}
	if s.ranges.Intersects(lo, hi) {
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
