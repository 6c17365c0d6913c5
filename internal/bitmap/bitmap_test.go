// Package bitmap held a host-side copy of the paper's segmented bitmap, the
// default back end of core. Core now keeps its regions in a list sorted by
// address, and the simulated bitmap lives in internal/monitor; the host
// bitmap's tests of the region contract stay here and run against core.
package bitmap

import (
	"math/rand"
	"testing"

	"databreak/internal/core"
)

// hit reports whether an access of size bytes at addr hits a region of s:
// a load when k is core.KindLoad, a store otherwise.
func hit(s *core.Service, k core.Kind, addr, size uint32) bool {
	before := s.Stats()
	if k == core.KindLoad {
		s.CheckRead(addr, size)
		return s.Stats().ReadHits > before.ReadHits
	}
	s.CheckWrite(addr, size)
	return s.Stats().Hits > before.Hits
}

func TestBasicAddLookupRemove(t *testing.T) {
	s := core.New()
	if hit(s, core.KindStore, 0x1000, 4) {
		t.Fatal("an empty service must not hit")
	}
	r := core.Region{Addr: 0x1000, Size: 8}
	if err := s.CreateMonitoredRegion(r); err != nil {
		t.Fatal(err)
	}
	for a, want := range map[uint32]bool{0xffc: false, 0x1000: true, 0x1004: true, 0x1008: false} {
		if hit(s, core.KindStore, a, 4) != want {
			t.Errorf("store at %#x: hit must be %v", a, want)
		}
	}
	if err := s.DeleteMonitoredRegion(r); err != nil {
		t.Fatal(err)
	}
	if hit(s, core.KindStore, 0x1000, 4) || s.Regions() != 0 {
		t.Fatal("delete must clear the region")
	}
}

func TestAlignmentErrors(t *testing.T) {
	s := core.New()
	for _, r := range []core.Region{
		{Addr: 0x1001, Size: 4},      // unaligned address
		{Addr: 0x1000, Size: 3},      // not a word multiple
		{Addr: 0x1000, Size: 0},      // empty
		{Addr: 0xFFFF_FFFC, Size: 8}, // past 2^32
	} {
		if s.CreateMonitoredRegion(r) == nil {
			t.Errorf("create %v must fail", r)
		}
	}
}

func TestOverlapRejectedAtomically(t *testing.T) {
	s := core.New()
	if err := s.CreateMonitoredRegion(core.Region{Addr: 0x2000, Size: 16}); err != nil {
		t.Fatal(err)
	}
	if s.CreateMonitoredRegion(core.Region{Addr: 0x1FF8, Size: 16}) == nil {
		t.Fatal("overlapping create must fail")
	}
	if hit(s, core.KindStore, 0x1FF8, 4) || hit(s, core.KindStore, 0x1FFC, 4) || s.Regions() != 1 {
		t.Fatal("a failed create must leave nothing behind")
	}
	if !hit(s, core.KindStore, 0x2000, 4) || !hit(s, core.KindStore, 0x200C, 4) {
		t.Fatal("a failed create must keep the installed region")
	}
}

func TestRemoveUnmonitoredFails(t *testing.T) {
	if core.New().DeleteMonitoredRegion(core.Region{Addr: 0x1000, Size: 4}) == nil {
		t.Fatal("deleting an unmonitored region must fail")
	}
}

func TestAdjacentRegions(t *testing.T) {
	s := core.New()
	a, b := core.Region{Addr: 0x2000, Size: 8}, core.Region{Addr: 0x2008, Size: 8}
	if s.CreateMonitoredRegion(a) != nil || s.CreateMonitoredRegion(b) != nil {
		t.Fatal("adjacent regions must both be accepted")
	}
	if err := s.DeleteMonitoredRegion(a); err != nil {
		t.Fatal(err)
	}
	if hit(s, core.KindStore, 0x2004, 4) || !hit(s, core.KindStore, 0x2008, 4) || !hit(s, core.KindStore, 0x200c, 4) {
		t.Fatal("deleting one adjacent region disturbed its neighbour")
	}
}

func TestContainsAccessDoubleWord(t *testing.T) {
	s := core.New()
	s.CreateMonitoredRegion(core.Region{Addr: 0x1004, Size: 4})
	if !hit(s, core.KindStore, 0x1000, 8) {
		t.Fatal("std spanning a monitored second word must hit")
	}
	if hit(s, core.KindStore, 0x1008, 8) {
		t.Fatal("std past the region must miss")
	}
	if !hit(s, core.KindStore, 0x1004, 4) {
		t.Fatal("st of the monitored word must hit")
	}
}

func TestKindPlanes(t *testing.T) {
	s := core.New()
	r := core.Region{Addr: 0x1000, Size: 8}
	if err := s.CreateMonitoredRegionKind(r, core.KindLoad); err != nil {
		t.Fatal(err)
	}
	if !hit(s, core.KindLoad, 0x1000, 4) || !hit(s, core.KindLoad, 0x1004, 4) || s.RegionKind(r) != core.KindLoad {
		t.Fatal("loads must hit a load-kind region")
	}
	if hit(s, core.KindStore, 0x1000, 4) {
		t.Fatal("stores must not hit a load-only region")
	}
	if !hit(s, core.KindLoad, 0x0FFC, 8) || hit(s, core.KindStore, 0x0FFC, 8) {
		t.Fatal("a doubleword straddling in must hit for loads only")
	}
	if err := s.DeleteMonitoredRegion(r); err != nil {
		t.Fatal(err)
	}
	if hit(s, core.KindLoad, 0x1000, 4) {
		t.Fatal("delete must clear every kind")
	}
	// The kindless create uses the paper's store kind.
	if err := s.CreateMonitoredRegion(core.Region{Addr: 0x2000, Size: 4}); err != nil {
		t.Fatal(err)
	}
	if !hit(s, core.KindStore, 0x2000, 4) || hit(s, core.KindLoad, 0x2000, 4) {
		t.Fatal("kindless create must trigger on stores only")
	}
	for _, k := range []core.Kind{0, 0x80} {
		if s.CreateMonitoredRegionKind(core.Region{Addr: 0x3000, Size: 4}, k) == nil {
			t.Fatalf("kind %#x must be rejected", uint8(k))
		}
	}
}

// TestOracle runs random creates, deletes and word stores over 256 KB
// against a set of monitored words.
func TestOracle(t *testing.T) {
	s := core.New()
	oracle := make(map[uint32]bool)
	var live []core.Region
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 5000; step++ {
		switch rng.Intn(4) {
		case 0:
			r := core.Region{Addr: uint32(rng.Intn(1<<18)) &^ 3, Size: uint32(rng.Intn(16)+1) * 4}
			overlaps := false
			for o := uint32(0); o < r.Size; o += 4 {
				overlaps = overlaps || oracle[r.Addr+o]
			}
			if err := s.CreateMonitoredRegion(r); (err == nil) == overlaps {
				t.Fatalf("step %d: create %v: err = %v, overlap %v", step, r, err, overlaps)
			}
			if !overlaps {
				for o := uint32(0); o < r.Size; o += 4 {
					oracle[r.Addr+o] = true
				}
				live = append(live, r)
			}
		case 1:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			r := live[i]
			if err := s.DeleteMonitoredRegion(r); err != nil {
				t.Fatalf("step %d: delete %v: %v", step, r, err)
			}
			for o := uint32(0); o < r.Size; o += 4 {
				delete(oracle, r.Addr+o)
			}
			live = append(live[:i], live[i+1:]...)
		default:
			addr := uint32(rng.Intn(1<<18)) &^ 3
			if got, want := hit(s, core.KindStore, addr, 4), oracle[addr]; got != want {
				t.Fatalf("step %d: store at %#x hit = %v, oracle %v", step, addr, got, want)
			}
		}
	}
}
