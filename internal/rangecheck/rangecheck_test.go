// Package rangecheck held the §4.3 range-check index: stacked summary
// bitmaps that answered core's CheckRange conservatively. Core now keeps its
// regions sorted by address and answers ranges exactly; the index's tests
// stay here and run against core.
package rangecheck

import (
	"math/rand"
	"testing"

	"databreak/internal/core"
)

func TestEmptyIndexNeverIntersects(t *testing.T) {
	if core.New().CheckRange(0, 0xFFFF_FFFF) {
		t.Fatal("a service without regions must not intersect anything")
	}
}

func TestExactIntersection(t *testing.T) {
	s := core.New()
	if err := s.CreateMonitoredRegion(core.Region{Addr: 0x10000, Size: 64}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		lo, hi uint32
		want   bool
	}{
		{0x10000, 0x1003F, true}, // the region itself
		{0, 0xFFFF_FFFF, true},
		{0x1003C, 0x20000, true},  // touches the region's last word
		{0x10040, 0x20000, false}, // starts just past it
		{0, 0xFFFF, false},        // ends just before it
	} {
		if got := s.CheckRange(c.lo, c.hi); got != c.want {
			t.Errorf("CheckRange(%#x, %#x) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}

// TestNoFalseNegatives checks random ranges against fifty random regions.
// CheckRange is exact, so it must report a hit exactly when one exists.
func TestNoFalseNegatives(t *testing.T) {
	s := core.New()
	rng := rand.New(rand.NewSource(7))
	var regions []core.Region
	for len(regions) < 50 {
		r := core.Region{Addr: uint32(rng.Intn(1<<26)) &^ 3, Size: uint32(rng.Intn(64)+1) * 4}
		if s.CreateMonitoredRegion(r) == nil {
			regions = append(regions, r)
		}
	}
	for trial := 0; trial < 2000; trial++ {
		lo := uint32(rng.Intn(1 << 26))
		hi := lo + uint32(rng.Intn(1<<20))
		want := false
		for _, r := range regions {
			want = want || r.Addr <= hi && lo < r.End()
		}
		if got := s.CheckRange(lo, hi); got != want {
			t.Fatalf("CheckRange(%#x, %#x) = %v, want %v", lo, hi, got, want)
		}
	}
}

func TestRemoveRestoresEmpty(t *testing.T) {
	s := core.New()
	a, b := core.Region{Addr: 0x5000, Size: 32}, core.Region{Addr: 0x5100, Size: 32}
	if s.CreateMonitoredRegion(a) != nil || s.CreateMonitoredRegion(b) != nil || s.DeleteMonitoredRegion(a) != nil {
		t.Fatal("create a, create b, delete a must succeed")
	}
	if s.CheckRange(0x5000, 0x501F) || !s.CheckRange(0x5100, 0x511F) {
		t.Fatal("only the remaining region may intersect")
	}
	if err := s.DeleteMonitoredRegion(b); err != nil {
		t.Fatal(err)
	}
	if s.CheckRange(0, 0xFFFF_FFFF) {
		t.Fatal("after deleting every region nothing may intersect")
	}
}

func TestRemoveUnknownFails(t *testing.T) {
	s := core.New()
	if s.DeleteMonitoredRegion(core.Region{Addr: 0x1000, Size: 4}) == nil {
		t.Fatal("deleting an absent region must fail")
	}
	s.CreateMonitoredRegion(core.Region{Addr: 0x1000, Size: 8})
	if s.DeleteMonitoredRegion(core.Region{Addr: 0x1000, Size: 16}) == nil || s.Regions() != 1 {
		t.Fatal("deleting with wrong bounds must fail and keep the region")
	}
}

func TestAlignmentValidation(t *testing.T) {
	s := core.New()
	if s.CreateMonitoredRegion(core.Region{Addr: 0x1001, Size: 4}) == nil {
		t.Fatal("unaligned create must fail")
	}
	if s.CreateMonitoredRegion(core.Region{Addr: 0x1000, Size: 5}) == nil {
		t.Fatal("non-word size must fail")
	}
}

func TestReversedBoundsNormalized(t *testing.T) {
	s := core.New()
	s.CreateMonitoredRegion(core.Region{Addr: 0x2000, Size: 4})
	if !s.CheckRange(0x3000, 0x1000) {
		t.Fatal("reversed bounds must be normalized")
	}
}
