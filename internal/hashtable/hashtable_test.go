// Package hashtable held the hash-table region lookup from Wahbe's pilot
// study, once an alternative back end of core. Core now keeps one sorted
// region list; the table's tests stay here and run against core.
package hashtable

import (
	"math/rand"
	"testing"

	"databreak/internal/core"
)

// hits reports whether a store of size bytes at addr hits a region of s.
func hits(s *core.Service, addr, size uint32) bool {
	n := s.Stats().Hits
	s.CheckWrite(addr, size)
	return s.Stats().Hits > n
}

func TestBasicAddContainsRemove(t *testing.T) {
	s := core.New()
	if hits(s, 0x1000, 4) {
		t.Fatal("an empty service must not hit")
	}
	r := core.Region{Addr: 0x1000, Size: 8}
	if err := s.CreateMonitoredRegion(r); err != nil {
		t.Fatal(err)
	}
	if !hits(s, 0x1000, 4) || !hits(s, 0x1004, 4) {
		t.Fatal("created words must hit")
	}
	if hits(s, 0x1008, 4) || hits(s, 0xffc, 4) {
		t.Fatal("neighbours must not hit")
	}
	if err := s.DeleteMonitoredRegion(r); err != nil {
		t.Fatal(err)
	}
	if hits(s, 0x1000, 4) || s.Regions() != 0 {
		t.Fatal("delete must clear the region")
	}
}

func TestOverlapRejected(t *testing.T) {
	s := core.New()
	s.CreateMonitoredRegion(core.Region{Addr: 0x2000, Size: 16})
	if s.CreateMonitoredRegion(core.Region{Addr: 0x2008, Size: 8}) == nil {
		t.Fatal("overlapping region must be rejected")
	}
	if s.CreateMonitoredRegion(core.Region{Addr: 0x1FF8, Size: 16}) == nil {
		t.Fatal("straddling region must be rejected")
	}
}

func TestRemoveUnknownFails(t *testing.T) {
	if core.New().DeleteMonitoredRegion(core.Region{Addr: 0x1000, Size: 4}) == nil {
		t.Fatal("deleting an absent region must fail")
	}
}

func TestContainsAccess(t *testing.T) {
	s := core.New()
	s.CreateMonitoredRegion(core.Region{Addr: 0x1004, Size: 4})
	if !hits(s, 0x1000, 8) {
		t.Fatal("double-word store overlapping region must hit")
	}
	if hits(s, 0x1008, 8) {
		t.Fatal("store past region must miss")
	}
}

// TestOracle runs random creates, deletes and word stores over 64 KB
// against a set of monitored words.
func TestOracle(t *testing.T) {
	s := core.New()
	oracle := make(map[uint32]bool)
	var live []core.Region
	rng := rand.New(rand.NewSource(2))
	for step := 0; step < 3000; step++ {
		switch rng.Intn(4) {
		case 0:
			r := core.Region{Addr: uint32(rng.Intn(1<<16)) &^ 3, Size: uint32(rng.Intn(20)+1) * 4}
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
			addr := uint32(rng.Intn(1<<16)) &^ 3
			if got, want := hits(s, addr, 4), oracle[addr]; got != want {
				t.Fatalf("step %d: store at %#x hit = %v, oracle %v", step, addr, got, want)
			}
		}
	}
}
