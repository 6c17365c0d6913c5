package core

import (
	"math/rand"
	"slices"
	"testing"
)

func TestCreateCheckDelete(t *testing.T) {
	var hits []uint32
	s := New(WithCallback(func(addr, size uint32) { hits = append(hits, addr) }))
	if !s.Disabled() {
		t.Fatal("fresh service must be disabled")
	}
	r := Region{Addr: 0x1000, Size: 8}
	if err := s.CreateMonitoredRegion(r); err != nil {
		t.Fatal(err)
	}
	if s.Disabled() || s.Regions() != 1 {
		t.Fatal("service must be enabled with one region")
	}
	s.CheckWrite(0x1004, 4) // hit
	s.CheckWrite(0x1008, 4) // miss
	s.CheckWrite(0x0ffc, 8) // double word straddling into region: hit
	if len(hits) != 2 || hits[0] != 0x1004 || hits[1] != 0x0ffc {
		t.Fatalf("hits = %#v", hits)
	}
	if err := s.DeleteMonitoredRegion(r); err != nil {
		t.Fatal(err)
	}
	s.CheckWrite(0x1004, 4)
	if len(hits) != 2 {
		t.Fatal("deleted region must not hit")
	}
	st := s.Stats()
	if st.Checks != 4 || st.Hits != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestDuplicateAndUnknownRegions(t *testing.T) {
	s := New()
	r := Region{Addr: 0x2000, Size: 4}
	if err := s.CreateMonitoredRegion(r); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateMonitoredRegion(r); err == nil {
		t.Fatal("duplicate create must fail")
	}
	if err := s.CreateMonitoredRegion(Region{Addr: 0x2000, Size: 8}); err == nil {
		t.Fatal("overlapping create must fail")
	}
	if err := s.DeleteMonitoredRegion(Region{Addr: 0x3000, Size: 4}); err == nil {
		t.Fatal("deleting unknown region must fail")
	}
}

// TestCreateErrors pins create's validation. A refused region leaves the
// service empty.
func TestCreateErrors(t *testing.T) {
	for _, c := range []struct {
		r  Region
		k  Kind
		ok bool
	}{
		{Region{Addr: 0x1002, Size: 4}, KindStore, false}, // unaligned address
		{Region{Addr: 0x1000, Size: 0}, KindStore, false},
		{Region{Addr: 0x1000, Size: 3}, KindStore, false},
		{Region{Addr: 0xFFFF_FFFC, Size: 8}, KindStore, false}, // past 2^32
		{Region{Addr: 0x1000, Size: 4}, 0, false},
		{Region{Addr: 0x1000, Size: 4}, 4, false},
		{Region{Addr: 0xFFFF_FFFC, Size: 4}, KindStore, true}, // ends at 2^32
	} {
		s := New()
		err := s.CreateMonitoredRegionKind(c.r, c.k)
		if (err == nil) != c.ok || s.Disabled() == c.ok {
			t.Errorf("create %v kind %v: err = %v, disabled = %v", c.r, c.k, err, s.Disabled())
		}
	}
}

// TestRandomTrafficMatchesWordModel drives the service with seeded random
// creates, deletes and checks, and compares every answer with a model that
// maps each monitored word to its region's kind. Addresses fall in a
// 256-byte window straddling 2^32, so regions end at the top of the address
// space and accesses wrap past it. Creates outnumber deletes two to one,
// which keeps the window crowded: accesses then straddle monitored and
// unmonitored words, and creates collide with installed regions.
func TestRandomTrafficMatchesWordModel(t *testing.T) {
	const base, span = 0xFFFF_FF80, 256
	rng := rand.New(rand.NewSource(1))
	addr := func() uint32 { return base + uint32(rng.Intn(span)) }

	calls := 0
	s := New(WithCallback(func(uint32, uint32) { calls++ }))
	words := map[uint32]Kind{} // monitored word -> its region's kind
	var regions []Region       // live regions, in creation order
	var want Stats

	wordsOf := func(r Region) []uint32 {
		var ws []uint32
		for a := uint64(r.Addr); a < uint64(r.Addr)+uint64(r.Size); a += 4 {
			ws = append(ws, uint32(a))
		}
		return ws
	}
	// touches reports whether a size-byte access at a touches a word
	// monitored for a kind in k, judged one byte at a time.
	touches := func(a, size uint32, k Kind) bool {
		for i := uint32(0); i < size; i++ {
			if words[(a+i)&^3]&k != 0 {
				return true
			}
		}
		return false
	}

	for step := 0; step < 10000; step++ {
		switch op := rng.Intn(10); {
		case op < 2: // create, valid or not
			r := Region{Addr: addr(), Size: uint32(rng.Intn(9)) * 4}
			if rng.Intn(4) != 0 {
				r.Addr &^= 3
			}
			if rng.Intn(8) == 0 {
				r.Size += uint32(1 + rng.Intn(3))
			}
			k := Kind(1 + rng.Intn(3))
			if rng.Intn(10) == 0 {
				k = Kind(4 * rng.Intn(2)) // 0 or 4
			}
			ok := (k == KindStore || k == KindLoad || k == KindAll) && r.Addr%4 == 0 && r.Size != 0 && r.Size%4 == 0 &&
				uint64(r.Addr)+uint64(r.Size) <= 1<<32
			if ok {
				for _, w := range wordsOf(r) {
					ok = ok && words[w] == 0
				}
			}
			if err := s.CreateMonitoredRegionKind(r, k); (err == nil) != ok {
				t.Fatalf("step %d: create %v kind %v: err = %v, want success %v", step, r, k, err, ok)
			}
			if ok {
				for _, w := range wordsOf(r) {
					words[w] = k
				}
				regions = append(regions, r)
			}
		case op < 3: // delete a live region, or bounds that are mostly unknown
			r := Region{Addr: addr() &^ 3, Size: uint32(1+rng.Intn(8)) * 4}
			if len(regions) > 0 && rng.Intn(4) != 0 {
				r = regions[rng.Intn(len(regions))]
			}
			i := slices.Index(regions, r)
			k := Kind(0)
			if i >= 0 {
				k = words[r.Addr]
			}
			if got := s.RegionKind(r); got != k {
				t.Fatalf("step %d: RegionKind(%v) = %v, want %v", step, r, got, k)
			}
			if err := s.DeleteMonitoredRegion(r); (err == nil) != (i >= 0) {
				t.Fatalf("step %d: delete %v: err = %v, want success %v", step, r, err, i >= 0)
			}
			if i >= 0 {
				regions = slices.Delete(regions, i, i+1)
				for _, w := range wordsOf(r) {
					delete(words, w)
				}
			}
		case op < 8: // a write or read of 1, 2, 4 or 8 bytes at any byte
			a, size := addr(), uint32(1)<<rng.Intn(4)
			before := calls
			k := KindStore
			if op < 6 {
				s.CheckWrite(a, size)
				want.Checks++
			} else {
				k = KindLoad
				s.CheckRead(a, size)
				want.ReadChecks++
			}
			hit := touches(a, size, k)
			switch {
			case hit && k == KindStore:
				want.Hits++
			case hit:
				want.ReadHits++
			}
			if got := calls > before; got != hit {
				t.Fatalf("step %d: %v check of %d bytes at %#x: hit = %v, want %v", step, k, size, a, got, hit)
			}
		default: // a range, its bounds in either order
			lo, hi := addr(), addr()
			got := s.CheckRange(lo, hi)
			want.RangeChecks++
			if got {
				want.RangeHits++
			}
			lo, hi = min(lo, hi), max(lo, hi)
			for w := range words {
				if w <= hi && w+3 >= lo && !got {
					t.Fatalf("step %d: CheckRange(%#x, %#x) missed the word at %#x", step, lo, hi, w)
				}
			}
		}
		if s.Regions() != len(regions) || s.Disabled() != (len(regions) == 0) || s.Stats() != want {
			t.Fatalf("step %d: Regions = %d, Disabled = %v, Stats = %+v; want %d regions, stats %+v",
				step, s.Regions(), s.Disabled(), s.Stats(), len(regions), want)
		}
	}
}

func TestCheckRange(t *testing.T) {
	s := New()
	if s.CheckRange(0, 0xFFFF_FFFF) {
		t.Fatal("disabled service must report no range hits")
	}
	s.CreateMonitoredRegion(Region{Addr: 0x8000, Size: 16})
	if !s.CheckRange(0x8000, 0x800F) {
		t.Fatal("exact range must intersect")
	}
	if s.CheckRange(0x4000_0000, 0x4000_1000) {
		t.Fatal("far range must not intersect")
	}
	if s.CheckRange(0x8010, 0x81FF) {
		t.Fatal("range just past the region must not intersect")
	}
	st := s.Stats()
	if st.RangeChecks != 4 || st.RangeHits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

type fakePatcher struct {
	inserted []string
	removed  []string
}

func (p *fakePatcher) InsertChecks(sym string) { p.inserted = append(p.inserted, sym) }
func (p *fakePatcher) RemoveChecks(sym string) { p.removed = append(p.removed, sym) }

func TestPreMonitorPatchesBeforeCreate(t *testing.T) {
	p := &fakePatcher{}
	var sawRegion bool
	s := New(WithPatcher(p))
	s.SetCallback(func(addr, size uint32) { sawRegion = true })

	r := Region{Addr: 0x5000, Size: 4}
	if err := s.PreMonitor("x", r); err != nil {
		t.Fatal(err)
	}
	if len(p.inserted) != 1 || p.inserted[0] != "x" {
		t.Fatalf("patcher inserted = %v", p.inserted)
	}
	s.CheckWrite(0x5000, 4)
	if !sawRegion {
		t.Fatal("region from PreMonitor must be live")
	}
	if err := s.PreMonitor("x", r); err == nil {
		t.Fatal("double PreMonitor of one symbol must fail")
	}
	if err := s.PostMonitor("x"); err != nil {
		t.Fatal(err)
	}
	if len(p.removed) != 1 {
		t.Fatalf("patcher removed = %v", p.removed)
	}
	if err := s.PostMonitor("x"); err == nil {
		t.Fatal("PostMonitor of unmonitored symbol must fail")
	}
}

func TestPreMonitorRollsBackOnBadRegion(t *testing.T) {
	p := &fakePatcher{}
	s := New(WithPatcher(p))
	s.CreateMonitoredRegion(Region{Addr: 0x1000, Size: 8})
	// Overlapping region: PreMonitor must fail and disarm the patches.
	if err := s.PreMonitor("y", Region{Addr: 0x1004, Size: 8}); err == nil {
		t.Fatal("overlapping PreMonitor must fail")
	}
	if len(p.inserted) != 1 || len(p.removed) != 1 {
		t.Fatalf("patcher must be rolled back: %+v", p)
	}
}

func TestRegionString(t *testing.T) {
	r := Region{Addr: 0x1000, Size: 8}
	if got := r.String(); got != "[0x1000,+8)" {
		t.Fatalf("String = %q", got)
	}
	if r.End() != 0x1008 {
		t.Fatalf("End = %#x", r.End())
	}
}

func TestNilCallbackSafe(t *testing.T) {
	s := New()
	s.SetCallback(nil)
	s.CreateMonitoredRegion(Region{Addr: 0x1000, Size: 4})
	s.CheckWrite(0x1000, 4) // must not panic
}

func BenchmarkCheckWriteDisabled(b *testing.B) {
	s := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CheckWrite(0x1000, 4)
	}
}

func BenchmarkCheckWriteMiss(b *testing.B) {
	s := New()
	s.CreateMonitoredRegion(Region{Addr: 0x9000_0000, Size: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CheckWrite(uint32(i%65536)*4, 4)
	}
}
