package monitor

import (
	"strings"
	"testing"

	"databreak/internal/asm"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/sparc"
)

func newMachineWithService(t *testing.T, cfg Config) (*machine.Machine, *Service) {
	t.Helper()
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	s, err := NewService(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	return m, s
}

// mustLib generates and parses the monitor library for cfg.
func mustLib(t *testing.T, cfg Config) *asm.Unit {
	t.Helper()
	src, err := LibrarySource(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return asm.MustParse("lib.s", src)
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{{SegWords: 0}, {SegWords: 100}, {SegWords: 16}, {SegWords: 1 << 15}} {
		if bad.Validate() == nil {
			t.Errorf("Config %+v must be invalid", bad)
		}
	}
	if DefaultConfig.Validate() != nil {
		t.Error("DefaultConfig must validate")
	}
	if got := DefaultConfig.SegShift(); got != 9 {
		t.Errorf("SegShift = %d, want 9 for 128 words", got)
	}
	if got := DefaultConfig.SegBytesPerBitmap(); got != 16 {
		t.Errorf("SegBytesPerBitmap = %d, want 16", got)
	}
}

func TestCreateSetsBitsInSimulatedMemory(t *testing.T) {
	m, s := newMachineWithService(t, DefaultConfig)
	addr := machine.DataBase + 0x40
	if err := s.CreateRegion(addr, 8); err != nil {
		t.Fatal(err)
	}
	// The segment table entry must point at a private segment.
	n := addr >> 9
	entry := uint32(m.ReadWord(SegTableBase + n*4))
	if entry < SegArenaBase {
		t.Fatalf("entry = %#x, want arena pointer", entry)
	}
	if !s.Contains(addr) || !s.Contains(addr+4) {
		t.Fatal("created words must be monitored")
	}
	if s.Contains(addr + 8) {
		t.Fatal("word past region must not be monitored")
	}
	if err := s.DeleteRegion(addr, 8); err != nil {
		t.Fatal(err)
	}
	if s.Contains(addr) {
		t.Fatal("deleted words must not be monitored")
	}
}

func TestFlagsEncoding(t *testing.T) {
	cfg := DefaultConfig
	cfg.Flags = true
	m, s := newMachineWithService(t, cfg)
	addr := machine.DataBase + 0x1000
	s.CreateRegion(addr, 4)
	n := addr >> 9
	entry := uint32(m.ReadWord(SegTableBase + n*4))
	if entry&1 == 0 {
		t.Fatal("flags config must set the monitored bit in the entry")
	}
	s.DeleteRegion(addr, 4)
	entry = uint32(m.ReadWord(SegTableBase + n*4))
	if entry&1 != 0 {
		t.Fatal("monitored bit must clear when the last region goes")
	}
}

func TestDisabledFlagTracksRegions(t *testing.T) {
	m, s := newMachineWithService(t, DefaultConfig)
	if m.Reg(sparc.G6) != 1 {
		t.Fatal("disabled flag must start set")
	}
	s.CreateRegion(machine.DataBase, 4)
	if m.Reg(sparc.G6) != 0 {
		t.Fatal("disabled flag must clear when a region exists")
	}
	s.DeleteRegion(machine.DataBase, 4)
	if m.Reg(sparc.G6) != 1 {
		t.Fatal("disabled flag must set when the last region goes")
	}
	s.DisabledOverride = true
	s.CreateRegion(machine.DataBase, 4)
	if m.Reg(sparc.G6) != 1 {
		t.Fatal("DisabledOverride must force the flag on")
	}
}

func TestRegionValidation(t *testing.T) {
	_, s := newMachineWithService(t, DefaultConfig)
	cases := []struct {
		addr, size uint32
		wantErr    string
	}{
		{machine.DataBase + 1, 4, "word aligned"},
		{machine.DataBase, 3, "word aligned"},
		{0x100, 4, "below the program"},
		{SegTableBase + 0x100, 4, "monitor structures"},
	}
	for _, c := range cases {
		err := s.CreateRegion(c.addr, c.size)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("CreateRegion(%#x,%d) err = %v, want %q", c.addr, c.size, err, c.wantErr)
		}
	}
	if err := s.CreateRegion(machine.DataBase, 8); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateRegion(machine.DataBase+4, 4); err == nil {
		t.Fatal("overlapping region must be rejected")
	}
	if err := s.CreateRegion(machine.DataBase, 8); err == nil {
		t.Fatal("duplicate region must be rejected")
	}
	if err := s.DeleteRegion(machine.HeapBase, 4); err == nil {
		t.Fatal("deleting unknown region must be rejected")
	}
}

// TestCheckRegionEnd pins the region bounds check at the top of the address
// space: a region whose end wraps past 2^32 is refused (a 32-bit sum would
// wrap it around the monitor's window), one ending exactly at 2^32 is
// valid. It calls checkRegion directly: CreateRegion of a wrapped region
// would otherwise walk every word of it.
func TestCheckRegionEnd(t *testing.T) {
	_, s := newMachineWithService(t, DefaultConfig)
	cases := []struct {
		addr, size uint32
		wantErr    string // "" when the region is valid
	}{
		{0xF000_0000, 0x9200_0000, "wraps"}, // a 32-bit end of 0x8200_0000 covers SegTableBase
		{0xFFFF_FFF0, 0x20, "wraps"},
		{0xFFFF_FFF0, 0x10, ""}, // ends exactly at 2^32
		{0xF000_0000, 0x1000_0000, ""},
		{SegTableBase - 0x10, 0x20, "monitor structures"},
		{SegTableBase - 0x10, 0x10, ""},
	}
	for _, c := range cases {
		err := s.checkRegion(c.addr, c.size)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("checkRegion(%#x, %#x) = %v, want valid", c.addr, c.size, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("checkRegion(%#x, %#x) = %v, want %q", c.addr, c.size, err, c.wantErr)
		}
	}
}

func TestSegmentMonitoredFlag(t *testing.T) {
	_, s := newMachineWithService(t, DefaultConfig)
	addr := machine.HeapBase + 0x2000
	if s.SegmentMonitored(addr) {
		t.Fatal("fresh segment must be unmonitored")
	}
	s.CreateRegion(addr, 4)
	s.CreateRegion(addr+8, 4)
	s.DeleteRegion(addr, 4)
	if !s.SegmentMonitored(addr) {
		t.Fatal("segment must stay monitored while one region remains")
	}
	s.DeleteRegion(addr+8, 4)
	if s.SegmentMonitored(addr) {
		t.Fatal("segment must return to unmonitored")
	}
}

func TestLibrarySourceAssembles(t *testing.T) {
	for _, cfg := range []Config{
		{SegWords: 128}, {SegWords: 128, Flags: true},
		{SegWords: 32}, {SegWords: 4096, Flags: true},
	} {
		src, err := LibrarySource(cfg)
		if err != nil {
			t.Fatalf("cfg %+v: LibrarySource: %v", cfg, err)
		}
		u, err := asm.Parse("lib.s", src)
		if err != nil {
			t.Fatalf("cfg %+v: library does not parse: %v", cfg, err)
		}
		// Link with a trivial main so labels resolve.
		mainU := asm.MustParse("m.s", "main:\n mov 0, %o0\n ta 0\n")
		if _, err := asm.Assemble(asm.Options{}, mainU, u); err != nil {
			t.Fatalf("cfg %+v: library does not assemble: %v", cfg, err)
		}
	}
}

// TestCheckRoutineAgainstService calls the library's __mrs_check_w directly
// on a grid of addresses and confirms it traps exactly where the Go-side
// service says a monitored word lies.
func TestCheckRoutineAgainstService(t *testing.T) {
	for _, flags := range []bool{false, true} {
		cfg := DefaultConfig
		cfg.Flags = flags
		src := `
main:
	save %sp, -96, %sp
	set probes, %l0
	mov 0, %l1
loop:
	cmp %l1, 8
	bge done
	sll %l1, 2, %o0
	add %l0, %o0, %o0
	ld [%o0], %g5
	call __mrs_check_w
	inc %l1
	ba loop
done:
	mov 0, %i0
	restore
	retl
	.data
probes:
	.word 0x20000000
	.word 0x20000004
	.word 0x20000008
	.word 0x2000000c
	.word 0x40000000
	.word 0x40000100
	.word 0xe0000000
	.word 0x20000200
`
		u := asm.MustParse("p.s", src)
		lib := mustLib(t, cfg)
		prog, err := asm.Assemble(asm.Options{AddStartup: true}, u, lib)
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		prog.Load(m)
		s, err := NewService(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		// Monitor words 1-2 of the probe grid and one far heap word.
		if err := s.CreateRegion(0x2000_0004, 8); err != nil {
			t.Fatal(err)
		}
		if err := s.CreateRegion(0x4000_0100, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("flags=%v: %v", flags, err)
		}
		var got []uint32
		for _, h := range s.Hits {
			got = append(got, h.Addr)
		}
		want := []uint32{0x2000_0004, 0x2000_0008, 0x4000_0100}
		if len(got) != len(want) {
			t.Fatalf("flags=%v: hits = %#v, want %#v", flags, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("flags=%v: hits = %#v, want %#v", flags, got, want)
			}
		}
	}
}

// TestRangeRoutine exercises __mrs_range directly: lo in %g5, hi in %g1,
// site id in %g2.
func TestRangeRoutine(t *testing.T) {
	src := `
main:
	save %sp, -96, %sp
	! probe 1: [0x20000000, 0x20000fff] - contains a monitored word
	set 0x20000000, %g5
	set 0x20000fff, %g1
	mov 11, %g2
	call __mrs_range
	! probe 2: far range with no monitored words
	set 0x60000000, %g5
	set 0x60000fff, %g1
	mov 22, %g2
	call __mrs_range
	! probe 3: large span (level 14) that covers the region
	set 0x20000000, %g5
	set 0x200fffff, %g1
	mov 33, %g2
	call __mrs_range
	! probe 4: huge span (level 19) that covers the region
	set 0x10000000, %g5
	set 0x30000000, %g1
	mov 44, %g2
	call __mrs_range
	mov 0, %i0
	restore
	retl
`
	u := asm.MustParse("p.s", src)
	lib := mustLib(t, DefaultConfig)
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, u, lib)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(m)
	s, err := NewService(DefaultConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	var rangeHits []int32
	m.OnRangeHit = func(id int32) { rangeHits = append(rangeHits, id) }
	if err := s.CreateRegion(0x2000_0800, 16); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int32{11, 33, 44}
	if len(rangeHits) != len(want) {
		t.Fatalf("range hits = %v, want %v", rangeHits, want)
	}
	for i := range want {
		if rangeHits[i] != want[i] {
			t.Fatalf("range hits = %v, want %v", rangeHits, want)
		}
	}
}

// TestLICheckRoutine exercises the loop-invariant pre-header check.
func TestLICheckRoutine(t *testing.T) {
	src := `
main:
	save %sp, -96, %sp
	set 0x20000040, %g5
	mov 5, %g2
	call __mrs_licheck_w
	set 0x20000080, %g5
	mov 6, %g2
	call __mrs_licheck_w
	mov 0, %i0
	restore
	retl
`
	u := asm.MustParse("p.s", src)
	lib := mustLib(t, DefaultConfig)
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, u, lib)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(m)
	s, _ := NewService(DefaultConfig, m)
	var ids []int32
	m.OnRangeHit = func(id int32) { ids = append(ids, id) }
	s.CreateRegion(0x2000_0040, 4)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 5 {
		t.Fatalf("LI check ids = %v, want [5]", ids)
	}
	if len(s.Hits) != 0 {
		t.Fatal("LI pre-header check must not report a monitor hit")
	}
}

func TestHitsRecordContext(t *testing.T) {
	m, s := newMachineWithService(t, DefaultConfig)
	u := asm.MustParse("p.s", `
main:
	save %sp, -96, %sp
	set 0x20000000, %o0
	st %g0, [%o0]
	set 0x20000000, %g5
	call __mrs_check_w
	mov 0, %i0
	restore
	retl
`)
	lib := mustLib(t, DefaultConfig)
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, u, lib)
	if err != nil {
		t.Fatal(err)
	}
	prog.Load(m)
	s.Reinstall()
	s.CreateRegion(0x2000_0000, 4)
	var observed int
	s.OnHit = func(h Hit) { observed++ }
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.Hits) != 1 || observed != 1 {
		t.Fatalf("hits = %d observed = %d", len(s.Hits), observed)
	}
	h := s.Hits[0]
	if h.Addr != 0x2000_0000 || h.Size != 4 || h.Instrs == 0 {
		t.Fatalf("hit = %+v", h)
	}
}
