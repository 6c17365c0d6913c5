package patch

import (
	"testing"

	"databreak/internal/asm"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/monitor"
	"databreak/internal/sparc"
)

// buildAndRun patches src with the strategy, assembles, attaches a monitor
// service, creates the given regions, runs, and returns machine + service +
// program.
func buildAndRun(t *testing.T, src string, strat Strategy, regions [][2]uint32) (*machine.Machine, *monitor.Service, *asm.Program) {
	t.Helper()
	u, err := asm.Parse("prog.s", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Apply(Options{Strategy: strat}, u)
	if err != nil {
		t.Fatalf("patch: %v", err)
	}
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(m)
	cfg := monitor.DefaultConfig
	if strat == Cache || strat == CacheInline {
		cfg.Flags = true
	}
	svc, err := monitor.NewService(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regions {
		if err := svc.CreateRegion(r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run (%v): %v", strat, err)
	}
	return m, svc, prog
}

// progGlobalStores writes 0..9 into a global array, then writes one word
// into a second global.
const progGlobalStores = `
main:
	save %sp, -96, %sp
	mov 0, %l0
	set arr, %l1
loop:
	cmp %l0, 10
	bge done
	sll %l0, 2, %o0
	add %l1, %o0, %o0
	st %l0, [%o0]
	inc %l0
	ba loop
done:
	set target, %o1
	mov 77, %o2
	st %o2, [%o1]
	mov 0, %i0
	restore
	retl
	.data
arr:	.space 40
target:	.word 0
`

var allCheckStrategies = []Strategy{
	Bitmap, BitmapInline, BitmapInlineRegisters, Cache, CacheInline,
}

func targetAddr(t *testing.T, prog *asm.Program) uint32 {
	t.Helper()
	a, ok := prog.DataLabels["target"]
	if !ok {
		t.Fatal("no target label")
	}
	return a
}

func TestEveryStrategyDetectsHit(t *testing.T) {
	for _, strat := range allCheckStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			// target = DataBase + 40.
			m, svc, prog := buildAndRun(t, progGlobalStores, strat,
				[][2]uint32{{machine.DataBase + 40, 4}})
			want := targetAddr(t, prog)
			if len(svc.Hits) != 1 {
				t.Fatalf("hits = %d, want 1 (%v)", len(svc.Hits), svc.Hits)
			}
			if svc.Hits[0].Addr != want || svc.Hits[0].Size != 4 {
				t.Fatalf("hit = %+v, want addr %#x", svc.Hits[0], want)
			}
			if m.ReadWord(want) != 77 {
				t.Fatal("store must still have executed")
			}
		})
	}
}

func TestEveryStrategyNoFalseHits(t *testing.T) {
	for _, strat := range allCheckStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			// Monitor an address the program never writes.
			_, svc, _ := buildAndRun(t, progGlobalStores, strat,
				[][2]uint32{{machine.HeapBase + 0x1000, 4}})
			if len(svc.Hits) != 0 {
				t.Fatalf("unexpected hits: %+v", svc.Hits)
			}
		})
	}
}

func TestHitInsideMonitoredArray(t *testing.T) {
	for _, strat := range allCheckStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			// Monitor arr[4..5]: exactly two of the ten loop stores hit.
			_, svc, _ := buildAndRun(t, progGlobalStores, strat,
				[][2]uint32{{machine.DataBase + 16, 8}})
			if len(svc.Hits) != 2 {
				t.Fatalf("hits = %d, want 2: %+v", len(svc.Hits), svc.Hits)
			}
		})
	}
}

func TestStackWriteDetection(t *testing.T) {
	src := `
main:
	save %sp, -96, %sp
	mov 5, %o0
	st %o0, [%fp-16]
	mov 0, %i0
	restore
	retl
`
	for _, strat := range allCheckStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			// First run unmonitored to learn the frame address, then
			// monitor the slot and re-run.
			u := asm.MustParse("p.s", src)
			res, err := Apply(Options{Strategy: strat}, u)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
			prog.Load(m)
			cfg := monitor.DefaultConfig
			cfg.Flags = strat == Cache || strat == CacheInline
			svc, err := monitor.NewService(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			// Frame: sp starts at StackTop; main's fp = StackTop.
			slot := machine.StackTop - 16
			if err := svc.CreateRegion(slot, 4); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if len(svc.Hits) != 1 || svc.Hits[0].Addr != slot {
				t.Fatalf("hits = %+v, want one at %#x", svc.Hits, slot)
			}
		})
	}
}

func TestDoubleWordChecks(t *testing.T) {
	src := `
main:
	save %sp, -104, %sp
	mov 1, %o0
	mov 2, %o1
	std %o0, [%fp-32]
	mov 0, %i0
	restore
	retl
`
	for _, strat := range allCheckStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			u := asm.MustParse("p.s", src)
			res, err := Apply(Options{Strategy: strat}, u)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
			prog.Load(m)
			cfg := monitor.DefaultConfig
			cfg.Flags = strat == Cache || strat == CacheInline
			svc, _ := monitor.NewService(cfg, m)
			// Monitor only the SECOND word of the std.
			slot := machine.StackTop - 28
			if err := svc.CreateRegion(slot, 4); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if len(svc.Hits) != 1 || svc.Hits[0].Size != 8 {
				t.Fatalf("hits = %+v, want one 8-byte hit", svc.Hits)
			}
		})
	}
}

func TestDisabledFlagSkipsChecks(t *testing.T) {
	// With no regions, the disabled flag is set and checks must be skipped:
	// the "checks" counter counts preludes, but no monitor traps can fire
	// and cache counters must stay zero.
	u := asm.MustParse("p.s", progGlobalStores)
	res, err := Apply(Options{Strategy: Cache}, u)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(m)
	cfg := monitor.DefaultConfig
	cfg.Flags = true
	svc, _ := monitor.NewService(cfg, m)
	_ = svc
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := prog.Counter(m, CounterWrites); got != 11 {
		t.Fatalf("writes counter = %d, want 11", got)
	}
	if got := prog.Counter(m, CacheTotalCounter(WriteBSS)); got != 0 {
		t.Fatalf("cache body ran %d times while disabled", got)
	}
}

func TestCountersTrackWritesAndChecks(t *testing.T) {
	m, _, prog := buildAndRun(t, progGlobalStores, Bitmap,
		[][2]uint32{{machine.DataBase + 40, 4}})
	if got := prog.Counter(m, CounterWrites); got != 11 {
		t.Fatalf("writes = %d, want 11", got)
	}
	if got := prog.Counter(m, CounterChecks); got != 11 {
		t.Fatalf("checks = %d, want 11", got)
	}
}

func TestSegmentCacheLocality(t *testing.T) {
	// Ten successive stores to one array share a segment: with segment
	// caching almost all checks must hit the cache (at most one miss per
	// segment transition). The loop's computed-pointer stores classify as
	// HEAP (the base register's def crosses a block boundary).
	m, _, prog := buildAndRun(t, progGlobalStores, Cache,
		[][2]uint32{{machine.HeapBase, 4}}) // far-away region
	var total, miss uint64
	for _, wt := range []WriteType{WriteStack, WriteBSS, WriteHeap, WriteBSSVar} {
		total += prog.Counter(m, CacheTotalCounter(wt))
		miss += prog.Counter(m, CacheMissCounter(wt))
	}
	if total < 11 {
		t.Fatalf("cache total = %d, want >= 11", total)
	}
	if miss > 3 {
		t.Fatalf("cache misses = %d, want <= 3 (hits=%d)", miss, total-miss)
	}
}

func TestOverheadOrdering(t *testing.T) {
	// Baseline < any checked variant; reserved registers beats plain
	// inline; the segment cache beats plain bitmap on this loopy program.
	cycles := map[Strategy]int64{}
	for _, strat := range append([]Strategy{None}, allCheckStrategies...) {
		m, _, _ := buildAndRun(t, progGlobalStores, strat,
			[][2]uint32{{machine.HeapBase, 4}})
		cycles[strat] = m.Cycles()
	}
	if cycles[None] >= cycles[Bitmap] {
		t.Fatalf("baseline %d must be cheaper than Bitmap %d", cycles[None], cycles[Bitmap])
	}
	if cycles[BitmapInlineRegisters] >= cycles[BitmapInline] {
		t.Fatalf("registers %d must beat window-pushing inline %d",
			cycles[BitmapInlineRegisters], cycles[BitmapInline])
	}
	if cycles[Cache] >= cycles[Bitmap] {
		t.Fatalf("cache %d must beat call-based bitmap %d", cycles[Cache], cycles[Bitmap])
	}
}

func TestNopsStrategy(t *testing.T) {
	u := asm.MustParse("p.s", progGlobalStores)
	res, err := Apply(Options{Strategy: Nops, Nops: 4}, u)
	if err != nil {
		t.Fatal(err)
	}
	var nops, stores int
	for _, it := range res.Units[0].Items {
		if it.Kind != asm.ItemInstr {
			continue
		}
		if it.Instr.Op.IsStore() {
			stores++
		}
		if it.Instr == (asm.MustParse("x", "nop").Items[0].Instr) {
			nops++
		}
	}
	if stores != 2 || nops != 8 {
		t.Fatalf("stores=%d nops=%d, want 2 and 8", stores, nops)
	}
}

func TestReservedRegisterRejected(t *testing.T) {
	u := asm.MustParse("p.s", `
main:
	st %g5, [%fp-8]
	mov 0, %o0
	ta 0
`)
	if _, err := Apply(Options{Strategy: Bitmap}, u); err == nil {
		t.Fatal("store using a reserved register must be rejected")
	}
}

func TestWriteTypeClassification(t *testing.T) {
	src := `
main:
	save %sp, -96, %sp
	st %g0, [%fp-8]       ! STACK
	st %g0, [%sp+64]      ! STACK
	set g, %o0
	st %g0, [%o0]         ! BSS
	mov 16, %o0
	ta 4
	st %g0, [%o0]         ! HEAP (pointer from alloc result; o0 defined by trap -> unknown -> heap)
	set g, %o1
	sll %l0, 2, %o2
	add %o1, %o2, %o3
	st %g0, [%o3]         ! BSSVAR (computed from a set base)
	mov 0, %i0
	restore
	retl
	.data
g:	.space 64
`
	u := asm.MustParse("p.s", src)
	res, err := Apply(Options{Strategy: Cache}, u)
	if err != nil {
		t.Fatal(err)
	}
	want := map[WriteType]int{WriteStack: 2, WriteBSS: 1, WriteHeap: 1, WriteBSSVar: 1}
	for wt, n := range want {
		if res.TypeCounts[wt] != n {
			t.Errorf("%v count = %d, want %d (all: %v)", wt, res.TypeCounts[wt], n, res.TypeCounts)
		}
	}
	if res.StaticWrites != 5 {
		t.Errorf("static writes = %d, want 5", res.StaticWrites)
	}
}

func TestCheckInProgressFlagCleared(t *testing.T) {
	// After a run with call-based checks, %g7 must be clear again.
	m, _, _ := buildAndRun(t, progGlobalStores, Bitmap,
		[][2]uint32{{machine.DataBase + 40, 4}})
	if m.Reg(7) != 0 { // %g7
		t.Fatal("check-in-progress flag left set")
	}
}

const progReads = `
main:
	save %sp, -96, %sp
	set cells, %l0
	mov 5, %o0
	st %o0, [%l0]       ! write cells[0]
	ld [%l0], %o1       ! read cells[0]
	ld [%l0+4], %o2     ! read cells[1]
	add %o1, %o2, %i0
	restore
	retl
	.data
cells:	.word 0
	.word 37
`

func TestReadCheckingDetectsReads(t *testing.T) {
	for _, strat := range allCheckStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			u := asm.MustParse("p.s", progReads)
			res, err := Apply(Options{Strategy: strat, CheckReads: true}, u)
			if err != nil {
				t.Fatal(err)
			}
			if res.StaticReads != 2 {
				t.Fatalf("static reads = %d, want 2", res.StaticReads)
			}
			prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
			prog.Load(m)
			cfg := monitor.DefaultConfig
			cfg.Flags = strat == Cache || strat == CacheInline
			svc, err := monitor.NewService(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			// Monitor cells[0]: one write hit and one read hit expected;
			// the read of cells[1] must not hit.
			if err := svc.CreateRegion(machine.DataBase, 4); err != nil {
				t.Fatal(err)
			}
			code, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if code != 42 {
				t.Fatalf("exit = %d, want 42", code)
			}
			var reads, writes int
			for _, h := range svc.Hits {
				if h.Addr != machine.DataBase {
					t.Fatalf("hit at wrong address %#x", h.Addr)
				}
				if h.Read {
					reads++
				} else {
					writes++
				}
			}
			if reads != 1 || writes != 1 {
				t.Fatalf("reads=%d writes=%d, want 1 and 1 (%+v)", reads, writes, svc.Hits)
			}
			if got := prog.Counter(m, CounterReads); got != 2 {
				t.Fatalf("reads counter = %d, want 2", got)
			}
		})
	}
}

func TestReadCheckingCostsMoreThanWriteOnly(t *testing.T) {
	// §5: reads outnumber writes 2-3x, so read+write monitoring must cost
	// measurably more than write-only.
	run := func(reads bool) int64 {
		u := asm.MustParse("p.s", progReads)
		res, err := Apply(Options{Strategy: BitmapInlineRegisters, CheckReads: reads}, u)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
		if err != nil {
			t.Fatal(err)
		}
		m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		prog.Load(m)
		svc, _ := monitor.NewService(monitor.DefaultConfig, m)
		if err := svc.CreateRegion(machine.HeapBase, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		return m.Cycles()
	}
	writeOnly := run(false)
	both := run(true)
	if both <= writeOnly {
		t.Fatalf("read+write (%d cycles) must exceed write-only (%d)", both, writeOnly)
	}
}

// progClobberRead chases a pointer: the first load overwrites its own
// address register with the loaded value ("ld [%o1], %o1"), so its check
// cannot recompute the effective address after the load executes.
const progClobberRead = `
main:
	save %sp, -96, %sp
	set ptr, %o1
	ld [%o1], %o1       ! read ptr; rd clobbers rs1
	ld [%o1], %i0       ! read cells (non-clobbering)
	restore
	retl
	.data
cells:	.word 42
ptr:	.word cells
`

// A load whose destination is one of its own address registers must be
// checked before it executes; checked after, the recomputed address is the
// loaded value, so monitored reads are silently missed (and unrelated
// addresses can false-hit). Regression test for exactly that bug.
func TestReadCheckClobberedAddressRegister(t *testing.T) {
	for _, strat := range allCheckStrategies {
		strat := strat
		t.Run(strat.String(), func(t *testing.T) {
			u := asm.MustParse("p.s", progClobberRead)
			res, err := Apply(Options{Strategy: strat, CheckReads: true}, u)
			if err != nil {
				t.Fatal(err)
			}
			if res.StaticReads != 2 {
				t.Fatalf("static reads = %d, want 2", res.StaticReads)
			}
			prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
			prog.Load(m)
			cfg := monitor.DefaultConfig
			cfg.Flags = strat == Cache || strat == CacheInline
			svc, err := monitor.NewService(cfg, m)
			if err != nil {
				t.Fatal(err)
			}
			// Monitor both words; each load must report its true address.
			ptrAddr, ok := prog.DataLabels["ptr"]
			if !ok {
				t.Fatal("no ptr label")
			}
			cellsAddr, ok := prog.DataLabels["cells"]
			if !ok {
				t.Fatal("no cells label")
			}
			if err := svc.CreateRegion(ptrAddr, 4); err != nil {
				t.Fatal(err)
			}
			if err := svc.CreateRegion(cellsAddr, 4); err != nil {
				t.Fatal(err)
			}
			code, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if code != 42 {
				t.Fatalf("exit = %d, want 42", code)
			}
			hits := map[uint32]int{}
			for _, h := range svc.Hits {
				if !h.Read {
					t.Fatalf("unexpected write hit at %#x", h.Addr)
				}
				hits[h.Addr]++
			}
			if hits[ptrAddr] != 1 || hits[cellsAddr] != 1 || len(hits) != 2 {
				t.Fatalf("read hits = %v, want one at ptr %#x and one at cells %#x",
					hits, ptrAddr, cellsAddr)
			}
		})
	}
}

func TestLoadClobbersAddress(t *testing.T) {
	ld := func(rs1, rs2, rd sparc.Reg, imm bool) sparc.Instr {
		return sparc.Instr{Op: sparc.Ld, Rs1: rs1, Rs2: rs2, Rd: rd, UseImm: imm}
	}
	cases := []struct {
		in   sparc.Instr
		want bool
	}{
		{ld(sparc.O1, 0, sparc.O1, true), true},                                        // ld [%o1], %o1
		{ld(sparc.O1, 0, sparc.O2, true), false},                                       // ld [%o1], %o2
		{ld(sparc.O1, sparc.O3, sparc.O3, false), true},                                // ld [%o1+%o3], %o3
		{ld(sparc.O1, sparc.O3, sparc.O4, false), false},                               // ld [%o1+%o3], %o4
		{ld(sparc.O1, 0, sparc.G0, true), false},                                       // ld [%o1], %g0
		{sparc.Instr{Op: sparc.Ldd, Rs1: sparc.O3, Rd: sparc.O2, UseImm: true}, true},  // ldd writes %o2,%o3
		{sparc.Instr{Op: sparc.Ldd, Rs1: sparc.O1, Rd: sparc.O4, UseImm: true}, false}, // ldd writes %o4,%o5
		{sparc.Instr{Op: sparc.St, Rs1: sparc.O1, Rd: sparc.O1, UseImm: true}, false},  // stores never clobber
	}
	for _, c := range cases {
		if got := LoadClobbersAddress(c.in); got != c.want {
			t.Errorf("LoadClobbersAddress(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
