package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// Padding-nop runs: a run of uncounted nops on one I-line compiles to one
// closure item whose later fetches are precounted hits.
// These tests pin that compiled form against Step on runs at every offset
// against the I-lines, across line sizes, around faults, hooked stores and
// patches, and check the head-slot numbering and the declined sentinel
// that replaced the head bitset.

var nopRunGeometries = []cache.Config{
	{SizeBytes: 64 * 1024, LineBytes: 16},
	cache.DefaultConfig, // 32-byte lines
	{SizeBytes: 64 * 1024, LineBytes: 64},
}

// nopPadLoop builds a counted loop whose store is padded by pad nops before
// it and pad nops after it, with lead ALU ops ahead of the first run so the
// runs start at every offset against the I-lines. The loop head is index 1.
func nopPadLoop(lead, pad int) []sparc.Instr {
	nops := func(text []sparc.Instr) []sparc.Instr {
		for range pad {
			text = append(text, sparc.Instr{Op: sparc.Nop})
		}
		return text
	}
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
	}
	for range lead {
		text = append(text, sparc.RI(sparc.Add, sparc.O2, 1, sparc.O2))
	}
	text = nops(text)
	text = append(text, sparc.Instr{Op: sparc.St, Rd: sparc.O1, Rs1: sparc.L0, Imm: 4, UseImm: true})
	text = nops(text)
	return append(text,
		sparc.RI(sparc.Subcc, sparc.O1, 40, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		sparc.Instr{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	)
}

// diffGeometry runs text via Step and via the closure engine on machines of
// cache geometry cfg, each over its own copy, and returns the closure
// machine.
func diffGeometry(t *testing.T, ctx string, cfg cache.Config, text []sparc.Instr, setup func(*Machine)) *Machine {
	t.Helper()
	a, b := New(cfg, DefaultCosts), New(cfg, DefaultCosts)
	for _, m := range []*Machine{a, b} {
		m.SetCounterCount(4)
		if setup != nil {
			setup(m)
		}
		m.LoadText(append([]sparc.Instr(nil), text...), 0)
	}
	b.SetEngine(EngineClosure)
	errA := stepAll(a)
	_, errB := b.Run()
	diffStates(t, ctx, a, b, errA, errB)
	return b
}

// nopRuns counts the nop-run items of every closure m holds, and fails the
// test if one retires nops that are not all on its first fetch's I-line.
func nopRuns(t *testing.T, ctx string, m *Machine) int {
	t.Helper()
	shift := m.cache.LineShift()
	n := 0
	for i := range m.traces {
		cp := m.traces[i].Load()
		if cp == nil || cp == declined {
			continue
		}
		for _, it := range cp.items {
			if it.kind != tNop || it.imm < 2 {
				continue
			}
			n++
			first, last := it.fpc, it.fpc+it.imm-1
			if lineEnd(first, shift) <= last {
				t.Fatalf("%s: nop run [%d,%d] crosses an I-line", ctx, first, last)
			}
			for k := first; k <= last; k++ {
				if in := m.text[k]; in.Op != sparc.Nop || in.Count != 0 {
					t.Fatalf("%s: nop run [%d,%d] retires %v at %d", ctx, first, last, in.Op, k)
				}
			}
		}
	}
	return n
}

// TestDifferentialNopRuns runs padded loops whose nop runs start at every
// offset against the I-line and cross line boundaries, under three line
// sizes: counts must equal Step's, and the closures must carry nop runs.
func TestDifferentialNopRuns(t *testing.T) {
	for _, cfg := range nopRunGeometries {
		for lead := range 8 {
			for _, pad := range []int{2, 3, 5, 8, 9, 17} {
				ctx := fmt.Sprintf("line %d lead %d pad %d", cfg.LineBytes, lead, pad)
				b := diffGeometry(t, ctx, cfg, nopPadLoop(lead, pad), nil)
				if nopRuns(t, ctx, b) == 0 {
					t.Fatalf("%s: the closures hold no nop run", ctx)
				}
			}
		}
	}
}

// TestDifferentialNopRunRandomPrograms overwrites stretches of the random
// differential programs with nops, some of them counted, so runs meet every
// neighbour: branches, memory ops, counted ops, fused shapes and I-line
// ends.
func TestDifferentialNopRunRandomPrograms(t *testing.T) {
	runs := 0
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		text := randText(r, 80+r.Intn(400))
		for range len(text) / 10 {
			p := r.Intn(len(text) - 1)
			for j := p; j < min(p+2+r.Intn(12), len(text)-1); j++ {
				text[j] = sparc.Instr{Op: sparc.Nop}
				if r.Intn(8) == 0 {
					text[j].Count = int32(r.Intn(4)) + 1
				}
			}
		}
		cfg := nopRunGeometries[seed%int64(len(nopRunGeometries))]
		ctx := fmt.Sprintf("nop seed %d line %d", seed, cfg.LineBytes)
		runs += nopRuns(t, ctx, diffGeometry(t, ctx, cfg, text, nil))
	}
	if runs == 0 {
		t.Fatal("no random program compiled a nop run")
	}
}

// TestDifferentialNopRunFault faults the load just after a nop run, from
// inside the compiled loop (the load turns unaligned after 16 iterations),
// for runs at every offset against the I-line.
func TestDifferentialNopRunFault(t *testing.T) {
	for pad := 2; pad <= 10; pad++ {
		mid := []sparc.Instr{
			sparc.RI(sparc.Sll, sparc.O5, 1, sparc.L1),
			sparc.RR(sparc.Add, sparc.L0, sparc.L1, sparc.L2),
		}
		for range pad {
			mid = append(mid, sparc.Instr{Op: sparc.Nop})
		}
		mid = append(mid, sparc.Instr{Op: sparc.Ld, Rd: sparc.O3, Rs1: sparc.L2, UseImm: true})
		ctx := fmt.Sprintf("fault after %d nops", pad)
		b := diffGeometry(t, ctx, cache.DefaultConfig, slotFaultLoop(mid), nil)
		if b.Halted() || nopRuns(t, ctx, b) == 0 {
			t.Fatalf("%s: halted %v; the fault must come from a closure with a nop run", ctx, b.Halted())
		}
	}
}

// TestDifferentialNopRunHookedStore runs the padded loops with a StoreHook
// that charges cycles and reads the counts, so the store just after each
// nop run flushes the batch its run precounted.
func TestDifferentialNopRunHookedStore(t *testing.T) {
	for lead := range 8 {
		ctx := fmt.Sprintf("hooked store lead %d", lead)
		setup := func(m *Machine) {
			m.StoreHook = func(addr uint32, size int32) int64 {
				return 3 + int64(m.CacheStats().TotalAccesses()%5)
			}
		}
		b := diffGeometry(t, ctx, cache.DefaultConfig, nopPadLoop(lead, 6), setup)
		if nopRuns(t, ctx, b) == 0 {
			t.Fatalf("%s: the closures hold no nop run", ctx)
		}
	}
}

// TestDifferentialPatchAroundNopRun patches, from the hook of the loop's
// fifth store, an index inside the nop run before the store, the store just
// after that run, and the first nop of the run after it. Each patch drops
// the loop closure covering it; the loop then recompiles from the patched
// text, splitting a run where a nop became an add.
func TestDifferentialPatchAroundNopRun(t *testing.T) {
	text := nopPadLoop(0, 6) // run [2,8), store 8, run [9,15)
	for _, c := range []struct {
		name string
		at   int32
		in   sparc.Instr
	}{
		{"inside a run", 4, sparc.RI(sparc.Add, sparc.O2, 1, sparc.O2)},
		{"just after a run", 8, sparc.Instr{Op: sparc.St, Rd: sparc.O1, Rs1: sparc.L0, Imm: 8, UseImm: true}},
		{"first of a run", 9, sparc.RI(sparc.Add, sparc.O2, 2, sparc.O2)},
	} {
		if text[c.at-1].Op != sparc.Nop && text[c.at].Op != sparc.Nop {
			t.Fatalf("%s: index %d is not next to a nop run", c.name, c.at)
		}
		b, held := diffPatchClosure(t, c.name, text, 5, c.at, c.in, 1)
		if published(b.traces, b.uops, 1) == held {
			t.Fatalf("%s: the patch kept the loop closure over index %d", c.name, c.at)
		}
		nopRuns(t, c.name, b)
	}
}

// TestDeclinedHeadCompilesAfterPatch pins the declined sentinel: a head the
// builder declines publishes it, it is never retried, and a patch that
// creates the head again clears it, so the head compiles on its next entry.
// Here head 3 (add, subcc, then the exit trap) is too short to compile
// until the trap at 5 becomes a back-edge to it.
func TestDeclinedHeadCompilesAfterPatch(t *testing.T) {
	text := []sparc.Instr{
		sparc.RI(sparc.Or, sparc.G0, 0, sparc.O1),
		sparc.Branch(sparc.BA, 3),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	a, b := New(cache.DefaultConfig, DefaultCosts), New(cache.DefaultConfig, DefaultCosts)
	a.LoadText(append([]sparc.Instr(nil), text...), 0)
	b.LoadText(append([]sparc.Instr(nil), text...), 0)
	if cp := b.compileHead(3); cp != declined || slotAt(b.traces, b.uops, 3) != declined {
		t.Fatal("the short head did not publish the declined sentinel")
	}
	if cp := b.compileHead(3); cp != declined {
		t.Fatal("a second compile of a declined head did not keep the sentinel")
	}
	loop := sparc.Branch(sparc.BL, 3)
	for _, m := range []*Machine{a, b} {
		if err := m.PatchInstr(5, loop); err != nil {
			t.Fatal(err)
		}
	}
	if cp := slotAt(b.traces, b.uops, 3); cp != nil {
		t.Fatalf("the patch creating head 3 left %p in its slot, want it cleared", cp)
	}
	errA := stepAll(a)
	_, errB := b.Run()
	diffStates(t, "declined head after patch", a, b, errA, errB)
	if cp := published(b.traces, b.uops, 3); cp == nil || cp.passInstrs != 3 {
		t.Fatal("head 3 did not compile its loop after the patch")
	}
	if s := MachineTraceMismatch(b); s != "" {
		t.Fatal(s)
	}
}

// TestDeclinedHeadOnImage checks that a head declined on a shared image
// publishes the sentinel in the image's slot, costs no trace bytes, and is
// what a sibling then finds there.
func TestDeclinedHeadOnImage(t *testing.T) {
	img := BuildImage([]sparc.Instr{ // one instruction before the exit: too short
		sparc.RI(sparc.Or, sparc.G0, 1, sparc.O1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}, 0)
	for range 2 {
		m := New(cache.DefaultConfig, DefaultCosts)
		m.LoadImage(img)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if slotAt(img.traces, img.uops, 0) != declined {
			t.Fatal("the short head's slot does not hold the declined sentinel")
		}
	}
	if img.TraceBytes() != 0 || ImageTraceCount(img) != 0 {
		t.Fatalf("a declined head counts %d trace bytes, %d closures", img.TraceBytes(), ImageTraceCount(img))
	}
}

// TestHeadSlots pins the slot numbering every text shares: heads are
// numbered densely in text order with one slot each, on an image and on
// private text alike; privatization copies a shared machine's slots one
// for one; and a patch that creates a head gives it the next slot number,
// where it compiles on its next entry. The µop stays 16 bytes.
func TestHeadSlots(t *testing.T) {
	if n := unsafe.Sizeof(uop{}); n != 16 {
		t.Fatalf("uop is %d bytes, want 16", n)
	}
	dense := func(what string, uops []uop, slots int) {
		t.Helper()
		want := int32(0)
		for pc, u := range uops {
			if u.slot >= 0 {
				if u.slot != want {
					t.Fatalf("%s: head %d has slot %d, want %d", what, pc, u.slot, want)
				}
				want++
			}
		}
		if int(want) != slots || slots >= len(uops) {
			t.Fatalf("%s holds %d slots for %d heads over %d instructions", what, slots, want, len(uops))
		}
	}
	text := countLoop() // heads 0, 1 (the loop) and 5 (the exit trap)
	img := BuildImage(text, 0)
	dense("image", img.uops, len(img.traces))
	p := New(cache.DefaultConfig, DefaultCosts)
	p.LoadText(slices.Clone(text), 0)
	dense("private text", p.uops, len(p.traces))
	if !slices.Equal(p.uops, img.uops) {
		t.Fatal("private text numbers its heads unlike the image of the same text")
	}

	m := New(cache.DefaultConfig, DefaultCosts)
	m.LoadImage(img)
	if _, _, err := m.RunFor(50); err != nil {
		t.Fatal(err)
	}
	if published(img.traces, img.uops, 1) == nil {
		t.Fatal("the run did not publish the loop head")
	}
	// Patch an index no closure covers (the exit trap), so every closure
	// the machine ran is inherited.
	exit := int32(len(text) - 1)
	if err := m.PatchInstr(exit, text[exit]); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(m.uops, img.uops) || len(m.traces) != len(img.traces) {
		t.Fatalf("privatization renumbered the heads: %d slots, image %d", len(m.traces), len(img.traces))
	}
	for s := range m.traces {
		if m.traces[s].Load() != img.traces[s].Load() {
			t.Fatalf("privatization did not copy slot %d", s)
		}
	}

	// Retarget the loop branch to index 2, which was no head: it takes
	// slot 3, the next number, and the loop compiles there.
	ref := New(cache.DefaultConfig, DefaultCosts)
	ref.LoadText(slices.Clone(text), 0)
	if _, _, err := ref.RunFor(50); err != nil {
		t.Fatal(err)
	}
	loop := sparc.Branch(sparc.BL, 2)
	for _, x := range []*Machine{ref, m} {
		if err := x.PatchInstr(4, loop); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.uops[2].slot; s != int32(len(img.traces)) || len(m.traces) != len(img.traces)+1 {
		t.Fatalf("the new head 2 has slot %d of %d, want %d of %d", s, len(m.traces), len(img.traces), len(img.traces)+1)
	}
	errA := stepAll(ref)
	_, errB := m.Run()
	diffStates(t, "new head", ref, m, errA, errB)
	if published(m.traces, m.uops, 2) == nil {
		t.Fatal("the new head did not compile in its slot")
	}
	if s := MachineTraceMismatch(m); s != "" {
		t.Fatal(s)
	}
}

// TestFusionPlanTilesNopRuns checks that FusionPlan, which mrsbench
// -trace-stats is built on, tiles padding-nop runs per I-line as the
// builder does: a run of 12 nops from text index 5 under 32-byte lines
// splits at the line boundaries 8 and 16, a counted nop retires alone, and
// the same run under 64-byte lines splits only at 16.
func TestFusionPlanTilesNopRuns(t *testing.T) {
	run := make([]sparc.Instr, 12)
	for i := range run {
		run[i] = sparc.Instr{Op: sparc.Nop}
	}
	if got, want := FusionPlan(run, 5, 5), []int32{3, 8, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("32-byte lines: plan %v, want %v", got, want)
	}
	if got, want := FusionPlan(run, 5, 6), []int32{11, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("64-byte lines: plan %v, want %v", got, want)
	}
	run[9].Count = 1 // index 14
	if got, want := FusionPlan(run, 5, 5), []int32{3, 6, 1, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("counted nop: plan %v, want %v", got, want)
	}
}

// TestWideCounterIndexRunsInStep checks the µop's 16-bit counter field: an
// instruction whose counter index does not fit it — an interior add and a
// loop branch here — decodes as Step-only, so the closure engine leaves it
// to Step and every count still equals Step's.
func TestWideCounterIndexRunsInStep(t *testing.T) {
	const wide = 1 << 16 // counter index+1 one past cnt's range
	text := countLoop()
	text[2].Count = wide
	text[4].Count = wide
	for _, i := range []int{2, 4} {
		if u, ok := decodeUop(&text[i]); ok || u.op != sparc.Unimp {
			t.Fatalf("index %d: decoded %v (straight-line %v), want a Step-only µop", i, u.op, ok)
		}
	}
	a, b := New(cache.DefaultConfig, DefaultCosts), New(cache.DefaultConfig, DefaultCosts)
	for _, m := range []*Machine{a, b} {
		m.SetCounterCount(wide)
		m.LoadText(append([]sparc.Instr(nil), text...), 0)
	}
	errA := stepAll(a)
	_, errB := b.Run()
	diffStates(t, "wide counter", a, b, errA, errB)
	if a.Counters[wide-1] == 0 {
		t.Fatal("the wide counter never counted")
	}
}
