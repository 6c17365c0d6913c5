package machine

import (
	"math/rand"
	"reflect"
	"testing"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// The closure tier's proof obligation is execTrace's: observationally
// identical to Step on any program, any fault, and any mid-run patch. These
// tests re-run the differential suite with EngineClosure and pin the
// closure-specific hazards — patching out from under a compiled closure
// chain, COW siblings, and the per-machine (never shared) closure cache.

// diffRunClosure is diffRun with the run side on the closure engine.
func diffRunClosure(t *testing.T, ctx string, text []sparc.Instr) {
	t.Helper()
	a := New(cache.DefaultConfig, DefaultCosts)
	b := New(cache.DefaultConfig, DefaultCosts)
	a.SetCounterCount(4)
	b.SetCounterCount(4)
	b.SetEngine(EngineClosure)
	a.LoadText(text, 0)
	b.LoadText(text, 0)
	errA := stepAll(a)
	_, errB := b.Run()
	diffStates(t, ctx, a, b, errA, errB)
	// Marked heads compile on first entry, so even short-lived programs
	// execute closures.
	if traceCount(b.traces) == 0 {
		t.Fatalf("%s: the run compiled no traces", ctx)
	}
}

// TestDifferentialClosureRandomPrograms is the randomized differential
// sweep against compiled closures.
func TestDifferentialClosureRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		text := randText(r, 80+r.Intn(400))
		diffRunClosure(t, "closure seed "+string(rune('0'+seed%10)), text)
	}
}

// TestDifferentialClosureFaults re-runs the fault matrix under the closure
// engine: same error text, same pc, same counts at the fault.
func TestDifferentialClosureFaults(t *testing.T) {
	base := sparc.Instr{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true}
	textAlign := sparc.Instr{Op: sparc.Sethi, Rd: sparc.G1, Imm: int32(TextBase >> 10), UseImm: true}
	// Every case loops, so the fault fires from inside a compiled closure
	// chain.
	cases := []struct {
		name string
		text []sparc.Instr
	}{
		{"unaligned load in loop", []sparc.Instr{
			base,
			sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
			sparc.RI(sparc.Subcc, sparc.O1, 50, sparc.G0),
			sparc.Branch(sparc.BL, 1),
			sparc.RI(sparc.Add, sparc.L0, 2, sparc.L1),
			{Op: sparc.Ld, Rd: sparc.O0, Rs1: sparc.L1, UseImm: true},
			{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		}},
		{"division by zero in loop", []sparc.Instr{
			sparc.RI(sparc.Or, sparc.G0, 40, sparc.O2),
			sparc.RI(sparc.Sub, sparc.O2, 1, sparc.O2),
			sparc.RR(sparc.SDiv, sparc.O2, sparc.O2, sparc.O3),
			sparc.RI(sparc.Subcc, sparc.O2, 0, sparc.G0),
			sparc.Branch(sparc.BG, 1),
			{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		}},
		{"window underflow in loop", []sparc.Instr{
			sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
			sparc.RI(sparc.Subcc, sparc.O1, 30, sparc.G0),
			sparc.Branch(sparc.BL, 0),
			{Op: sparc.Restore, Rd: sparc.G0, Rs1: sparc.G0, UseImm: true},
			{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		}},
		{"jmpl bad target in loop", []sparc.Instr{
			textAlign,
			sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
			sparc.RI(sparc.Subcc, sparc.O1, 30, sparc.G0),
			sparc.Branch(sparc.BL, 1),
			sparc.RI(sparc.Add, sparc.G1, 2, sparc.G1),
			{Op: sparc.Jmpl, Rd: sparc.G0, Rs1: sparc.G1, UseImm: true},
			{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { diffRunClosure(t, c.name, c.text) })
	}
}

// TestDifferentialPatchInClosure is TestDifferentialPatchInTrace on the
// closure engine: the hook fires from a compiled closure's store, patches an
// instruction the chain already consumed, and the closure must commit
// exactly the store, exit, and re-dispatch against privatized text.
func TestDifferentialPatchInClosure(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		{Op: sparc.St, Rd: sparc.O1, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	patched := sparc.RI(sparc.Add, sparc.O1, 3, sparc.O1)
	img := BuildImage(text, 0)

	mk := func(e Engine) *Machine {
		m := New(cache.DefaultConfig, DefaultCosts)
		m.SetEngine(e)
		m.LoadImage(img)
		stores := 0
		m.StoreHook = func(addr uint32, size int32) int64 {
			stores++
			if stores == 5 {
				if err := m.PatchInstr(2, patched); err != nil {
					t.Fatalf("patch: %v", err)
				}
			}
			return 0
		}
		return m
	}

	a, b := mk(EngineStep), mk(EngineClosure)
	errA := stepAll(a)
	_, errB := b.Run()
	diffStates(t, "patch in closure", a, b, errA, errB)
	if b.imgShared {
		t.Fatal("patching machine still marked shared after PatchInstr")
	}
	// The loop head's trace covered the patch: the patcher dropped its
	// trace and closure and rebuilt both from the patched text, never
	// touching the image's.
	if b.traces[1].Load() == img.traces[1].Load() {
		t.Fatal("patcher kept the image's trace over the patched index")
	}
	if s := traceMismatch(b.text, b.uops, b.traces, b.cache.LineShift()); s != "" {
		t.Fatal(s)
	}
	if tr, cp := b.traces[1].Load(), b.cls[1].Load(); cp != nil && (tr == nil || !reflect.DeepEqual(cp.items, b.compileClosures(tr).items)) {
		t.Fatal("patcher's closure at the loop head is not threaded from its rebuilt trace")
	}
	if got := b.Reg(sparc.O1); got < 100 || got > 102 {
		t.Fatalf("final %%o1 = %d, want the patched +3 stride past 100", got)
	}
}

// TestDifferentialPatchInFusedStoreClosure drives the mid-fused-run patch
// exit (tAddSt second half) through the closure tier.
func TestDifferentialPatchInFusedStoreClosure(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		{Op: sparc.St, Rd: sparc.O1, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	patched := sparc.RI(sparc.Add, sparc.O1, 7, sparc.O1)
	img := BuildImage(text, 0)

	mk := func(e Engine) *Machine {
		m := New(cache.DefaultConfig, DefaultCosts)
		m.SetEngine(e)
		m.LoadImage(img)
		stores := 0
		m.StoreHook = func(addr uint32, size int32) int64 {
			stores++
			if stores == 9 {
				if err := m.PatchInstr(1, patched); err != nil {
					t.Fatalf("patch: %v", err)
				}
			}
			return 0
		}
		return m
	}

	a, b := mk(EngineStep), mk(EngineClosure)
	errA := stepAll(a)
	_, errB := b.Run()
	diffStates(t, "patch in fused store closure", a, b, errA, errB)
}

// TestImageClosuresSurviveSiblingPatch: two closure-engine machines share an
// Image; the sibling's first run publishes the loop head's trace and
// closure, then the other patches (COW-privatizing itself into its own
// copy of the slots), and the sibling keeps executing its
// chains against the published traces and closures. Counts must match Step
// references on both texts.
func TestImageClosuresSurviveSiblingPatch(t *testing.T) {
	text := countLoop()
	img := BuildImage(text, 0)

	m1 := New(cache.DefaultConfig, DefaultCosts)
	m2 := New(cache.DefaultConfig, DefaultCosts)
	m1.SetEngine(EngineClosure)
	m2.SetEngine(EngineClosure)
	m1.LoadImage(img)
	m2.LoadImage(img)

	// The sibling's first run publishes the loop head's trace and closure.
	if _, _, err := m2.RunFor(50); err != nil {
		t.Fatalf("warm m2: %v", err)
	}
	loopTr, loopCl := img.traces[1].Load(), m2.cls[1].Load()
	if loopTr == nil || loopCl == nil {
		t.Fatal("the closure-engine sibling's first run did not publish the loop head")
	}

	// m1 patches before running: privatized into its own slots, which drop
	// the covering loop trace; the published trace and closure stay exactly
	// in place.
	if err := m1.PatchInstr(2, sparc.RI(sparc.Add, sparc.O1, 3, sparc.O1)); err != nil {
		t.Fatalf("patch: %v", err)
	}
	if img.traces[1].Load() != loopTr {
		t.Fatal("a sibling's patch replaced the published trace")
	}
	if m2.cls[1].Load() != loopCl {
		t.Fatal("a sibling's patch replaced the published closure")
	}

	// The sibling finishes on the original text and matches a Step reference.
	ref := New(cache.DefaultConfig, DefaultCosts)
	ref.LoadText(text, 0)
	errRef := stepAll(ref)
	_, err2 := m2.Run()
	diffStates(t, "closure sibling after COW patch", ref, m2, errRef, err2)

	// The patcher finishes on the patched text and matches its reference.
	patched := countLoop()
	patched[2] = sparc.RI(sparc.Add, sparc.O1, 3, sparc.O1)
	ref2 := New(cache.DefaultConfig, DefaultCosts)
	ref2.LoadText(patched, 0)
	errRef2 := stepAll(ref2)
	_, err1 := m1.Run()
	diffStates(t, "closure patcher after COW patch", ref2, m1, errRef2, err1)
}

// TestClosureEngineRoundTrip switches one machine through all four engines
// mid-program (RunFor slices) and demands the final state match a pure-Step
// reference: the closure tier's hoisted state must spill completely at every
// exit.
func TestClosureEngineRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed * 77))
		text := randText(r, 300)

		ref := New(cache.DefaultConfig, DefaultCosts)
		ref.SetCounterCount(4)
		ref.LoadText(text, 0)
		errRef := stepAll(ref)

		m := New(cache.DefaultConfig, DefaultCosts)
		m.SetCounterCount(4)
		m.SetEngine(EngineClosure)
		m.LoadText(text, 0)
		order := []Engine{EngineClosure, EngineStep, EngineTrace, EngineBlock}
		var errM error
		compiled := 0
		for i := 0; !m.Halted() && errM == nil; i++ {
			m.SetEngine(order[i%len(order)])
			_, _, errM = m.RunFor(17)
			compiled += traceCount(m.traces)
		}
		diffStates(t, "engine round-trip", ref, m, errRef, errM)
		if compiled == 0 {
			t.Fatal("engine round-trip: the compiled slices compiled no traces")
		}
	}
}

// TestDifferentialPatchInFusedLoadClosure is the closure-tier analog of
// TestDifferentialPatchInFusedLoad: a LoadHook patches mid-chain from inside
// a fused-load closure.
func TestDifferentialPatchInFusedLoadClosure(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		{Op: sparc.Ld, Rd: sparc.O2, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	patched := sparc.RI(sparc.Add, sparc.O1, 7, sparc.O1)
	img := BuildImage(text, 0)

	mk := func(e Engine) *Machine {
		m := New(cache.DefaultConfig, DefaultCosts)
		m.SetEngine(e)
		m.LoadImage(img)
		loads := 0
		m.LoadHook = func(addr uint32, size int32) int64 {
			loads++
			if loads == 9 {
				if err := m.PatchInstr(1, patched); err != nil {
					t.Fatalf("patch: %v", err)
				}
			}
			return 0
		}
		return m
	}

	a, b := mk(EngineStep), mk(EngineClosure)
	errA := stepAll(a)
	_, errB := b.Run()
	diffStates(t, "patch in fused load closure", a, b, errA, errB)
}
