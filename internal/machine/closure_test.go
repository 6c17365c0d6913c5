package machine

import (
	"math/rand"
	"strings"
	"testing"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// The closure tier's proof obligation is the block engine's: observationally
// identical to Step on any program, any fault, and any mid-run patch. These
// tests re-run the differential suite's programs with EngineClosure over
// private text, where a patch drops the covering closures from the
// machine's own slots in place, and pin the closure-specific hazards: COW
// siblings sharing an image's published closures, and engine switches that
// abandon a closure chain mid-program.

// TestDifferentialClosureRandomPrograms is the randomized differential
// sweep against compiled closures. Marked heads compile on first entry, so
// even these short-lived programs execute closures.
func TestDifferentialClosureRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		text := randText(r, 80+r.Intn(400))
		ctx := "closure seed " + string(rune('0'+seed%10))
		if b := diffRun(t, ctx, text, EngineClosure); traceCount(b.traces) == 0 {
			t.Fatalf("%s: the run compiled no closures", ctx)
		}
	}
}

// TestDifferentialClosureFaults re-runs the fault matrix under the closure
// engine: same error text, same pc, same counts at the fault. The "in loop"
// cases must fault from inside a compiled closure chain.
func TestDifferentialClosureFaults(t *testing.T) {
	for _, c := range faultCases() {
		t.Run(c.name, func(t *testing.T) {
			if b := diffRun(t, c.name, c.text, EngineClosure); strings.HasSuffix(c.name, " in loop") && traceCount(b.traces) == 0 {
				t.Fatalf("%s: the run compiled no closures", c.name)
			}
		})
	}
}

// diffPatchClosure runs text via Step and via the closure engine, each
// machine over its own copy of the text (LoadText aliases the caller's
// slice and PatchInstr writes through it). On the n-th hooked access — a
// store when store is set, else a load — each machine patches index at to
// in. It returns the closure machine and the closure it held at head when
// its hook patched.
func diffPatchClosure(t *testing.T, ctx string, text []sparc.Instr, store bool, n int, at int32, in sparc.Instr, head int) (*Machine, *closProg) {
	t.Helper()
	var held *closProg
	mk := func(e Engine) *Machine {
		m := New(cache.DefaultConfig, DefaultCosts)
		m.SetEngine(e)
		m.LoadText(append([]sparc.Instr(nil), text...), 0)
		seen := 0
		hook := func(addr uint32, size int32) int64 {
			seen++
			if seen == n {
				if e == EngineClosure {
					held = m.traces[head].Load()
				}
				if err := m.PatchInstr(at, in); err != nil {
					t.Fatalf("patch: %v", err)
				}
			}
			return 0
		}
		if store {
			m.StoreHook = hook
		} else {
			m.LoadHook = hook
		}
		return m
	}
	a, b := mk(EngineStep), mk(EngineClosure)
	errA := stepAll(a)
	_, errB := b.Run()
	diffStates(t, ctx, a, b, errA, errB)
	if held == nil {
		t.Fatalf("%s: the loop head had no closure when the hook patched", ctx)
	}
	if s := MachineTraceMismatch(b); s != "" {
		t.Fatalf("%s: %s", ctx, s)
	}
	return b, held
}

// TestDifferentialPatchInClosure is TestDifferentialPatchInTrace over
// private text: the hook fires from a store of the machine's own loop
// closure and patches an instruction the chain already consumed, so the
// closure must commit exactly the store, exit, and re-dispatch, and the
// patch must drop the covering closure so the loop recompiles from the
// patched text.
func TestDifferentialPatchInClosure(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		{Op: sparc.St, Rd: sparc.O1, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	b, held := diffPatchClosure(t, "patch in closure", text, true, 5, 2, sparc.RI(sparc.Add, sparc.O1, 3, sparc.O1), 1)
	if b.traces[1].Load() == held {
		t.Fatal("the patch kept the loop closure over the patched index")
	}
	if got := b.Reg(sparc.O1); got < 100 || got > 102 {
		t.Fatalf("final %%o1 = %d, want the patched +3 stride past 100", got)
	}
}

// TestDifferentialPatchInFusedStoreClosure is TestDifferentialPatchInFusedStore
// over private text: the hook fires from the second half of a fused add+st
// item (tAddSt) and patches the pair's own first instruction.
func TestDifferentialPatchInFusedStoreClosure(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		{Op: sparc.St, Rd: sparc.O1, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	diffPatchClosure(t, "patch in fused store closure", text, true, 9, 1, sparc.RI(sparc.Add, sparc.O1, 7, sparc.O1), 1)
}

// TestDifferentialPatchInFusedLoadClosure is TestDifferentialPatchInFusedLoad
// over private text: a LoadHook patches the loop body from inside a
// fused-load item of the machine's own closure.
func TestDifferentialPatchInFusedLoadClosure(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		{Op: sparc.Ld, Rd: sparc.O2, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	diffPatchClosure(t, "patch in fused load closure", text, false, 9, 1, sparc.RI(sparc.Add, sparc.O1, 7, sparc.O1), 1)
}

// TestImageClosuresSurviveSiblingPatch: two closure-engine machines share an
// Image; the sibling's first run publishes the loop head's closure, then the
// other patches (COW-privatizing itself into its own copy of the slots),
// and the sibling keeps executing its chains against the published
// closures. Counts must match Step references on both texts.
func TestImageClosuresSurviveSiblingPatch(t *testing.T) {
	text := countLoop()
	img := BuildImage(text, 0)

	m1 := New(cache.DefaultConfig, DefaultCosts)
	m2 := New(cache.DefaultConfig, DefaultCosts)
	m1.SetEngine(EngineClosure)
	m2.SetEngine(EngineClosure)
	m1.LoadImage(img)
	m2.LoadImage(img)

	// The sibling's first run publishes the loop head's closure.
	if _, _, err := m2.RunFor(50); err != nil {
		t.Fatalf("warm m2: %v", err)
	}
	loop := img.traces[1].Load()
	if loop == nil || m2.traces[1].Load() != loop {
		t.Fatal("the closure-engine sibling's first run did not publish the loop head")
	}

	// m1 patches before running: privatized into its own slots, which drop
	// the covering loop closure; the published closure stays exactly in
	// place.
	if err := m1.PatchInstr(2, sparc.RI(sparc.Add, sparc.O1, 3, sparc.O1)); err != nil {
		t.Fatalf("patch: %v", err)
	}
	if img.traces[1].Load() != loop || m2.traces[1].Load() != loop {
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

// TestClosureEngineRoundTrip switches one machine through every engine
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
		order := []Engine{EngineClosure, EngineStep, EngineBlock}
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
