package machine

import (
	"reflect"
	"testing"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// countLoop is a small store/increment loop every trace-tier test can share:
// long enough (100 iterations) to cross the lazy hotThreshold, fused-pair
// friendly, and deterministic.
func countLoop() []sparc.Instr {
	return []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		{Op: sparc.St, Rd: sparc.O1, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
}

// TestImageTracesSurviveSiblingPatch pins the first-entry and COW contract
// of the trace tier: BuildImage publishes no trace, a sibling's first run
// publishes the loop head into the image, and a machine that patches text
// on the shared image drops the image's traces for itself only — the
// published trace stays in place, identical to a fresh compile of the
// original text, and the sibling keeps executing it with counts
// bit-identical to a fresh Step reference.
func TestImageTracesSurviveSiblingPatch(t *testing.T) {
	text := countLoop()
	img := BuildImage(text, 0)
	if n := traceCount(img.traces); n != 0 {
		t.Fatalf("BuildImage published %d traces, want none", n)
	}
	if !img.heads.has(1) {
		t.Fatal("BuildImage did not mark the loop head")
	}

	m1 := New(cache.DefaultConfig, DefaultCosts)
	m2 := New(cache.DefaultConfig, DefaultCosts)
	m1.LoadImage(img)
	m2.LoadImage(img)
	if reflect.ValueOf(m2.traces).Pointer() != reflect.ValueOf(img.traces).Pointer() {
		t.Fatal("shared machine does not execute the image's trace slots")
	}

	// The sibling's first run reaches the loop head and publishes it.
	if _, _, err := m2.RunFor(50); err != nil {
		t.Fatalf("first run of m2: %v", err)
	}
	loop := img.traces[1].Load()
	if loop == nil {
		t.Fatal("the sibling's first run did not publish the loop head")
	}

	// m1 patches before running: +3 stride instead of +1.
	if err := m1.PatchInstr(2, sparc.RI(sparc.Add, sparc.O1, 3, sparc.O1)); err != nil {
		t.Fatalf("patch: %v", err)
	}
	if m1.imgShared {
		t.Fatal("patching machine still shared")
	}
	if reflect.ValueOf(m1.traces).Pointer() == reflect.ValueOf(img.traces).Pointer() {
		t.Fatal("patching machine still holds the image's trace slots")
	}
	if n := traceCount(m1.traces); n != 0 {
		t.Fatalf("private trace slice has %d stale compiled entries", n)
	}

	// The sibling is untouched: same trace slots, and its run matches a
	// fresh Step-only reference on the ORIGINAL text.
	if reflect.ValueOf(m2.traces).Pointer() != reflect.ValueOf(img.traces).Pointer() {
		t.Fatal("sibling lost the image's traces after the patch")
	}
	ref := New(cache.DefaultConfig, DefaultCosts)
	ref.LoadText(text, 0)
	errRef := stepAll(ref)
	_, err2 := m2.Run()
	diffStates(t, "sibling after COW patch", ref, m2, errRef, err2)

	// And the patching machine matches a Step reference on the PATCHED text.
	patched := countLoop()
	patched[2] = sparc.RI(sparc.Add, sparc.O1, 3, sparc.O1)
	ref2 := New(cache.DefaultConfig, DefaultCosts)
	ref2.LoadText(patched, 0)
	errRef2 := stepAll(ref2)
	_, err1 := m1.Run()
	diffStates(t, "patcher after COW patch", ref2, m1, errRef2, err1)

	// Neither the patch nor the patcher's private compiles reached the
	// image: the published loop trace is the same object, and every
	// published trace is still a compile of the original text.
	if img.traces[1].Load() != loop {
		t.Fatal("the published loop trace was replaced")
	}
	if s := ImageTraceMismatch(img); s != "" {
		t.Fatal(s)
	}
}

// TestEngineSelection pins the engine flag surface: parsing, String, and
// that all four engines produce identical counts on the same program.
func TestEngineSelection(t *testing.T) {
	for _, c := range []struct {
		s string
		e Engine
	}{{"step", EngineStep}, {"block", EngineBlock}, {"trace", EngineTrace}, {"closure", EngineClosure}} {
		e, err := ParseEngine(c.s)
		if err != nil || e != c.e {
			t.Fatalf("ParseEngine(%q) = %v, %v", c.s, e, err)
		}
		if e.String() != c.s {
			t.Fatalf("Engine(%v).String() = %q, want %q", e, e.String(), c.s)
		}
	}
	if _, err := ParseEngine("jit"); err == nil {
		t.Fatal("ParseEngine accepted an unknown engine")
	}

	text := countLoop()
	var ref *Machine
	for _, e := range []Engine{EngineStep, EngineBlock, EngineTrace, EngineClosure} {
		m := New(cache.DefaultConfig, DefaultCosts)
		m.SetEngine(e)
		m.LoadText(text, 0)
		if _, err := m.Run(); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if ref == nil {
			ref = m
			continue
		}
		diffStates(t, "engine "+e.String(), ref, m, nil, nil)
	}
}
