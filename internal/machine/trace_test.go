package machine

import (
	"reflect"
	"testing"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// countLoop is a small store/increment loop every compiled-tier test can share:
// long enough (100 iterations) to run mostly in compiled traces, fused-pair
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
// of the compiled tier: BuildImage publishes no closure, a sibling's first
// run publishes the loop head into the image, and a machine that patches
// text on the shared image copies the image's slots and drops, in its copy
// only, the closures covering the patch — the published closure stays in
// place, identical to a fresh compile of the original text, and the sibling
// keeps executing it with counts bit-identical to a fresh Step reference.
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
	// Both published traces (the entry's and the loop head's) cover the
	// patched add, so the patcher inherits neither.
	if n := traceCount(m1.traces); n != 0 {
		t.Fatalf("private trace slice kept %d traces over the patched index", n)
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

// TestEngineSelection pins the engine flag surface: parsing, String, the
// closure engine as the zero value, and that every engine produces
// identical counts on the same program.
func TestEngineSelection(t *testing.T) {
	if m := New(cache.DefaultConfig, DefaultCosts); m.Engine() != EngineClosure {
		t.Fatalf("a new machine runs %v, want closure", m.Engine())
	}
	for _, c := range []struct {
		s string
		e Engine
	}{{"step", EngineStep}, {"block", EngineBlock}, {"closure", EngineClosure}} {
		e, err := ParseEngine(c.s)
		if err != nil || e != c.e {
			t.Fatalf("ParseEngine(%q) = %v, %v", c.s, e, err)
		}
		if e.String() != c.s {
			t.Fatalf("Engine(%v).String() = %q, want %q", e, e.String(), c.s)
		}
	}
	for _, s := range []string{"jit", "trace"} {
		if _, err := ParseEngine(s); err == nil {
			t.Fatalf("ParseEngine accepted the unknown engine %q", s)
		}
	}

	text := countLoop()
	var ref *Machine
	for _, e := range []Engine{EngineStep, EngineBlock, EngineClosure} {
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

// TestLoadTextCompilesOnFirstEntry pins the one compile rule on private
// text: LoadText marks the block heads, the first dispatch of a marked head
// compiles its closure, and every closure the machine holds at the end
// equals a fresh compile of its head.
func TestLoadTextCompilesOnFirstEntry(t *testing.T) {
	for _, e := range []Engine{EngineClosure} {
		m := New(cache.DefaultConfig, DefaultCosts)
		m.SetEngine(e)
		m.LoadText(countLoop(), 0)
		for _, h := range []int32{0, 1, 5} { // entry, branch target, successor
			if !m.heads.has(h) {
				t.Fatalf("%v: LoadText did not mark head %d", e, h)
			}
		}
		if n := traceCount(m.traces); n != 0 {
			t.Fatalf("%v: LoadText compiled %d traces before any entry", e, n)
		}
		// One instruction: the first dispatch of the entry head compiles
		// it (the one-instruction budget then runs it in block mode).
		if _, _, err := m.RunFor(1); err != nil {
			t.Fatal(err)
		}
		if m.traces[0].Load() == nil {
			t.Fatalf("%v: the first entry of head 0 compiled no trace", e)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		// The loop head compiles when the entry trace first links to it.
		if m.traces[1].Load() == nil {
			t.Fatalf("%v: the loop head was never compiled", e)
		}
		if s := MachineTraceMismatch(m); s != "" {
			t.Fatalf("%v: %s", e, s)
		}
	}
}

// TestPatchMarksNewHeads checks that a patched-in branch or call marks its
// target and its successor, so both compile on first entry like any block
// head, on private text and on a privatized image alike — and that the
// image's own marks stay as they were.
func TestPatchMarksNewHeads(t *testing.T) {
	text := []sparc.Instr{
		sparc.RI(sparc.Or, sparc.G0, 0, sparc.O0),
		sparc.RI(sparc.Add, sparc.O0, 1, sparc.O0),
		sparc.RI(sparc.Add, sparc.O0, 2, sparc.O0),
		sparc.RI(sparc.Add, sparc.O0, 3, sparc.O0),
		sparc.RI(sparc.Add, sparc.O0, 4, sparc.O0),
		sparc.RI(sparc.Add, sparc.O0, 5, sparc.O0),
		sparc.RI(sparc.Add, sparc.O0, 6, sparc.O0),
		sparc.RI(sparc.Add, sparc.O0, 7, sparc.O0),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	img := BuildImage(text, 0)
	for _, c := range []struct {
		name          string
		patch         sparc.Instr
		at, succ, tgt int32
	}{
		{"branch", sparc.Branch(sparc.BA, 6), 2, 3, 6},
		{"call", sparc.Instr{Op: sparc.Call, Target: 5}, 1, 2, 5},
	} {
		private := New(cache.DefaultConfig, DefaultCosts)
		private.LoadText(append([]sparc.Instr(nil), text...), 0)
		shared := New(cache.DefaultConfig, DefaultCosts)
		shared.LoadImage(img)
		for _, m := range []*Machine{private, shared} {
			if m.heads.has(c.succ) || m.heads.has(c.tgt) {
				t.Fatalf("%s: straight-line text already marks %d or %d", c.name, c.succ, c.tgt)
			}
			if err := m.PatchInstr(c.at, c.patch); err != nil {
				t.Fatal(err)
			}
			if !m.heads.has(c.succ) || !m.heads.has(c.tgt) {
				t.Fatalf("%s: patch at %d did not mark successor %d and target %d", c.name, c.at, c.succ, c.tgt)
			}
		}
		if img.heads.has(c.succ) || img.heads.has(c.tgt) {
			t.Fatalf("%s: a privatized machine's patch marked the image's heads", c.name)
		}
	}
}
