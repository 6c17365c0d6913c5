package machine

import (
	"math/rand"
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
	if !isHead(img.uops, 1) {
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
	loop := published(img.traces, img.uops, 1)
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
	if published(img.traces, img.uops, 1) != loop {
		t.Fatal("the published loop trace was replaced")
	}
	if s := ImageTraceMismatch(img); s != "" {
		t.Fatal(s)
	}
}

// TestEngineSelection pins the engine flag surface: parsing, String, the
// closure engine as the zero value, and that both engines produce
// identical counts on the same program.
func TestEngineSelection(t *testing.T) {
	if m := New(cache.DefaultConfig, DefaultCosts); m.Engine() != EngineClosure {
		t.Fatalf("a new machine runs %v, want closure", m.Engine())
	}
	for _, c := range []struct {
		s string
		e Engine
	}{{"step", EngineStep}, {"closure", EngineClosure}} {
		e, err := ParseEngine(c.s)
		if err != nil || e != c.e {
			t.Fatalf("ParseEngine(%q) = %v, %v", c.s, e, err)
		}
		if e.String() != c.s {
			t.Fatalf("Engine(%v).String() = %q, want %q", e, e.String(), c.s)
		}
	}
	for _, s := range []string{"jit", "trace", "block"} {
		if _, err := ParseEngine(s); err == nil {
			t.Fatalf("ParseEngine accepted the unknown engine %q", s)
		}
	}

	text := countLoop()
	var ref *Machine
	for _, e := range []Engine{EngineStep, EngineClosure} {
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
// text: LoadText gives the block heads slots, the first dispatch of a head
// compiles its closure, and every closure the machine holds at the end
// equals a fresh compile of its head.
func TestLoadTextCompilesOnFirstEntry(t *testing.T) {
	for _, e := range []Engine{EngineClosure} {
		m := New(cache.DefaultConfig, DefaultCosts)
		m.SetEngine(e)
		m.LoadText(countLoop(), 0)
		for _, h := range []int32{0, 1, 5} { // entry, branch target, successor
			if !isHead(m.uops, h) {
				t.Fatalf("%v: LoadText did not mark head %d", e, h)
			}
		}
		if n := traceCount(m.traces); n != 0 {
			t.Fatalf("%v: LoadText compiled %d traces before any entry", e, n)
		}
		// One instruction: the first dispatch of the entry head compiles
		// it (the one-instruction budget then leaves it to Step).
		if _, _, err := m.RunFor(1); err != nil {
			t.Fatal(err)
		}
		if published(m.traces, m.uops, 0) == nil {
			t.Fatalf("%v: the first entry of head 0 compiled no trace", e)
		}
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		// The loop head compiles when the entry trace first links to it.
		if published(m.traces, m.uops, 1) == nil {
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
			if isHead(m.uops, c.succ) || isHead(m.uops, c.tgt) {
				t.Fatalf("%s: straight-line text already marks %d or %d", c.name, c.succ, c.tgt)
			}
			if err := m.PatchInstr(c.at, c.patch); err != nil {
				t.Fatal(err)
			}
			if !isHead(m.uops, c.succ) || !isHead(m.uops, c.tgt) {
				t.Fatalf("%s: patch at %d did not mark successor %d and target %d", c.name, c.at, c.succ, c.tgt)
			}
		}
		if isHead(img.uops, c.succ) || isHead(img.uops, c.tgt) {
			t.Fatalf("%s: a privatized machine's patch marked the image's heads", c.name)
		}
	}
}

// closureCovers reports whether a closure m has published covers text
// index idx.
func closureCovers(m *Machine, idx int32) bool {
	for i := range m.traces {
		if cp := m.traces[i].Load(); cp != nil && cp != declined && cp.covers(idx) {
			return true
		}
	}
	return false
}

// TestDoubleWordEndsTrace checks that ldd and std end a trace, so Step runs
// them: a loop whose body holds an std and an ldd must match Step —
// registers, counts, cache statistics and the LoadHook's address stream —
// and the closures the run publishes must cover every loop index but those
// two. The ldd's successor is a head, and its trace stitches the back-edge
// through the loop head.
func TestDoubleWordEndsTrace(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1), // loop head; counter
		sparc.RI(sparc.Add, sparc.O2, 3, sparc.O2),
		sparc.RI(sparc.Add, sparc.O3, 5, sparc.O3),
		{Op: sparc.Std, Rd: sparc.O2, Rs1: sparc.L0, UseImm: true},
		{Op: sparc.Ldd, Rd: sparc.O4, Rs1: sparc.L0, UseImm: true},
		sparc.RR(sparc.Add, sparc.O4, sparc.O5, sparc.L4),
		sparc.RI(sparc.Subcc, sparc.O1, 64, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	const std, ldd, loopEnd = 4, 5, 8
	type access struct {
		addr uint32
		size int32
	}
	var loads [2][]access
	var ms [2]*Machine
	for i := range ms {
		m := New(cache.DefaultConfig, DefaultCosts)
		m.LoadHook = func(addr uint32, size int32) int64 {
			loads[i] = append(loads[i], access{addr, size})
			return 0
		}
		m.LoadText(append([]sparc.Instr(nil), text...), 0)
		ms[i] = m
	}
	errStep := stepAll(ms[0])
	_, errRun := ms[1].Run()
	diffStates(t, "double-word loop", ms[0], ms[1], errStep, errRun)
	if len(loads[0]) != 64 || !reflect.DeepEqual(loads[0], loads[1]) {
		t.Fatalf("LoadHook streams differ: step %v, closure %v", loads[0], loads[1])
	}
	for i := int32(1); i <= loopEnd; i++ {
		if got, want := closureCovers(ms[1], i), i != std && i != ldd; got != want {
			t.Errorf("loop index %d: covered by a closure %v, want %v", i, got, want)
		}
	}
}

// TestLongRunCompiles checks the aligned-block rule on a loop whose body is
// one straight-line run of 3,000 adds, stores, nops and loads, far past
// maxBlockLen: the run must match Step, and the closures it publishes must
// cover every loop index, so a trace the bound stops links on to the next
// head instead of leaving the rest of the run to Step.
func TestLongRunCompiles(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1), // loop head; counter
	}
	for len(text) < 3000 {
		off := r.Int31n(256) * 4
		var in sparc.Instr
		switch r.Intn(4) {
		case 0:
			in = sparc.RI(sparc.Add, sparc.O2, r.Int31n(100), sparc.O2)
		case 1:
			in = sparc.Instr{Op: sparc.St, Rd: sparc.O2, Rs1: sparc.L0, Imm: off, UseImm: true}
		case 2:
			in = sparc.Instr{Op: sparc.Nop}
		default:
			in = sparc.Instr{Op: sparc.Ld, Rd: sparc.O3, Rs1: sparc.L0, Imm: off, UseImm: true}
		}
		text = append(text, in)
	}
	text = append(text,
		sparc.RI(sparc.Subcc, sparc.O1, 4, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		sparc.Instr{Op: sparc.Ta, Imm: TrapExit, UseImm: true})
	a, b := New(cache.DefaultConfig, DefaultCosts), New(cache.DefaultConfig, DefaultCosts)
	a.LoadText(text, 0)
	b.LoadText(text, 0)
	errA := stepAll(a)
	_, errB := b.Run()
	diffStates(t, "long run", a, b, errA, errB)
	for i := int32(1); i < int32(len(text))-1; i++ {
		if !closureCovers(b, i) {
			t.Fatalf("no closure covers loop index %d", i)
		}
	}
}

// TestPatchKeepsBlockIndex applies 400 random patches, an add to a ba or
// back, to straight-line text of 3,000 instructions, most of them next to
// the aligned block ends at 1024 and 2048. After each patch the block index
// must equal a fresh decode of the patched text, and every head of the
// fresh decode must be a head: PatchInstr's repair respects the aligned
// ends at the patched index and on its backward walk.
func TestPatchKeepsBlockIndex(t *testing.T) {
	const n = 3000
	add := sparc.RI(sparc.Add, sparc.O0, 1, sparc.O0)
	text := make([]sparc.Instr, n)
	for i := range text {
		text[i] = add
	}
	text[n-1] = sparc.Instr{Op: sparc.Ta, Imm: TrapExit, UseImm: true}
	m := New(cache.DefaultConfig, DefaultCosts)
	m.LoadText(text, 0)
	r := rand.New(rand.NewSource(1))
	near := []int32{1022, 1023, 1024, 1025, 2046, 2047, 2048, 2049}
	for k := 0; k < 400; k++ {
		idx := near[r.Intn(len(near))]
		if r.Intn(4) == 0 {
			idx = r.Int31n(n - 1)
		}
		in := add
		if m.text[idx].Op == sparc.Add {
			in = sparc.Branch(sparc.BA, r.Int31n(n))
		}
		if err := m.PatchInstr(idx, in); err != nil {
			t.Fatal(err)
		}
		fresh, _ := buildUops(m.text, nil, 0)
		for i := range fresh {
			if m.uops[i].bl != fresh[i].bl {
				t.Fatalf("patch %d at %d: block length at %d is %d, a fresh decode reads %d",
					k, idx, i, m.uops[i].bl, fresh[i].bl)
			}
			if fresh[i].slot >= 0 && m.uops[i].slot < 0 {
				t.Fatalf("patch %d at %d: %d heads a block of the fresh decode but not of the patched text", k, idx, i)
			}
		}
	}
}
