package machine

import (
	"reflect"
	"testing"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// Mid-item hazard coverage for fused runs. The programs were written for
// the three-instruction fused triples, which the builder no longer forms;
// they now tile into fused pairs, and each test pins one way a pair can be
// interrupted after the run is compiled — a fault in a specific slot, a
// text patch landed by the pair's own hooked store, a monitored load
// clobbering its address register — and demands bit-identical state,
// counts, fault pc, and error text against a pure-Step reference on the
// compiled tier (the closure item stream). Every case first asserts, via
// the builder's own FusionPlan, the tiling that puts the hazard where its
// comment says; otherwise a builder change could silently turn these into
// plain single-op tests.

// diffRunCompiled runs text against Step on every compiled engine, applying
// setup (hooks) to every machine, and checks that each compiled run held
// compiled traces at its end. Each
// machine loads its OWN copy of the text: LoadText aliases the caller's
// slice and PatchInstr writes through it, so the patch tests would otherwise
// leak one machine's patch into its reference.
func diffRunCompiled(t *testing.T, ctx string, text []sparc.Instr, setup func(*Machine)) {
	t.Helper()
	clone := func() []sparc.Instr { return append([]sparc.Instr(nil), text...) }
	for _, e := range []Engine{EngineClosure} {
		a := New(cache.DefaultConfig, DefaultCosts)
		b := New(cache.DefaultConfig, DefaultCosts)
		b.SetEngine(e)
		if setup != nil {
			setup(a)
			setup(b)
		}
		a.LoadText(clone(), 0)
		b.LoadText(clone(), 0)
		errA := stepAll(a)
		_, errB := b.Run()
		diffStates(t, ctx+" vs "+e.String(), a, b, errA, errB)
		if traceCount(b.traces) == 0 {
			t.Fatalf("%s vs %v: the run compiled no traces", ctx, e)
		}
	}
}

// wantWidths asserts the fusion tiling of a straight-line body so each test
// is pinned to the fused shape it claims to exercise.
func wantWidths(t *testing.T, body []sparc.Instr, want []int32) {
	t.Helper()
	if got := FusionPlan(body, 0, defaultLineShift()); !reflect.DeepEqual(got, want) {
		t.Fatalf("fusion plan = %v, want %v (test no longer covers the intended fused shape)", got, want)
	}
}

// slotFaultLoop builds the shared skeleton of the slot-fault tests: a loop
// whose load address is DataBase plus (iteration>>4)<<1 — word-aligned for
// the first 16 iterations (the loop compiles on its first entry), then offset 2,
// so the load faults from inside a long-since-compiled trace.
//
//	sethi %l0, DataBase
//	add %o1, 1, %o1     ; counter
//	srl %o1, 4, %o5     ; 0 while warm, 1 from iteration 16
//	<mid>               ; shape-specific body, computes/loads through %l1/%l2
//	subcc %o1, 64, %g0
//	bl 1
//	ta exit
func slotFaultLoop(mid []sparc.Instr) []sparc.Instr {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		sparc.RI(sparc.Srl, sparc.O1, 4, sparc.O5),
	}
	text = append(text, mid...)
	return append(text,
		sparc.RI(sparc.Subcc, sparc.O1, 64, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		sparc.Instr{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	)
}

// TestDifferentialTripleSlotFaults faults a load in each position the
// retired triples carried one, named after the triple each program was
// written for. Under pair fusion the load sits in a pair's first slot
// (slot1 tLdSllAdd: tLdSll; slot3 tSllAddLd: tLdCmp, behind a tSllAdd) or
// its second slot (slot2 tOrLdSll: tOrLd). In slot1 tLdAddSt the load
// stands alone ahead of an add+st pair (tAddSt) whose store names the same
// unaligned address: the fault must land at the LOAD pc, before the pair.
func TestDifferentialTripleSlotFaults(t *testing.T) {
	barrier := sparc.RR(sparc.Xor, sparc.G0, sparc.G0, sparc.G3)
	cases := []struct {
		name   string
		mid    []sparc.Instr
		widths []int32 // tiling of [counter add .. subcc] inclusive
	}{
		{"slot1 tLdSllAdd", []sparc.Instr{
			sparc.RI(sparc.Sll, sparc.O5, 1, sparc.L1),
			sparc.RR(sparc.Add, sparc.L0, sparc.L1, sparc.L2),
			barrier, // keeps the ld out of the sll/add window above
			{Op: sparc.Ld, Rd: sparc.O3, Rs1: sparc.L2, UseImm: true},
			sparc.RI(sparc.Sll, sparc.O3, 2, sparc.O4),
			sparc.RI(sparc.Add, sparc.O4, 0, sparc.O6),
		}, []int32{1, 1, 2, 1, 2, 1, 1}},
		{"slot1 tLdAddSt", []sparc.Instr{
			sparc.RI(sparc.Sll, sparc.O5, 1, sparc.L1),
			sparc.RR(sparc.Add, sparc.L0, sparc.L1, sparc.L2),
			barrier,
			{Op: sparc.Ld, Rd: sparc.O3, Rs1: sparc.L2, UseImm: true},
			sparc.RI(sparc.Add, sparc.O3, 1, sparc.O3),
			{Op: sparc.St, Rd: sparc.O3, Rs1: sparc.L2, UseImm: true},
		}, []int32{1, 1, 2, 1, 1, 2, 1}},
		{"slot2 tOrLdSll", []sparc.Instr{
			sparc.RI(sparc.Sll, sparc.O5, 1, sparc.L1),
			sparc.RR(sparc.Add, sparc.L0, sparc.L1, sparc.L2),
			sparc.RI(sparc.Or, sparc.L2, 0, sparc.L3),
			{Op: sparc.Ld, Rd: sparc.O3, Rs1: sparc.L3, UseImm: true},
			sparc.RI(sparc.Sll, sparc.O3, 2, sparc.O4),
		}, []int32{1, 1, 2, 2, 1, 1}},
		{"slot3 tSllAddLd", []sparc.Instr{
			barrier, // keeps the sll window off the srl above
			sparc.RI(sparc.Sll, sparc.O5, 1, sparc.L1),
			sparc.RR(sparc.Add, sparc.L0, sparc.L1, sparc.L2),
			{Op: sparc.Ld, Rd: sparc.O3, Rs1: sparc.L2, UseImm: true},
		}, []int32{1, 1, 1, 2, 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			text := slotFaultLoop(c.mid)
			wantWidths(t, text[1:len(text)-2], c.widths)
			diffRunCompiled(t, c.name, text, nil)
		})
	}
}

// TestDifferentialPatchInTripleStore lands a text patch from the StoreHook
// of a fused add+st pair's OWN store slot (tAddSt), overwriting the add in
// the same item's first slot, which already ran this pass. The store must
// commit, the run exit, the compiled artifacts invalidate, and every later
// iteration use the patched stride, matching Step exactly.
func TestDifferentialPatchInTripleStore(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RR(sparc.Xor, sparc.G0, sparc.G0, sparc.G3),
		{Op: sparc.Ld, Rd: sparc.O2, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Add, sparc.O2, 1, sparc.O2), // tAddSt, patched mid-flight
		{Op: sparc.St, Rd: sparc.O2, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	wantWidths(t, text[1:7], []int32{1, 1, 2, 1, 1})
	patched := sparc.RI(sparc.Add, sparc.O2, 7, sparc.O2)
	setup := func(m *Machine) {
		stores := 0
		m.StoreHook = func(addr uint32, size int32) int64 {
			stores++
			if stores == 9 {
				if err := m.PatchInstr(3, patched); err != nil {
					t.Fatalf("patch: %v", err)
				}
			}
			return 0
		}
	}
	diffRunCompiled(t, "patch in triple store", text, setup)
}

// TestDifferentialMonitoredClobberLoadInTriple runs a fused run whose load
// clobbers its own address register (ld [%l2], %l2 — the pointer-chase
// shape LoadClobbersAddress exists for) from the first slot of a ld+subcc
// pair (tLdCmp), right behind the sll+add pair (tSllAdd) that computed the
// address: the closure must match Step.
func TestDifferentialMonitoredClobberLoadInTriple(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		sparc.RI(sparc.Srl, sparc.O1, 2, sparc.O5),
		sparc.RR(sparc.Xor, sparc.G0, sparc.G0, sparc.G3),
		sparc.RI(sparc.Sll, sparc.O5, 2, sparc.L1), // tSllAdd
		sparc.RR(sparc.Add, sparc.L0, sparc.L1, sparc.L2),
		{Op: sparc.Ld, Rd: sparc.L2, Rs1: sparc.L2, UseImm: true}, // tLdCmp; clobbers %l2
		sparc.RI(sparc.Subcc, sparc.O1, 60, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	wantWidths(t, text[1:8], []int32{1, 1, 1, 2, 2})
	diffRunCompiled(t, "monitored clobber load in triple", text, nil)
}
