package machine

import (
	"reflect"
	"testing"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// Mid-triple hazard coverage for the three-instruction fused runs. Each test
// pins one way a fused triple can be interrupted after the run is
// compiled — a fault in a specific slot, a text patch landed by the triple's
// own hooked store, a monitored load clobbering its address register — and
// demands bit-identical state, counts, fault pc, and error text against a
// pure-Step reference on the compiled tier (the closure item stream). Every
// case first asserts, via the builder's own FusionPlan, that the hazard
// instruction really sits inside a width-3 item; otherwise a builder change
// could silently turn these into plain single-op tests.

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
// is pinned to the triple shape it claims to exercise.
func wantWidths(t *testing.T, body []sparc.Instr, want []int8) {
	t.Helper()
	if got := FusionPlan(body); !reflect.DeepEqual(got, want) {
		t.Fatalf("fusion plan = %v, want %v (test no longer covers the intended triple)", got, want)
	}
}

// slotFaultLoop builds the shared skeleton of the slot-fault tests: a loop
// whose load address is DataBase plus (iteration>>4)<<1 — word-aligned for
// the first 16 iterations (the loop compiles on its first entry), then offset 2,
// so the fused load faults from inside a long-since-compiled triple.
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

// TestDifferentialTripleSlotFaults faults the fused load in each slot
// position a triple can carry one: slot 1 (tLdSllAdd and the RMW tLdAddSt),
// slot 2 (tOrLdSll), and slot 3 (tSllAddLd). The store slot of the RMW
// triples can never be first to fault: fusion requires sameAddr with the
// load slot, so an unaligned store address always faults at the LOAD pc —
// the tLdAddSt case pins exactly that attribution.
func TestDifferentialTripleSlotFaults(t *testing.T) {
	barrier := sparc.RR(sparc.Xor, sparc.G0, sparc.G0, sparc.G3)
	cases := []struct {
		name   string
		mid    []sparc.Instr
		widths []int8 // tiling of [counter add .. subcc] inclusive
	}{
		{"slot1 tLdSllAdd", []sparc.Instr{
			sparc.RI(sparc.Sll, sparc.O5, 1, sparc.L1),
			sparc.RR(sparc.Add, sparc.L0, sparc.L1, sparc.L2),
			barrier, // keeps the ld out of the sll/add window above
			{Op: sparc.Ld, Rd: sparc.O3, Rs1: sparc.L2, UseImm: true},
			sparc.RI(sparc.Sll, sparc.O3, 2, sparc.O4),
			sparc.RI(sparc.Add, sparc.O4, 0, sparc.O6),
		}, []int8{1, 1, 2, 1, 3, 1}},
		{"slot1 tLdAddSt", []sparc.Instr{
			sparc.RI(sparc.Sll, sparc.O5, 1, sparc.L1),
			sparc.RR(sparc.Add, sparc.L0, sparc.L1, sparc.L2),
			barrier,
			{Op: sparc.Ld, Rd: sparc.O3, Rs1: sparc.L2, UseImm: true},
			sparc.RI(sparc.Add, sparc.O3, 1, sparc.O3),
			{Op: sparc.St, Rd: sparc.O3, Rs1: sparc.L2, UseImm: true},
		}, []int8{1, 1, 2, 1, 3, 1}},
		{"slot2 tOrLdSll", []sparc.Instr{
			sparc.RI(sparc.Sll, sparc.O5, 1, sparc.L1),
			sparc.RR(sparc.Add, sparc.L0, sparc.L1, sparc.L2),
			sparc.RI(sparc.Or, sparc.L2, 0, sparc.L3),
			{Op: sparc.Ld, Rd: sparc.O3, Rs1: sparc.L3, UseImm: true},
			sparc.RI(sparc.Sll, sparc.O3, 2, sparc.O4),
		}, []int8{1, 1, 2, 3, 1}},
		{"slot3 tSllAddLd", []sparc.Instr{
			barrier, // keeps the sll window off the srl above
			sparc.RI(sparc.Sll, sparc.O5, 1, sparc.L1),
			sparc.RR(sparc.Add, sparc.L0, sparc.L1, sparc.L2),
			{Op: sparc.Ld, Rd: sparc.O3, Rs1: sparc.L2, UseImm: true},
		}, []int8{1, 1, 1, 3, 1}},
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
// of an RMW triple's OWN store slot, overwriting the add the same triple
// already consumed this pass. The store must commit, the run exit, the
// compiled artifacts invalidate, and every later iteration use the patched
// stride — on both compiled tiers, matching Step exactly.
func TestDifferentialPatchInTripleStore(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RR(sparc.Xor, sparc.G0, sparc.G0, sparc.G3),
		{Op: sparc.Ld, Rd: sparc.O2, Rs1: sparc.L0, UseImm: true}, // tLdAddSt
		sparc.RI(sparc.Add, sparc.O2, 1, sparc.O2),                // patched mid-flight
		{Op: sparc.St, Rd: sparc.O2, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	wantWidths(t, text[1:7], []int8{1, 3, 1, 1})
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

// TestDifferentialMonitoredClobberLoadInTriple monitors (LoadHook) a fused
// run whose slot-3 load clobbers its own address register (ld [%l2], %l2 —
// the pointer-chase shape LoadClobbersAddress exists for). The hook must
// observe the PRE-clobber effective address for every load, in Step's exact
// order, on both compiled tiers.
func TestDifferentialMonitoredClobberLoadInTriple(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		sparc.RI(sparc.Srl, sparc.O1, 2, sparc.O5),
		sparc.RR(sparc.Xor, sparc.G0, sparc.G0, sparc.G3),
		sparc.RI(sparc.Sll, sparc.O5, 2, sparc.L1), // tSllAddLd
		sparc.RR(sparc.Add, sparc.L0, sparc.L1, sparc.L2),
		{Op: sparc.Ld, Rd: sparc.L2, Rs1: sparc.L2, UseImm: true}, // clobbers %l2
		sparc.RI(sparc.Subcc, sparc.O1, 60, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	wantWidths(t, text[1:8], []int8{1, 1, 1, 3, 1})

	addrs := map[*Machine][]uint32{}
	var ms []*Machine
	setup := func(m *Machine) {
		ms = append(ms, m)
		m.LoadHook = func(addr uint32, size int32) int64 {
			addrs[m] = append(addrs[m], addr)
			return 0
		}
	}
	diffRunCompiled(t, "monitored clobber load in triple", text, setup)
	// diffRunCompiled creates (step, engine) pairs in order; every machine must
	// have seen the same address stream.
	if len(ms) < 2 {
		t.Fatal("no machines recorded")
	}
	want := addrs[ms[0]]
	if len(want) == 0 {
		t.Fatal("reference machine recorded no monitored loads")
	}
	for _, m := range ms[1:] {
		if !reflect.DeepEqual(addrs[m], want) {
			t.Fatalf("monitored address stream diverged: %v vs %v", addrs[m], want)
		}
	}
}
