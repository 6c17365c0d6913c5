package machine

import (
	"math/rand"
	"reflect"
	"testing"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// These tests pin the central invariant of the execution engines: a
// single-Step loop and Run() are observationally identical — same registers,
// same output, same simulated Cycles()/Instrs(), same cache statistics, same
// faults — on any text, including text patched while a compiled closure is
// executing. The random, fault and mid-run patch tests here run the closure
// engine over private text in short RunFor slices, so compiled passes and
// the Step fallback interleave; their TestDifferentialClosure* and *Closure
// twins in closure_test.go run the same programs in one Run. The
// patch-in-trace tests here run over a shared image, where a patch
// copy-on-write privatizes the slots.

// stepAll drives m with the single-instruction path until it halts or faults.
func stepAll(m *Machine) error {
	for !m.halted {
		if uint32(m.pc) >= uint32(len(m.text)) {
			return &Fault{PC: m.pc, Reason: "pc outside text"}
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	return nil
}

// diffStates fails the test unless a (stepped) and b (run) agree on
// every observable: termination, errors, all 32 registers, condition codes,
// pc, counts, output, counters, and cache statistics.
func diffStates(t *testing.T, ctx string, a, b *Machine, errA, errB error) {
	t.Helper()
	switch {
	case (errA == nil) != (errB == nil):
		t.Fatalf("%s: step err=%v, run err=%v", ctx, errA, errB)
	case errA != nil && errA.Error() != errB.Error():
		t.Fatalf("%s: step err %q, run err %q", ctx, errA, errB)
	}
	if a.Halted() != b.Halted() || a.ExitCode() != b.ExitCode() {
		t.Fatalf("%s: halted/exit mismatch: step (%v,%d) run (%v,%d)",
			ctx, a.Halted(), a.ExitCode(), b.Halted(), b.ExitCode())
	}
	if a.PC() != b.PC() {
		t.Fatalf("%s: pc mismatch: step %d run %d", ctx, a.PC(), b.PC())
	}
	for r := sparc.Reg(0); r < sparc.NumRegs; r++ {
		if a.Reg(r) != b.Reg(r) {
			t.Fatalf("%s: %s mismatch: step %d run %d", ctx, r, a.Reg(r), b.Reg(r))
		}
	}
	if a.ccb != b.ccb {
		t.Fatalf("%s: cc mismatch: step %v run %v", ctx, ccFromBits(a.ccb), ccFromBits(b.ccb))
	}
	if a.Instrs() != b.Instrs() {
		t.Fatalf("%s: instrs mismatch: step %d run %d", ctx, a.Instrs(), b.Instrs())
	}
	if a.Cycles() != b.Cycles() {
		t.Fatalf("%s: cycles mismatch: step %d run %d (over %d instrs)",
			ctx, a.Cycles(), b.Cycles(), a.Instrs())
	}
	if a.Output() != b.Output() {
		t.Fatalf("%s: output mismatch: step %q run %q", ctx, a.Output(), b.Output())
	}
	if !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Fatalf("%s: counters mismatch: step %v run %v", ctx, a.Counters, b.Counters)
	}
	if a.CacheStats() != b.CacheStats() {
		t.Fatalf("%s: cache stats mismatch:\nstep %+v\nrun  %+v", ctx, a.CacheStats(), b.CacheStats())
	}
}

// diffRun loads text into two fresh machines and executes one via Step and
// one under the closure engine (runSliced), then compares every
// observable. It returns the closure-engine machine.
func diffRun(t *testing.T, ctx string, text []sparc.Instr, budget func() int64) *Machine {
	t.Helper()
	a := New(cache.DefaultConfig, DefaultCosts)
	b := New(cache.DefaultConfig, DefaultCosts)
	a.SetCounterCount(4)
	b.SetCounterCount(4)
	a.LoadText(text, 0)
	b.LoadText(text, 0)
	errA := stepAll(a)
	errB := runSliced(b, budget)
	diffStates(t, ctx, a, b, errA, errB)
	return b
}

// runSliced runs m until it halts or faults: in one Run when budget is nil,
// otherwise in RunFor slices of budget() instructions each. A closure is
// entered only when its whole pass fits what is left of a slice, so short
// slices hand the rest of each one to Step.
func runSliced(m *Machine, budget func() int64) error {
	if budget == nil {
		_, err := m.Run()
		return err
	}
	for !m.halted {
		if _, _, err := m.RunFor(budget()); err != nil {
			return err
		}
	}
	return nil
}

// randText generates a terminating program: straight-line ALU, memory, and
// counted instructions mixed with forward-only branches and calls, ending in
// an exit trap. Forward-only control transfer guarantees termination for any
// condition-code history.
func randText(r *rand.Rand, n int) []sparc.Instr {
	regs := []sparc.Reg{
		sparc.G1, sparc.G2, sparc.G3,
		sparc.O0, sparc.O1, sparc.O2, sparc.O3, sparc.O4, sparc.O5,
		sparc.L1, sparc.L2, sparc.L3, sparc.L4, sparc.L5,
		sparc.I0, sparc.I1, sparc.I2,
	}
	evenRegs := []sparc.Reg{sparc.O0, sparc.O2, sparc.O4, sparc.L2, sparc.L4, sparc.I0, sparc.I2}
	alu := []sparc.Op{
		sparc.Add, sparc.Sub, sparc.And, sparc.Andn, sparc.Or, sparc.Orn,
		sparc.Xor, sparc.Xnor, sparc.Sll, sparc.Srl, sparc.Sra, sparc.SMul,
		sparc.Addcc, sparc.Subcc, sparc.Andcc, sparc.Andncc, sparc.Orcc, sparc.Xorcc,
	}
	pick := func() sparc.Reg { return regs[r.Intn(len(regs))] }

	// %l0 holds the data base for every memory op.
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
	}
	for len(text) < n {
		i := int32(len(text))
		var in sparc.Instr
		switch k := r.Intn(100); {
		case k < 40:
			op := alu[r.Intn(len(alu))]
			if r.Intn(2) == 0 {
				in = sparc.RR(op, pick(), pick(), pick())
			} else {
				in = sparc.RI(op, pick(), int32(r.Intn(8192)-4096), pick())
			}
		case k < 52:
			in = sparc.Instr{Op: sparc.Ld, Rd: pick(), Rs1: sparc.L0,
				Imm: int32(r.Intn(1024)) * 4, UseImm: true}
		case k < 64:
			in = sparc.Instr{Op: sparc.St, Rd: pick(), Rs1: sparc.L0,
				Imm: int32(r.Intn(1024)) * 4, UseImm: true}
		case k < 68:
			op := sparc.Ldd
			if r.Intn(2) == 0 {
				op = sparc.Std
			}
			in = sparc.Instr{Op: op, Rd: evenRegs[r.Intn(len(evenRegs))],
				Rs1: sparc.L0, Imm: int32(r.Intn(512)) * 8, UseImm: true}
		case k < 72:
			in = sparc.Instr{Op: sparc.Sethi, Rd: pick(),
				Imm: int32(r.Intn(1 << 20)), UseImm: true}
		case k < 76:
			d := int32(r.Intn(200) - 100)
			if d == 0 {
				d = 7
			}
			in = sparc.RI(sparc.SDiv, pick(), d, pick())
		case k < 88:
			in = sparc.Instr{Op: sparc.Br, Cond: sparc.Cond(r.Intn(16)),
				Target: i + 1 + int32(r.Intn(6))}
		case k < 92:
			in = sparc.Instr{Op: sparc.Call, Target: i + 1 + int32(r.Intn(6))}
		default:
			in = sparc.Instr{Op: sparc.Nop}
		}
		if r.Intn(5) == 0 {
			in.Count = int32(r.Intn(4)) + 1
		}
		text = append(text, in)
	}
	exit := int32(len(text))
	for i := range text {
		switch text[i].Op {
		case sparc.Br, sparc.Call:
			if text[i].Target > exit {
				text[i].Target = exit
			}
		}
	}
	return append(text, sparc.Instr{Op: sparc.Ta, Imm: TrapExit, UseImm: true})
}

// TestDifferentialRandomPrograms runs many randomized instruction sequences
// through Step and through the closure engine in RunFor slices of 1 to 64
// instructions, and demands identical observables.
func TestDifferentialRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		text := randText(r, 80+r.Intn(400))
		budget := func() int64 { return 1 + r.Int63n(64) }
		diffRun(t, "seed "+string(rune('0'+seed%10))+"/len", text, budget)
	}
}

// faultCase is one program of the fault matrix.
type faultCase struct {
	name string
	text []sparc.Instr
}

// faultCases is the fault matrix: each program faults, or runs off the end
// of its text, before its exit trap. The "in loop" programs fault only
// after their loop has run, so under the closure engine they fault from
// inside a compiled closure chain.
func faultCases() []faultCase {
	base := sparc.Instr{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true}
	textAlign := sparc.Instr{Op: sparc.Sethi, Rd: sparc.G1, Imm: int32(TextBase >> 10), UseImm: true}
	return []faultCase{
		{"unaligned load", []sparc.Instr{
			base,
			sparc.RI(sparc.Add, sparc.L0, 2, sparc.L1),
			{Op: sparc.Ld, Rd: sparc.O0, Rs1: sparc.L1, UseImm: true},
			{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		}},
		{"unaligned store", []sparc.Instr{
			base,
			sparc.RI(sparc.Or, sparc.G0, 1, sparc.O1),
			{Op: sparc.St, Rd: sparc.O1, Rs1: sparc.L0, Imm: 6, UseImm: true},
			{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		}},
		{"division by zero", []sparc.Instr{
			sparc.RI(sparc.Or, sparc.G0, 100, sparc.O1),
			sparc.RR(sparc.SDiv, sparc.O1, sparc.G0, sparc.O2),
			{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		}},
		{"ldd odd destination", []sparc.Instr{
			base,
			{Op: sparc.Ldd, Rd: sparc.O1, Rs1: sparc.L0, UseImm: true},
			{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		}},
		{"std odd source", []sparc.Instr{
			base,
			{Op: sparc.Std, Rd: sparc.L3, Rs1: sparc.L0, UseImm: true},
			{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		}},
		{"jmpl misaligned target", []sparc.Instr{
			textAlign,
			sparc.RI(sparc.Add, sparc.G1, 2, sparc.G1),
			{Op: sparc.Jmpl, Rd: sparc.G0, Rs1: sparc.G1, UseImm: true},
			{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		}},
		{"jmpl below text", []sparc.Instr{
			{Op: sparc.Jmpl, Rd: sparc.G0, Rs1: sparc.G0, UseImm: true},
			{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		}},
		{"jmpl past text", []sparc.Instr{
			textAlign,
			{Op: sparc.Jmpl, Rd: sparc.G0, Rs1: sparc.G1, Imm: 4096, UseImm: true},
			{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		}},
		{"branch past text", []sparc.Instr{
			sparc.Branch(sparc.BA, 1000),
			{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		}},
		{"run off the end", []sparc.Instr{
			sparc.RI(sparc.Add, sparc.G0, 1, sparc.O0),
			sparc.RI(sparc.Add, sparc.O0, 1, sparc.O0),
		}},
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
}

// TestDifferentialFaults checks that Step and the closure engine, run in
// RunFor slices of 1, 2 and 5 instructions in turn, fault identically: same
// error text, same pc, and same cycle and instruction counts at the fault,
// whether a closure or Step raises it.
func TestDifferentialFaults(t *testing.T) {
	for _, c := range faultCases() {
		t.Run(c.name, func(t *testing.T) {
			sizes, i := []int64{1, 2, 5}, 0
			budget := func() int64 { i++; return sizes[i%len(sizes)] }
			diffRun(t, c.name, c.text, budget)
		})
	}
}

// TestDifferentialPatchMidRun patches text from a StoreHook while the store's
// own block is executing: the patched instruction sits later in the block
// currently running, in a closure or under Step. Both machines run the same
// hook, so any divergence means the run missed the invalidation. The
// closure engine runs in RunFor slices of 1 to 8 instructions, so the loop's
// passes (4 instructions) alternate between closures and Step. Each machine
// loads its own copy of the text: LoadText aliases the caller's slice and
// PatchInstr writes through it.
func TestDifferentialPatchMidRun(t *testing.T) {
	// Loop storing %o1 and incrementing it; after the 5th store the hook
	// rewrites the increment (index 2, directly after the store at index 1
	// inside the same straight-line block) from +1 to +3.
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		{Op: sparc.St, Rd: sparc.O1, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	patched := sparc.RI(sparc.Add, sparc.O1, 3, sparc.O1)

	mk := func() (*Machine, *int) {
		m := New(cache.DefaultConfig, DefaultCosts)
		m.LoadText(append([]sparc.Instr(nil), text...), 0)
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
		return m, &stores
	}

	a, storesA := mk()
	b, storesB := mk()
	errA := stepAll(a)
	r := rand.New(rand.NewSource(1))
	errB := runSliced(b, func() int64 { return 1 + r.Int63n(8) })
	diffStates(t, "patch mid-run", a, b, errA, errB)
	if *storesA != *storesB {
		t.Fatalf("store hook fired %d times under Step, %d under Run", *storesA, *storesB)
	}
	if got := a.Reg(sparc.O1); got < 100 || got > 102 {
		t.Fatalf("final %%o1 = %d, want the patched +3 stride past 100", got)
	}
	if *storesA >= 100 {
		t.Fatalf("hook fired %d times; patch to +3 stride apparently ignored", *storesA)
	}
}

// TestDifferentialPatchInTrace is TestDifferentialPatchMidRun against the
// compiled tier: both machines attach to a shared Image, so the store
// executes inside an image closure, published on the run's first entry of
// the loop head, when the hook patches an instruction the closure has
// already consumed. The closure must commit exactly the store, exit to the
// dispatcher, and re-dispatch against the privatized text.
func TestDifferentialPatchInTrace(t *testing.T) {
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

	mk := func() *Machine {
		m := New(cache.DefaultConfig, DefaultCosts)
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

	a, b := mk(), mk()
	errA := stepAll(a)
	_, errB := b.Run()
	diffStates(t, "patch in trace", a, b, errA, errB)
	if b.img != nil {
		t.Fatal("patching machine still marked shared after PatchInstr")
	}
	// The run published the loop head before its hook patched; the patch
	// privatized the machine and must leave the published closure in place.
	if published(img.traces, img.uops, 1) == nil {
		t.Fatal("image lost the loop trace the run published before patching")
	}
	// The loop head's closure covered the patch: the patcher dropped it and
	// rebuilt it from the patched text, never touching the image's.
	if published(b.traces, b.uops, 1) == published(img.traces, img.uops, 1) {
		t.Fatal("patcher kept the image's trace over the patched index")
	}
	if s := MachineTraceMismatch(b); s != "" {
		t.Fatal(s)
	}
	if got := b.Reg(sparc.O1); got < 100 || got > 102 {
		t.Fatalf("final %%o1 = %d, want the patched +3 stride past 100", got)
	}
}

// TestDifferentialPatchInFusedStore drives the same hazard through a fused
// add+st item (tAddSt) of a shared image's closure: the hook fires from the
// second half of a fused pair and patches the pair's own first instruction,
// so the mid-pair patch-exit protocol must commit both halves and land pc
// just past the store.
func TestDifferentialPatchInFusedStore(t *testing.T) {
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

	mk := func() *Machine {
		m := New(cache.DefaultConfig, DefaultCosts)
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

	a, b := mk(), mk()
	errA := stepAll(a)
	_, errB := b.Run()
	diffStates(t, "patch in fused store", a, b, errA, errB)
}

// TestDifferentialWindowedCallTrace loops through a call -> save -> restore
// -> jmpl ring — the shape that exercises the compiled tier's interior
// window ops, the dynamic jmpl terminator, and trace linking across the
// return — over private text (LoadText) and over a shared image.
func TestDifferentialWindowedCallTrace(t *testing.T) {
	text := []sparc.Instr{
		sparc.RI(sparc.Or, sparc.G0, 0, sparc.O0),
		{Op: sparc.Call, Target: 5},
		sparc.RI(sparc.Subcc, sparc.O0, 200, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
		{Op: sparc.Save, Rd: sparc.G0, Rs1: sparc.G0, UseImm: true},
		sparc.RI(sparc.Add, sparc.I0, 1, sparc.I0),
		{Op: sparc.Restore, Rd: sparc.G0, Rs1: sparc.G0, UseImm: true},
		{Op: sparc.Jmpl, Rd: sparc.G0, Rs1: sparc.O7, UseImm: true},
	}
	diffRun(t, "windowed call loop", text, nil)

	// Same program from a shared image.
	img := BuildImage(text, 0)
	a := New(cache.DefaultConfig, DefaultCosts)
	b := New(cache.DefaultConfig, DefaultCosts)
	a.LoadImage(img)
	b.LoadImage(img)
	errA := stepAll(a)
	_, errB := b.Run()
	diffStates(t, "windowed call loop (image)", a, b, errA, errB)
}
