package elim

import (
	"testing"
	"unsafe"

	"databreak/internal/asm"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/minic"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/sparc"
)

type world struct {
	prog *asm.Program
	m    *machine.Machine
	svc  *monitor.Service
	rt   *Runtime
	res  *Result
}

func build(t *testing.T, mode Mode, csrc string) *world {
	t.Helper()
	asmSrc, err := minic.Compile(csrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	u, err := asm.Parse("p.s", asmSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := Apply(Options{Mode: mode}, u)
	if err != nil {
		t.Fatalf("elim: %v", err)
	}
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(m)
	svc, err := monitor.NewService(monitor.DefaultConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime(m, prog, res)
	return &world{prog: prog, m: m, svc: svc, rt: rt, res: res}
}

const loopProg = `
int a[200];
int total;
int main() {
	int i;
	int n;
	n = 200;
	for (i = 0; i < n; i = i + 1) a[i] = i;
	total = a[199];
	return total;
}
`

func TestProgramStillCorrect(t *testing.T) {
	for _, mode := range []Mode{SymOnly, Full} {
		w := build(t, mode, loopProg)
		code, err := w.m.Run()
		if err != nil {
			t.Fatalf("%v: run: %v", mode, err)
		}
		if code != 199 {
			t.Fatalf("%v: exit = %d, want 199", mode, code)
		}
	}
}

func TestSymbolEliminationCounters(t *testing.T) {
	w := build(t, SymOnly, loopProg)
	// Keep one far-away region live so the disabled flag is clear.
	if err := w.svc.CreateRegion(machine.HeapBase+0x1000, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := w.m.Run(); err != nil {
		t.Fatal(err)
	}
	elim := w.prog.Counter(w.m, CounterElimSym)
	checked := w.prog.Counter(w.m, patch.CounterChecks)
	if elim == 0 {
		t.Fatal("symbol elimination removed no dynamic checks")
	}
	// Scalar stores (i, n, total) are known; the array stores are not.
	if checked == 0 {
		t.Fatal("array stores must remain checked in Sym mode")
	}
	if w.prog.Counter(w.m, CounterFpChecks) == 0 {
		t.Fatal("fp-definition checks must execute")
	}
	if w.prog.Counter(w.m, CounterJmpChecks) == 0 {
		t.Fatal("indirect-jump checks must execute")
	}
}

func TestLoopEliminationRemovesArrayChecks(t *testing.T) {
	w := build(t, Full, loopProg)
	if err := w.svc.CreateRegion(machine.HeapBase+0x1000, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := w.m.Run(); err != nil {
		t.Fatal(err)
	}
	rangeElim := w.prog.Counter(w.m, CounterElimRange)
	if rangeElim < 190 {
		t.Fatalf("range elimination covered %d dynamic writes, want ~200", rangeElim)
	}
	gen := w.prog.Counter(w.m, CounterGenRange)
	if gen != 1 {
		t.Fatalf("range pre-header checks executed %d times, want 1", gen)
	}
	if w.rt.ArmEvents != 0 {
		t.Fatal("no re-insertion events expected with a far-away region")
	}
}

func TestRangeHitReinsertsChecksAndDetectsHits(t *testing.T) {
	w := build(t, Full, loopProg)
	// Monitor a[100] (the a array lives at its global label).
	sym, ok := w.prog.LookupSym("a", "")
	if !ok {
		t.Fatal("no symbol a")
	}
	target := sym.Addr + 100*4
	if err := w.svc.CreateRegion(target, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := w.m.Run(); err != nil {
		t.Fatal(err)
	}
	if w.rt.ArmEvents == 0 {
		t.Fatal("pre-header range check must fire and arm the site")
	}
	if len(w.svc.Hits) != 1 || w.svc.Hits[0].Addr != target {
		t.Fatalf("hits = %+v, want exactly one at %#x", w.svc.Hits, target)
	}
	// Program result must be unaffected by the detour through the patch
	// block.
	if w.m.ExitCode() != 199 {
		t.Fatalf("exit = %d, want 199", w.m.ExitCode())
	}
	if w.rt.ArmedSites() == 0 {
		t.Fatal("site must remain armed")
	}
	w.rt.DisarmLoops()
	if w.rt.ArmedSites() != 0 {
		t.Fatal("DisarmLoops must restore every site")
	}
}

func TestPreMonitorSymbolDetectsKnownWrites(t *testing.T) {
	w := build(t, Full, loopProg)
	// total is written once by a known (symbol-matched) store whose check
	// was eliminated; PreMonitor must arm it.
	if err := w.rt.PreMonitorSymbol(w.svc, "total"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.m.Run(); err != nil {
		t.Fatal(err)
	}
	found := false
	sym, _ := w.prog.LookupSym("total", "")
	for _, h := range w.svc.Hits {
		if h.Addr == sym.Addr {
			found = true
		}
	}
	if !found {
		t.Fatalf("write to total not detected; hits = %+v", w.svc.Hits)
	}
	if err := w.rt.PostMonitorSymbol(w.svc, "total"); err != nil {
		t.Fatal(err)
	}
	// Loop sites may also have been armed: total lies in the same summary
	// granule as the tail of a, so the conservative range check fires.
	w.rt.DisarmLoops()
	if w.rt.ArmedSites() != 0 {
		t.Fatal("PostMonitor + DisarmLoops must disarm every site")
	}
}

func TestUnarmedKnownWriteIsMissedByDesign(t *testing.T) {
	// Without PreMonitor, an eliminated known write executes unchecked:
	// creating the region alone is not enough. This is the documented MRS
	// contract (the debugger must call PreMonitor for known writes).
	w := build(t, Full, loopProg)
	sym, _ := w.prog.LookupSym("total", "")
	if err := w.svc.CreateRegion(sym.Addr, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := w.m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, h := range w.svc.Hits {
		if h.Addr == sym.Addr {
			t.Fatal("eliminated site fired without being armed: checks were not actually eliminated")
		}
	}
}

func TestInvariantPointerStoreElimination(t *testing.T) {
	src := `
int a[100];
int fill(int k) {
	int i;
	int *p;
	p = &a[k];
	for (i = 0; i < 50; i = i + 1) {
		*p = i;
	}
	return a[k];
}
int main() { return fill(7); }
`
	w := build(t, Full, src)
	if err := w.svc.CreateRegion(machine.HeapBase+0x1000, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := w.m.Run(); err != nil {
		t.Fatal(err)
	}
	if w.m.ExitCode() != 49 {
		t.Fatalf("exit = %d, want 49", w.m.ExitCode())
	}
	if w.prog.Counter(w.m, CounterElimLI) < 50 {
		t.Fatalf("LI elimination = %d dynamic writes, want 50",
			w.prog.Counter(w.m, CounterElimLI))
	}
	if w.prog.Counter(w.m, CounterGenLI) != 1 {
		t.Fatalf("LI pre-header executed %d times, want 1",
			w.prog.Counter(w.m, CounterGenLI))
	}
}

func TestLIHitReinsertion(t *testing.T) {
	src := `
int a[100];
int fill(int k) {
	int i;
	int *p;
	p = &a[k];
	for (i = 0; i < 50; i = i + 1) {
		*p = i;
	}
	return a[k];
}
int main() { return fill(7); }
`
	w := build(t, Full, src)
	sym, _ := w.prog.LookupSym("a", "")
	if err := w.svc.CreateRegion(sym.Addr+7*4, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := w.m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(w.svc.Hits) != 50 {
		t.Fatalf("hits = %d, want 50 (every loop write)", len(w.svc.Hits))
	}
}

func TestRegisterVarsNeedNoElimination(t *testing.T) {
	src := `
int out;
int main() {
	register int i;
	register int s;
	s = 0;
	for (i = 0; i < 100; i = i + 1) s = s + i;
	out = s;
	return 0;
}
`
	w := build(t, Full, src)
	if err := w.svc.CreateRegion(machine.HeapBase+0x1000, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := w.m.Run(); err != nil {
		t.Fatal(err)
	}
	// Register-allocated code performs almost no stores: one to out.
	total := w.prog.Counter(w.m, CounterElimSym) +
		w.prog.Counter(w.m, CounterElimLI) +
		w.prog.Counter(w.m, CounterElimRange) +
		w.prog.Counter(w.m, patch.CounterChecks)
	if total > 2 {
		t.Fatalf("register-heavy code executed %d write events, want <= 2", total)
	}
	if w.m.Output() != "" {
		t.Fatal("unexpected output")
	}
}

func TestNestedLoopElimination(t *testing.T) {
	src := `
int m[400];
int main() {
	int i;
	int j;
	for (i = 0; i < 20; i = i + 1) {
		for (j = 0; j < 20; j = j + 1) {
			m[i * 20 + j] = i + j;
		}
	}
	return m[399];
}
`
	w := build(t, Full, src)
	if err := w.svc.CreateRegion(machine.HeapBase+0x1000, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := w.m.Run(); err != nil {
		t.Fatal(err)
	}
	if w.m.ExitCode() != 38 {
		t.Fatalf("exit = %d, want 38", w.m.ExitCode())
	}
	if w.prog.Counter(w.m, CounterElimRange) < 390 {
		t.Fatalf("nested range elimination = %d, want ~400",
			w.prog.Counter(w.m, CounterElimRange))
	}
	// Pre-header check per outer iteration: 20.
	if got := w.prog.Counter(w.m, CounterGenRange); got != 20 {
		t.Fatalf("inner pre-header executed %d times, want 20", got)
	}
}

func TestSymVsFullOverheadOnScientificLoop(t *testing.T) {
	// Full elimination must beat Sym-only on loop-dominated code.
	cycles := map[Mode]int64{}
	for _, mode := range []Mode{SymOnly, Full} {
		w := build(t, mode, loopProg)
		if err := w.svc.CreateRegion(machine.HeapBase+0x1000, 4); err != nil {
			t.Fatal(err)
		}
		if _, err := w.m.Run(); err != nil {
			t.Fatal(err)
		}
		cycles[mode] = w.m.Cycles()
	}
	if cycles[Full] >= cycles[SymOnly] {
		t.Fatalf("Full (%d cycles) must beat Sym (%d) on array loops",
			cycles[Full], cycles[SymOnly])
	}
}

func TestStoresOutsideFunctionsStayChecked(t *testing.T) {
	// Hand-written assembly without func records: every store must keep a
	// standard check (the conservative default).
	src := `
entry:
	save %sp, -96, %sp
	set cell, %o0
	st %g0, [%o0]
	mov 0, %o0
	ta 0
	.data
cell:	.word 1
`
	u := asm.MustParse("raw.s", src)
	res, err := Apply(Options{Mode: Full}, u)
	if err != nil {
		t.Fatal(err)
	}
	if res.StaticChecked != 0 || len(res.Sites) != 0 {
		// No function records means SplitFunctions found nothing; the store
		// falls through the per-item default.
		t.Logf("sites=%d checked=%d", len(res.Sites), res.StaticChecked)
	}
	prog, err := asm.Assemble(asm.Options{}, res.Units...)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(m)
	svc, err := monitor.NewService(monitor.DefaultConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.CreateRegion(machine.DataBase, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(svc.Hits) != 1 {
		t.Fatalf("hits = %d, want 1 (store must remain checked)", len(svc.Hits))
	}
}

func TestElimAcrossMultipleFunctions(t *testing.T) {
	src := `
int a[64];
int fillRange(int n) {
	int i;
	for (i = 0; i < n; i = i + 1) a[i] = i;
	return 0;
}
int touch(int k) {
	a[5] = k;
	return a[5];
}
int main() {
	fillRange(64);
	return touch(9);
}
`
	w := build(t, Full, src)
	sym, _ := w.prog.LookupSym("a", "")
	if err := w.svc.CreateRegion(sym.Addr+5*4, 4); err != nil {
		t.Fatal(err)
	}
	// touch writes a[5] via a known (constant) address: that site belongs
	// to symbol a, so arm it; fillRange's loop store is range-eliminated
	// and re-inserts itself via the pre-header.
	if err := w.rt.ArmSymbol("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.m.Run(); err != nil {
		t.Fatal(err)
	}
	if w.m.ExitCode() != 9 {
		t.Fatalf("exit = %d", w.m.ExitCode())
	}
	// Expect two hits on a[5]: one from the loop (re-inserted via range
	// check) and one from touch (armed symbol site).
	var hits int
	for _, h := range w.svc.Hits {
		if h.Addr == sym.Addr+5*4 {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("hits on a[5] = %d, want 2 (%+v)", hits, w.svc.Hits)
	}
}

// TestResultUnitsExactSize checks that every unit an elimination result
// keeps live — the rewritten program, the patch area and the library — is
// stored without append slack.
func TestResultUnitsExactSize(t *testing.T) {
	for _, mode := range []Mode{SymOnly, Full} {
		w := build(t, mode, loopProg)
		if len(w.res.Units) < 3 {
			t.Fatalf("%v: %d units, want program, patch area and library", mode, len(w.res.Units))
		}
		for _, u := range w.res.Units {
			if cap(u.Items) != len(u.Items) {
				t.Errorf("%v: unit %s has %d items in capacity %d", mode, u.Name, len(u.Items), cap(u.Items))
			}
		}
	}
}

// TestGeneratedItemsOwnTheirStrings checks that no string field of an item
// parsed from generated check text shares bytes with that text, so a
// retained Result does not pin the generated buffers.
func TestGeneratedItemsOwnTheirStrings(t *testing.T) {
	rw := &rewriter{opts: Options{Monitor: monitor.DefaultConfig}, res: &Result{}}
	jmpl := sparc.Instr{Op: sparc.Jmpl, Rd: sparc.G0, Rs1: sparc.I7, Imm: 8, UseImm: true}
	for _, src := range []string{rw.fpCheckText(true), rw.fpCheckText(false), rw.jmpCheckText(jmpl)} {
		u := rw.parseGen(src)
		if rw.err != nil {
			t.Fatal(rw.err)
		}
		lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
		hi := lo + uintptr(len(src))
		fields := 0
		for _, it := range u.Items {
			for _, f := range []string{it.TargetSym, it.ImmSym, it.CountName, it.Label, it.WordSym} {
				if f == "" {
					continue
				}
				fields++
				if p := uintptr(unsafe.Pointer(unsafe.StringData(f))); p >= lo && p < hi {
					t.Errorf("item string %q shares bytes with its generated source", f)
				}
			}
		}
		if fields == 0 {
			t.Fatalf("generated text %q parsed to no string fields", src)
		}
	}
}
