package ir

import (
	"testing"

	"databreak/internal/asm"
	"databreak/internal/cfg"
	"databreak/internal/minic"
	"databreak/internal/sparc"
)

func buildFunc(t *testing.T, csrc, fn string) (*Info, *cfg.Func, *asm.Unit) {
	t.Helper()
	asmSrc, err := minic.Compile(csrc)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	u, err := asm.Parse("p.s", asmSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fns, err := cfg.SplitFunctions(u)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	var syms []asm.Sym
	for _, it := range u.Items {
		if it.Kind == asm.ItemSymRec {
			syms = append(syms, it.Sym())
		}
	}
	for _, f := range fns {
		if f.Name == fn {
			return Build(f, syms), f, u
		}
	}
	t.Fatalf("function %q not found", fn)
	return nil, nil, nil
}

func slotByName(in *Info, name string) (int, bool) {
	for i, s := range in.Slots {
		if s.Sym.Name == name {
			return i, true
		}
	}
	return 0, false
}

func TestScalarLocalsBecomeSlots(t *testing.T) {
	in, _, _ := buildFunc(t, `
int main() {
	int i;
	int s;
	s = 0;
	for (i = 0; i < 10; i = i + 1) s = s + i;
	return s;
}`, "main")
	for _, name := range []string{"i", "s"} {
		if _, ok := slotByName(in, name); !ok {
			t.Errorf("local %q must be a convertible slot (slots: %+v)", name, in.Slots)
		}
	}
	if len(in.StoreSlot) == 0 || len(in.LoadSlot) == 0 {
		t.Fatal("slot accesses must be converted")
	}
}

func TestAddressTakenLocalNotConverted(t *testing.T) {
	in, _, _ := buildFunc(t, `
int deref(int *p) { return *p; }
int main() {
	int x;
	int y;
	x = 5;
	y = deref(&x);
	return y;
}`, "main")
	if _, ok := slotByName(in, "x"); ok {
		t.Fatal("address-taken local x must not be converted")
	}
	if _, ok := slotByName(in, "y"); !ok {
		t.Fatal("plain local y must still be converted")
	}
}

func TestGlobalScalarConversionAndCallKill(t *testing.T) {
	in, f, _ := buildFunc(t, `
int g;
int bump() { g = g + 1; return g; }
int main() {
	int a;
	g = 1;
	a = g;
	bump();
	a = a + g;
	return a;
}`, "main")
	slot, ok := slotByName(in, "g")
	if !ok {
		t.Fatal("global scalar g must be convertible")
	}
	// The load of g after the call must NOT see the value stored before the
	// call (calls kill global slots): find a converted load of g whose value
	// is Unknown.
	var sawUnknownLoad bool
	for pos, s := range in.LoadSlot {
		if s != slot {
			continue
		}
		// The loaded value is whatever the destination register got.
		_ = pos
	}
	// Inspect directly: after processing, at least one value should be a
	// post-call Unknown feeding an add.
	for _, v := range in.Vals {
		if v.replacedBy >= 0 {
			continue
		}
		if v.Kind == ValOp && v.Op == sparc.Add {
			for _, a := range v.Args {
				if in.Val(a).Kind == ValUnknown && in.Val(a).Pos >= 0 {
					sawUnknownLoad = true
				}
			}
		}
	}
	_ = f
	if !sawUnknownLoad {
		t.Fatal("global slot must be killed across calls")
	}
}

func TestGlobalAddressInDataEscapes(t *testing.T) {
	// A global whose address is materialized via &g escapes.
	in, _, _ := buildFunc(t, `
int g;
int *p;
int main() {
	p = &g;
	*p = 3;
	return g;
}`, "main")
	if _, ok := slotByName(in, "g"); ok {
		t.Fatal("global g with escaping address must not be converted")
	}
}

func TestInductionVariableVisibleAsPhi(t *testing.T) {
	in, f, _ := buildFunc(t, `
int a[100];
int main() {
	int i;
	for (i = 0; i < 100; i = i + 1) a[i] = i;
	return 0;
}`, "main")
	slot, ok := slotByName(in, "i")
	if !ok {
		t.Fatal("i must be a slot")
	}
	if len(f.Loops) != 1 {
		t.Fatalf("loops = %d", len(f.Loops))
	}
	header := f.Loops[0].Header
	// Find a phi in the loop header whose variable is i's slot: it must
	// have one constant-0 arg and one arg of the form phi+1.
	var found bool
	for _, v := range in.Vals {
		if v.replacedBy >= 0 || v.Kind != ValPhi || v.Block != header {
			continue
		}
		_ = slot
		hasInit, hasStep := false, false
		for _, a := range v.Args {
			av := in.Val(a)
			if av.Kind == ValConst && av.Const == 0 {
				hasInit = true
			}
			if av.Kind == ValOp && (av.Op == sparc.Add) {
				x, y := in.Val(av.Args[0]), in.Val(av.Args[1])
				if (x.ID == in.Resolve(v.ID) && y.Kind == ValConst && y.Const == 1) ||
					(y.ID == in.Resolve(v.ID) && x.Kind == ValConst && x.Const == 1) {
					hasStep = true
				}
			}
		}
		if hasInit && hasStep {
			found = true
		}
	}
	if !found {
		t.Fatal("induction variable i must appear as phi(0, phi+1) in the header")
	}
}

func TestStoreAddressShapes(t *testing.T) {
	in, f, _ := buildFunc(t, `
int g;
int arr[10];
int main() {
	int x;
	int i;
	x = 1;
	g = 2;
	for (i = 0; i < 10; i = i + 1) arr[i] = 0;
	return x;
}`, "main")
	var fpStores, symExact, symArray int
	for p := range in.AddrOf {
		if !f.Instruction(p).Op.IsStore() {
			continue
		}
		sh := in.ShapeOf(in.AddrOf[p])
		switch {
		case sh.FPRel && sh.Known:
			fpStores++
		case sh.Sym == "g" && sh.Known && sh.Off == 0:
			symExact++
		case sh.Sym == "arr" && !sh.Known:
			symArray++
		}
	}
	if fpStores == 0 {
		t.Error("expected fp-relative store shapes")
	}
	if symExact != 1 {
		t.Errorf("global scalar store shapes = %d, want 1", symExact)
	}
	if symArray == 0 {
		t.Error("expected a symbol+unknown-offset shape for the array store")
	}
}

func TestSymFolding(t *testing.T) {
	// set label, r expands to sethi+or; the value graph must fold it back
	// into a single symbolic address.
	src := `
main:
	save %sp, -96, %sp
	set target, %o0
	st %g0, [%o0+8]
	mov 0, %i0
	restore
	retl
	.stabs "main", func, main, 0
	.data
target:	.space 64
`
	u := asm.MustParse("p.s", src)
	fns, err := cfg.SplitFunctions(u)
	if err != nil {
		t.Fatal(err)
	}
	in := Build(fns[0], nil)
	var sawShape bool
	for p, a := range in.AddrOf {
		if !fns[0].Instruction(p).Op.IsStore() {
			continue
		}
		sh := in.ShapeOf(a)
		if sh.Sym == "target" && sh.Known && sh.Off == 8 {
			sawShape = true
		}
	}
	if !sawShape {
		t.Fatal("sethi/or of a label must fold to a symbolic address")
	}
}

func TestParamFlowsThroughSave(t *testing.T) {
	in, f, _ := buildFunc(t, `
int f(int a) { return a + 1; }
int main() { return f(41); }
`, "f")
	// The store of parameter a into its slot must store a ValParam of %o0.
	var ok bool
	for p, data := range in.DataOf {
		if !f.Instruction(p).Op.IsStore() {
			continue
		}
		v := in.Val(data)
		if v.Kind == ValParam && v.Reg == sparc.O0 {
			ok = true
		}
	}
	if !ok {
		t.Fatal("parameter spill must carry the caller's o0 value through save")
	}
}
