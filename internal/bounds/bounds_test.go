package bounds

import (
	"testing"

	"databreak/internal/asm"
	"databreak/internal/cfg"
	"databreak/internal/ir"
	"databreak/internal/minic"
	"databreak/internal/sparc"
)

func analyze(t *testing.T, csrc, fn string) (*ir.Info, *cfg.Func, []*LoopInfo) {
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
		t.Fatal(err)
	}
	var syms []asm.Sym
	for _, it := range u.Items {
		if it.Kind == asm.ItemSymRec {
			syms = append(syms, it.Sym())
		}
	}
	for _, f := range fns {
		if f.Name != fn {
			continue
		}
		info := ir.Build(f, syms)
		var lis []*LoopInfo
		for _, l := range f.Loops {
			lis = append(lis, AnalyzeLoop(info, l))
		}
		return info, f, lis
	}
	t.Fatalf("function %q not found", fn)
	return nil, nil, nil
}

// storeBounds returns the bounds of every unconverted store address in the
// loop.
func storeBounds(in *ir.Info, f *cfg.Func, li *LoopInfo) []Bounds {
	var out []Bounds
	for b := range li.Loop.Blocks {
		blk := f.Blocks[b]
		for p := blk.Start; p < blk.End; p++ {
			if !f.Instruction(p).Op.IsStore() {
				continue
			}
			if _, conv := in.StoreSlot[p]; conv {
				continue
			}
			out = append(out, li.BoundsOf(in.AddrOf[p], b))
		}
	}
	return out
}

func TestMonotonicDetection(t *testing.T) {
	_, _, lis := analyze(t, `
int a[100];
int main() {
	int i;
	for (i = 0; i < 100; i = i + 1) a[i] = i;
	return 0;
}`, "main")
	if len(lis) != 1 {
		t.Fatalf("loops = %d", len(lis))
	}
	li := lis[0]
	if len(li.Mono) != 1 {
		t.Fatalf("monotonic vars = %d, want 1 (%+v)", len(li.Mono), li.Mono)
	}
	for _, m := range li.Mono {
		if m.Step != 1 {
			t.Fatalf("step = %d, want 1", m.Step)
		}
		if li.In.Val(m.Init).Kind != ir.ValConst || li.In.Val(m.Init).Const != 0 {
			t.Fatalf("init = %+v, want const 0", li.In.Val(m.Init))
		}
	}
	if len(li.Asserts) == 0 {
		t.Fatal("loop condition must produce asserts")
	}
}

func TestDecreasingMonotonic(t *testing.T) {
	_, _, lis := analyze(t, `
int a[100];
int main() {
	int i;
	for (i = 99; i >= 0; i = i - 3) a[i] = i;
	return 0;
}`, "main")
	li := lis[0]
	if len(li.Mono) != 1 {
		t.Fatalf("monotonic vars = %d, want 1", len(li.Mono))
	}
	for _, m := range li.Mono {
		if m.Step != -3 {
			t.Fatalf("step = %d, want -3", m.Step)
		}
	}
}

func TestMonotonicArrayStoreIsFullyBounded(t *testing.T) {
	in, f, lis := analyze(t, `
int a[100];
int main() {
	int i;
	for (i = 0; i < 100; i = i + 1) a[i] = i;
	return 0;
}`, "main")
	bs := storeBounds(in, f, lis[0])
	if len(bs) != 1 {
		t.Fatalf("unconverted in-loop stores = %d, want 1", len(bs))
	}
	b := bs[0]
	if b.L.Kind == Bot || b.U.Kind == Bot {
		t.Fatalf("array store must be bounded on both sides: %+v", b)
	}
	// The lower bound comes from the monotonic init (L_M at best), the
	// upper from the assert (L_A).
	if b.L.Kind > KLI || b.U.Kind != KA {
		t.Fatalf("kinds = L:%v U:%v, want L<=L_LI and U=L_A", b.L.Kind, b.U.Kind)
	}
}

func TestInvariantAddressStore(t *testing.T) {
	in, f, lis := analyze(t, `
int a[100];
int g;
int main() {
	int i;
	int *p;
	p = &a[7];
	for (i = 0; i < 50; i = i + 1) {
		*p = i;
	}
	return 0;
}`, "main")
	bs := storeBounds(in, f, lis[0])
	var liCount int
	for _, b := range bs {
		if b.L.Kind >= KLI && b.U.Kind >= KLI {
			liCount++
		}
	}
	if liCount != 1 {
		t.Fatalf("loop-invariant-address stores = %d, want 1 (bounds: %+v)", liCount, bs)
	}
}

func TestVariableLimitFromSlot(t *testing.T) {
	// Loop limit held in a local: the assert limit must be materializable
	// by reloading the slot.
	in, f, lis := analyze(t, `
int a[100];
int fill(int n) {
	int i;
	for (i = 0; i < n; i = i + 1) a[i] = i;
	return 0;
}
int main() { return fill(60); }`, "fill")
	bs := storeBounds(in, f, lis[0])
	if len(bs) != 1 {
		t.Fatalf("stores = %d", len(bs))
	}
	if bs[0].U.Kind != KA {
		t.Fatalf("upper bound = %+v, want assert-derived", bs[0].U)
	}
	// The upper expr must involve a slot reload or constant chain.
	found := false
	var walk func(e *Expr)
	walk = func(e *Expr) {
		if e == nil {
			return
		}
		if e.Kind == ESlot && e.Slot.Sym.Name == "n" {
			found = true
		}
		for _, a := range e.Args {
			walk(a)
		}
	}
	walk(bs[0].U.Expr)
	_ = in
	_ = f
	if !found {
		t.Fatal("assert limit must reload slot n in the pre-header")
	}
}

func TestPointerWalkNotBounded(t *testing.T) {
	// A pointer loaded from memory each iteration has no bounds.
	in, f, lis := analyze(t, `
struct Node { int v; struct Node *next; };
int main() {
	struct Node *n;
	n = alloc(sizeof(struct Node));
	n->next = 0;
	while (n != 0) {
		n->v = 1;
		n = n->next;
	}
	return 0;
}`, "main")
	for _, li := range lis {
		for _, b := range storeBounds(in, f, li) {
			if b.L.Kind != Bot && b.U.Kind != Bot {
				t.Fatalf("pointer-chasing store must be unbounded, got %+v", b)
			}
		}
	}
}

func TestInvariantMemo(t *testing.T) {
	_, _, lis := analyze(t, `
int a[10];
int main() {
	int i;
	int base;
	base = 3;
	for (i = 0; i < 5; i = i + 1) a[base + i] = 0;
	return 0;
}`, "main")
	li := lis[0]
	// The monotonic phi is not invariant; its init is.
	for id, m := range li.Mono {
		if li.Invariant(id) {
			t.Fatal("monotonic phi must not be invariant")
		}
		if !li.Invariant(m.Init) {
			t.Fatal("monotonic init must be invariant")
		}
	}
}

func TestNestedLoopInnerBounds(t *testing.T) {
	in, f, lis := analyze(t, `
int m[400];
int main() {
	int i;
	int j;
	for (i = 0; i < 20; i = i + 1) {
		for (j = 0; j < 20; j = j + 1) {
			m[i * 20 + j] = i + j;
		}
	}
	return 0;
}`, "main")
	// Innermost loop first.
	inner := lis[0]
	if inner.Loop.Depth != 2 {
		t.Fatalf("first loop depth = %d, want 2 (inner)", inner.Loop.Depth)
	}
	bs := storeBounds(in, f, inner)
	if len(bs) != 1 {
		t.Fatalf("inner stores = %d", len(bs))
	}
	// In the inner loop, i is invariant (i's phi belongs to the outer
	// header) and j is monotonic: the store must be fully bounded.
	if bs[0].L.Kind == Bot || bs[0].U.Kind == Bot {
		t.Fatalf("inner store must be bounded: %+v", bs[0])
	}
}

func TestExprDepthAndOps(t *testing.T) {
	e := &Expr{Kind: EOp, Op: sparc.Add, Args: []*Expr{
		{Kind: ESym, Sym: "a"},
		{Kind: EOp, Op: sparc.Sll, Args: []*Expr{
			{Kind: EConst, Const: 5}, {Kind: EConst, Const: 2},
		}},
	}}
	if e.Depth() != 3 {
		t.Fatalf("depth = %d, want 3", e.Depth())
	}
}
