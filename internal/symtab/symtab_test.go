package symtab

import (
	"testing"

	"databreak/internal/asm"
	"databreak/internal/cfg"
	"databreak/internal/ir"
	"databreak/internal/minic"
)

func matchesFor(t *testing.T, csrc, fn string) (map[int]Match, *cfg.Func) {
	t.Helper()
	asmSrc, err := minic.Compile(csrc)
	if err != nil {
		t.Fatal(err)
	}
	u, err := asm.Parse("p.s", asmSrc)
	if err != nil {
		t.Fatal(err)
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
		if f.Name == fn {
			return MatchStores(ir.Build(f, syms), syms), f
		}
	}
	t.Fatalf("no function %q", fn)
	return nil, nil
}

func countByName(ms map[int]Match) map[string]int {
	out := make(map[string]int)
	for _, m := range ms {
		out[m.Sym.Name]++
	}
	return out
}

func TestLocalAndGlobalScalarsMatch(t *testing.T) {
	ms, _ := matchesFor(t, `
int g;
int main() {
	int x;
	x = 1;
	x = x + 2;
	g = x;
	return g;
}`, "main")
	names := countByName(ms)
	if names["x"] != 2 {
		t.Errorf("x matched %d stores, want 2 (%v)", names["x"], names)
	}
	if names["g"] != 1 {
		t.Errorf("g matched %d stores, want 1", names["g"])
	}
}

func TestConstantIndexedArrayElementMatches(t *testing.T) {
	// a[3] = 1 has a statically known address inside a's extent.
	ms, _ := matchesFor(t, `
int a[10];
int main() {
	a[3] = 1;
	return a[3];
}`, "main")
	names := countByName(ms)
	if names["a"] != 1 {
		t.Errorf("a matched %d stores, want 1 (%v)", names["a"], names)
	}
	for _, m := range ms {
		if m.Sym.Name == "a" && m.Off != 12 {
			t.Errorf("offset = %d, want 12", m.Off)
		}
	}
}

func TestComputedIndexDoesNotMatch(t *testing.T) {
	ms, f := matchesFor(t, `
int a[10];
int fill(int i) {
	a[i] = 1;
	return 0;
}
int main() { return fill(2); }`, "fill")
	for pos, m := range ms {
		if m.Sym.Name == "a" {
			t.Errorf("computed store at %d matched symbol a", pos)
		}
	}
	_ = f
}

func TestParamSpillMatchesParamSymbol(t *testing.T) {
	ms, _ := matchesFor(t, `
int f(int a, int b) { return a + b; }
int main() { return f(1, 2); }`, "f")
	names := countByName(ms)
	if names["a"] != 1 || names["b"] != 1 {
		t.Errorf("param spills matched %v, want a:1 b:1", names)
	}
}

func TestOutOfExtentWriteDoesNotMatch(t *testing.T) {
	// Store past the end of the symbol (pointer arithmetic beyond a scalar)
	// must not match it.
	src := `
main:
	save %sp, -96, %sp
	set g, %o0
	st %g0, [%o0+4]
	mov 0, %i0
	restore
	retl
	.stabs "main", func, main, 0
	.stabs "g", global, g, 4
	.data
g:	.word 0
pad: .word 0
`
	u := asm.MustParse("p.s", src)
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
	ms := MatchStores(ir.Build(fns[0], syms), syms)
	if len(ms) != 0 {
		t.Fatalf("out-of-extent store matched: %v", ms)
	}
}
