package asm

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/sparc"
)

func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	u, err := Parse("test.s", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Assemble(Options{AddStartup: true}, u)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func run(t *testing.T, src string) (*machine.Machine, int32) {
	t.Helper()
	p := mustAssemble(t, src)
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	p.Load(m)
	code, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m, code
}

func TestArithmeticAndReturn(t *testing.T) {
	_, code := run(t, `
main:
	save %sp, -96, %sp
	mov 20, %l0
	add %l0, 22, %l1
	mov %l1, %i0
	restore
	retl
`)
	if code != 42 {
		t.Fatalf("exit code = %d, want 42", code)
	}
}

func TestMemoryAndGlobals(t *testing.T) {
	m, code := run(t, `
main:
	save %sp, -96, %sp
	set counter, %o0
	ld [%o0], %o1
	add %o1, 5, %o1
	st %o1, [%o0]
	ld [%o0], %i0
	restore
	retl
	.data
counter: .word 37
`)
	if code != 42 {
		t.Fatalf("exit code = %d, want 42", code)
	}
	if got := m.ReadWord(machine.DataBase); got != 42 {
		t.Fatalf("counter in memory = %d, want 42", got)
	}
}

func TestLoopAndBranch(t *testing.T) {
	// Sum 1..10 = 55.
	_, code := run(t, `
main:
	save %sp, -96, %sp
	mov 0, %l0
	mov 1, %l1
loop:
	cmp %l1, 10
	bg done
	add %l0, %l1, %l0
	inc %l1
	ba loop
done:
	mov %l0, %i0
	restore
	retl
`)
	if code != 55 {
		t.Fatalf("exit code = %d, want 55", code)
	}
}

func TestCallAndRegisterWindows(t *testing.T) {
	// Recursive factorial through register windows: fact(5) = 120.
	_, code := run(t, `
main:
	save %sp, -96, %sp
	mov 5, %o0
	call fact
	mov %o0, %i0
	restore
	retl
fact:
	save %sp, -96, %sp
	cmp %i0, 1
	ble base
	sub %i0, 1, %o0
	call fact
	smul %o0, %i0, %i0
	ba out
base:
	mov 1, %i0
out:
	restore
	retl
`)
	if code != 120 {
		t.Fatalf("fact(5) = %d, want 120", code)
	}
}

func TestStackFrameLocals(t *testing.T) {
	_, code := run(t, `
main:
	save %sp, -96, %sp
	mov 7, %o0
	st %o0, [%fp-20]
	ld [%fp-20], %o1
	smul %o1, 6, %i0
	restore
	retl
`)
	if code != 42 {
		t.Fatalf("exit code = %d, want 42", code)
	}
}

func TestPrintTraps(t *testing.T) {
	m, _ := run(t, `
main:
	save %sp, -96, %sp
	mov 123, %o0
	ta 1
	set msg, %o0
	mov 3, %o1
	ta 3
	mov 0, %i0
	restore
	retl
	.data
msg:	.ascii "hi\n"
`)
	if got := m.Output(); got != "123\nhi\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestAllocFreeReuse(t *testing.T) {
	_, code := run(t, `
main:
	save %sp, -96, %sp
	mov 16, %o0
	ta 4          ! alloc 16
	mov %o0, %l0
	st %l0, [%l0] ! touch it
	mov %l0, %o0
	ta 5          ! free
	mov 16, %o0
	ta 4          ! alloc 16 again: should reuse
	cmp %o0, %l0
	be same
	mov 1, %i0
	ba out
same:
	mov 0, %i0
out:
	restore
	retl
`)
	if code != 0 {
		t.Fatal("allocator failed to reuse freed block of same size")
	}
}

func TestHiLoRelocation(t *testing.T) {
	m, code := run(t, `
main:
	save %sp, -96, %sp
	sethi %hi(cell), %o0
	or %o0, %lo(cell), %o0
	mov 99, %o1
	st %o1, [%o0]
	ld [%o0], %i0
	restore
	retl
	.data
	.space 1024
cell:	.word 0
`)
	if code != 99 {
		t.Fatalf("exit code = %d, want 99", code)
	}
	if got := m.ReadWord(machine.DataBase + 1024); got != 99 {
		t.Fatalf("cell = %d, want 99", got)
	}
}

func TestStabsRecords(t *testing.T) {
	p := mustAssemble(t, `
main:
	save %sp, -96, %sp
	st %g0, [%fp-8]
	mov 0, %i0
	restore
	retl
	.stabs "main", func, main, 0
	.stabs "x", local, %fp-8, 4, "main"
	.stabs "buf", global, buf, 40
	.data
buf:	.space 40
`)
	x, ok := p.LookupSym("x", "main")
	if !ok || x.Kind != SymLocal || x.FpOff != -8 || x.Size != 4 {
		t.Fatalf("local sym = %+v ok=%v", x, ok)
	}
	buf, ok := p.LookupSym("buf", "")
	if !ok || buf.Kind != SymGlobal || buf.Addr != machine.DataBase || buf.Size != 40 {
		t.Fatalf("global sym = %+v ok=%v", buf, ok)
	}
	fn, ok := p.LookupSym("main", "")
	if !ok || fn.Kind != SymFunc {
		t.Fatalf("func sym = %+v ok=%v", fn, ok)
	}
}

func TestEventCounters(t *testing.T) {
	p := mustAssemble(t, `
main:
	save %sp, -96, %sp
	mov 0, %l0
loop:
	cmp %l0, 5
	bge done
	.count "stores"
	st %l0, [%fp-8]
	inc %l0
	ba loop
done:
	mov 0, %i0
	restore
	retl
`)
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	p.Load(m)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := p.Counter(m, "stores"); got != 5 {
		t.Fatalf("stores counter = %d, want 5", got)
	}
	if got := p.Counter(m, "missing"); got != 0 {
		t.Fatalf("missing counter = %d, want 0", got)
	}
}

func TestWordSymbolData(t *testing.T) {
	m, code := run(t, `
main:
	save %sp, -96, %sp
	set ptr, %o0
	ld [%o0], %o1   ! o1 = &cell
	mov 7, %o2
	st %o2, [%o1]
	ld [%o1], %i0
	restore
	retl
	.data
cell:	.word 0
ptr:	.word cell
`)
	if code != 7 {
		t.Fatalf("exit = %d, want 7", code)
	}
	if got := uint32(m.ReadWord(machine.DataBase + 4)); got != machine.DataBase {
		t.Fatalf("ptr = %#x, want %#x", got, machine.DataBase)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"frobnicate %o0",
		"add %o0, %o1",
		"add %o0, 99999, %o1",
		"ld %o0, %o1",
		"st [%o0], %o1",
		".word",
		".space -1",
		`.stabs "x", bogus, %fp-4, 4`,
		"bne",
		"sethi 99999999, %o0",
	}
	for _, src := range bad {
		if _, err := Parse("bad.s", src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		src  string
		want string
	}{
		{"main:\n ba nowhere\n", "undefined text label"},
		{"main:\n nop\nmain:\n nop\n", "duplicate label"},
		{"main:\n set nowhere, %o0\n", "undefined symbol"},
		{".data\nx: .word 0\n", "no entry point"},
	}
	for _, c := range cases {
		u, err := Parse("t.s", c.src)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		_, err = Assemble(Options{}, u)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Assemble(%q) error = %v, want contains %q", c.src, err, c.want)
		}
	}
}

func TestCommentHandling(t *testing.T) {
	_, code := run(t, `
main:	! entry
	save %sp, -96, %sp	! prologue
	mov 1, %i0		! result
	restore
	retl
`)
	if code != 1 {
		t.Fatalf("exit = %d", code)
	}
}

func TestSyntheticExpansion(t *testing.T) {
	u := MustParse("t.s", "set 0x12345678, %o0\n")
	var n int
	for _, it := range u.Items {
		if it.Kind == ItemInstr {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("set of a large constant should expand to 2 instructions, got %d", n)
	}
	// Verify the value round-trips.
	_, code := run(t, `
main:
	save %sp, -96, %sp
	set 0x123456, %o0
	set 0x123456, %o1
	cmp %o0, %o1
	be ok
	mov 1, %i0
	ba out
ok:	mov 0, %i0
out:
	restore
	retl
`)
	if code != 0 {
		t.Fatal("set expansion mismatch")
	}
}

func TestAlignDirective(t *testing.T) {
	p := mustAssemble(t, `
main:
	nop
	mov 0, %o0
	ta 0
	.data
a:	.space 3
	.align 8
b:	.word 1
`)
	if got := p.DataLabels["b"] - p.DataLabels["a"]; got != 8 {
		t.Fatalf("aligned offset = %d, want 8", got)
	}
}

func TestUnitClone(t *testing.T) {
	u := MustParse("t.s", "main:\n nop\n st %o0, [%fp-4]\n")
	c := u.Clone()
	c.Items[1].Instr.Op = sparc.Unimp
	if u.Items[1].Instr.Op == sparc.Unimp {
		t.Fatal("Clone must not share item storage")
	}
}

// TestItemSize pins the item layout: units are the largest thing a build
// keeps, so an item must stay within 128 bytes.
func TestItemSize(t *testing.T) {
	if n := unsafe.Sizeof(Item{}); n > 128 {
		t.Fatalf("unsafe.Sizeof(Item{}) = %d, want <= 128", n)
	}
}

// TestRarePayloads checks the out-of-line payloads: .stabs and .ascii items
// carry their record and bytes, every other kind reads as empty, and a
// clone reads the same.
func TestRarePayloads(t *testing.T) {
	u := MustParse("t.s", "main:\n nop\n .stabs \"x\", local, %fp-8, 4, \"main\"\n .data\nmsg: .ascii \"hi\"\n")
	want := Sym{Name: "x", Kind: SymLocal, FpOff: -8, Size: 4, Func: "main"}
	var sawSym, sawAscii bool
	for i := range u.Items {
		it := &u.Items[i]
		switch it.Kind {
		case ItemSymRec:
			sawSym = true
			if it.Sym() != want {
				t.Errorf("Sym() = %+v, want %+v", it.Sym(), want)
			}
		case ItemAscii:
			sawAscii = true
			if string(it.Bytes()) != "hi" || it.Section != SectionData {
				t.Errorf("ascii item = %q in %v, want \"hi\" in data", it.Bytes(), it.Section)
			}
		default:
			if it.Sym() != (Sym{}) || it.Bytes() != nil {
				t.Errorf("%v item carries a payload", it.Kind)
			}
		}
	}
	if !sawSym || !sawAscii {
		t.Fatalf("parse lost a payload item: %+v", u.Items)
	}
	if c := u.Clone(); !reflect.DeepEqual(c, u) {
		t.Fatal("Clone differs from its unit")
	}
}

// TestAssembleLeavesUnitsUnchanged assembles a unit using every directive
// and checks it is deep-equal, payload bytes included, to a copy taken
// before: Assemble only reads its units, so one unit may feed any number of
// builds.
func TestAssembleLeavesUnitsUnchanged(t *testing.T) {
	src := `
main:
	set table, %o0
	st %g0, [%o0]
	.count "c"
	ld [%o0+4], %o1
	retl
	.stabs "main", func, main, 0
	.stabs "table", global, table, 32
	.data
table:	.space 32
msg:	.ascii "round\ttrip\n"
	.align 8
ptr:	.word table
	.bss
val:	.word -17
`
	u := MustParse("t.s", src)
	want := MustParse("t.s", src)
	if !reflect.DeepEqual(u, want) {
		t.Fatal("two parses of one source differ")
	}
	p, err := Assemble(Options{AddStartup: true}, u)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u, want) {
		t.Fatal("Assemble changed its input unit")
	}
	if s, ok := p.LookupSym("table", ""); !ok || s.Addr != p.DataLabels["table"] {
		t.Fatalf("table symbol = %+v, %v; want address %#x", s, ok, p.DataLabels["table"])
	}
}
