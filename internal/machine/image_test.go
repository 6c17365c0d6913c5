package machine

import (
	"math/rand"
	"reflect"
	"testing"
	"unsafe"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// These tests pin the image-sharing contract: LoadImage is observationally
// identical to LoadText of the same text, and PatchInstr on a shared image
// privatizes before writing, so a patch in one machine can never reach a
// sibling executing from the same image.

// diffImageRun loads text into one machine via LoadText and into another via
// a freshly built shared image, runs both, and compares every observable.
func diffImageRun(t *testing.T, ctx string, text []sparc.Instr) {
	t.Helper()
	a := New(cache.DefaultConfig, DefaultCosts)
	b := New(cache.DefaultConfig, DefaultCosts)
	a.SetCounterCount(4)
	b.SetCounterCount(4)
	a.LoadText(text, 0)
	b.LoadImage(BuildImage(text, 0))
	_, errA := a.Run()
	_, errB := b.Run()
	diffStates(t, ctx, a, b, errA, errB)
}

// TestDifferentialImageRandomPrograms demands LoadText/LoadImage equivalence
// on the same randomized instruction mix the Step/Run differential uses.
func TestDifferentialImageRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		text := randText(r, 80+r.Intn(400))
		diffImageRun(t, "seed "+string(rune('0'+seed%10)), text)
	}
}

// TestLoadImageAccessors pins the Image surface the artifact cache depends
// on: length, entry, and a footprint that counts the one text it keeps.
func TestLoadImageAccessors(t *testing.T) {
	text := []sparc.Instr{
		{Op: sparc.Nop},
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	if e := BuildImage(text, 1).Entry(); e != 1 {
		t.Fatalf("Entry = %d, want 1", e)
	}
	img := BuildImage(text, 0)
	if img.Len() != 2 || img.Entry() != 0 {
		t.Fatalf("Len/Entry = %d/%d, want 2/0", img.Len(), img.Entry())
	}
	if img.SizeBytes() <= 0 {
		t.Fatalf("SizeBytes = %d, want > 0", img.SizeBytes())
	}
	// BuildImage keeps the caller's slice, and SizeBytes counts that one
	// copy, the µops and one slot per head: only the entry here, since the
	// trap's successor lies past the text.
	if &img.text[0] != &text[0] {
		t.Fatal("BuildImage copied its text")
	}
	want := len(text)*int(unsafe.Sizeof(sparc.Instr{})) + len(text)*int(unsafe.Sizeof(uop{})) +
		len(img.traces)*int(unsafe.Sizeof(img.traces[0]))
	if img.SizeBytes() != want || len(img.traces) != 1 {
		t.Fatalf("SizeBytes = %d with %d slots, want %d with 1", img.SizeBytes(), len(img.traces), want)
	}
}

// TestImageSizeCountsPublishedClosures pins retained-bytes accounting: a
// closure-engine run on a fresh image grows SizeBytes and TraceBytes by
// exactly the bytes of the closures it published — header, items and spans
// — while a machine with another cost model compiles into private slots,
// grows neither, and still matches a Step run under its own costs.
func TestImageSizeCountsPublishedClosures(t *testing.T) {
	img := BuildImage(countLoop(), 0)
	size := img.SizeBytes()
	if img.TraceBytes() != 0 {
		t.Fatalf("fresh image TraceBytes = %d, want 0", img.TraceBytes())
	}
	m := New(cache.DefaultConfig, DefaultCosts)
	m.LoadImage(img)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	want := ImagePublishedBytes(img)
	if want == 0 {
		t.Fatal("the run published no closures")
	}
	if got := img.TraceBytes(); got != want {
		t.Fatalf("TraceBytes = %d, published closures hold %d", got, want)
	}
	if got := img.SizeBytes() - size; got != want {
		t.Fatalf("SizeBytes grew by %d, published closures hold %d", got, want)
	}

	costs := DefaultCosts
	costs.MemExtra++
	ref := New(cache.DefaultConfig, costs)
	ref.LoadText(countLoop(), 0)
	errRef := stepAll(ref)
	p := New(cache.DefaultConfig, costs)
	p.LoadImage(img)
	_, errP := p.Run()
	diffStates(t, "other cost model", ref, p, errRef, errP)
	if reflect.ValueOf(p.traces).Pointer() == reflect.ValueOf(img.traces).Pointer() {
		t.Fatal("a machine with another cost model executes the image's slots")
	}
	if MachineTraceCount(p) == 0 {
		t.Fatal("the other cost model's run compiled no closures")
	}
	if img.TraceBytes() != want || img.SizeBytes()-size != want {
		t.Fatalf("a private-slot run changed the image's bytes: TraceBytes %d, SizeBytes +%d, want %d",
			img.TraceBytes(), img.SizeBytes()-size, want)
	}
}

// TestPatchInstrCOWIsolation runs two machines off ONE shared image. One
// patches its own text mid-run from a StoreHook (the Kessler patch flow at
// its hardest: the patched index is later in the block being dispatched);
// the other starts only after that patch landed. Every observable of both
// must be bit-identical to private-image reference runs, i.e. the patch
// stayed in the patching machine's privatized copy.
func TestPatchInstrCOWIsolation(t *testing.T) {
	// Same program as TestDifferentialPatchMidRun: store-increment loop where
	// the 5th store rewrites the increment from +1 to +3.
	text := []sparc.Instr{
		{Op: sparc.Sethi, Rd: sparc.L0, Imm: int32(DataBase >> 10), UseImm: true},
		{Op: sparc.St, Rd: sparc.O1, Rs1: sparc.L0, UseImm: true},
		sparc.RI(sparc.Add, sparc.O1, 1, sparc.O1),
		sparc.RI(sparc.Subcc, sparc.O1, 100, sparc.G0),
		sparc.Branch(sparc.BL, 1),
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	patched := sparc.RI(sparc.Add, sparc.O1, 3, sparc.O1)
	orig := text[2]

	img := BuildImage(text, 0)
	// LoadText takes ownership of its slice, so each private reference
	// machine gets its own copy; the patch below must only ever land there.
	private1 := append([]sparc.Instr(nil), text...)
	private2 := append([]sparc.Instr(nil), text...)

	withPatchHook := func(m *Machine) {
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
	}

	// Patching machine on the shared image vs its private-text reference.
	shared := New(cache.DefaultConfig, DefaultCosts)
	shared.LoadImage(img)
	withPatchHook(shared)
	private := New(cache.DefaultConfig, DefaultCosts)
	private.LoadText(private1, 0)
	withPatchHook(private)
	_, errS := shared.Run()
	_, errP := private.Run()
	diffStates(t, "patcher shared vs private", shared, private, errS, errP)

	// The shared image must still hold the original increment...
	if img.text[2] != orig {
		t.Fatalf("patch leaked into shared image: %+v", img.text[2])
	}
	// ...and a sibling attached after the patch must behave as if the patch
	// never happened, matching a private unpatched reference bit for bit.
	sib := New(cache.DefaultConfig, DefaultCosts)
	sib.LoadImage(img)
	ref := New(cache.DefaultConfig, DefaultCosts)
	ref.LoadText(private2, 0)
	_, errSib := sib.Run()
	_, errRef := ref.Run()
	diffStates(t, "sibling vs unpatched reference", sib, ref, errSib, errRef)
}

// TestLoadTextAfterSharedImage pins the capacity-reuse hazard: LoadText
// rebuilds the block index in place when it can, which must never scribble
// on a shared image's µop array left behind by a previous LoadImage.
func TestLoadTextAfterSharedImage(t *testing.T) {
	long := []sparc.Instr{
		{Op: sparc.Nop}, {Op: sparc.Nop}, {Op: sparc.Nop},
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	short := []sparc.Instr{
		{Op: sparc.Ta, Imm: TrapExit, UseImm: true},
	}
	img := BuildImage(long, 0)
	m := New(cache.DefaultConfig, DefaultCosts)
	m.LoadImage(img)
	m.LoadText(short, 0) // must drop, not reuse, the image's arrays
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// The image must still run its original four instructions.
	m2 := New(cache.DefaultConfig, DefaultCosts)
	m2.LoadImage(img)
	if _, err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if m2.Instrs() != 4 {
		t.Fatalf("image corrupted by LoadText reuse: instrs = %d, want 4", m2.Instrs())
	}
}
