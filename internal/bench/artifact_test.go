package bench

import (
	"fmt"
	"testing"
	"unsafe"

	"databreak/internal/asm"
	"databreak/internal/elim"
	"databreak/internal/minic"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// smallProgram builds one real patched program to use as the unit of cache
// weight in eviction tests (every entry shares the pointer; accounting
// charges each entry its SizeBytes independently).
func smallProgram(t *testing.T) *asm.Program {
	t.Helper()
	w, ok := workload.ByName("eqntott", 1)
	if !ok {
		t.Fatal("eqntott workload missing")
	}
	src, err := minic.Compile(w.Source)
	if err != nil {
		t.Fatal(err)
	}
	u, err := asm.Parse("t.s", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := patch.Apply(patch.Options{Strategy: patch.BitmapInlineRegisters, Monitor: monitor.DefaultConfig}, u)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestArtifactCacheLRUEviction(t *testing.T) {
	prog := smallProgram(t)
	size := int64(prog.SizeBytes())
	if size <= 0 {
		t.Fatalf("SizeBytes = %d", size)
	}

	c := NewArtifactCache()
	c.SetCapBytes(3 * size) // room for exactly three programs

	get := func(i int) {
		t.Helper()
		builds := 0
		_, err := c.do(artifactKey(fmt.Sprintf("src%d", i), "d"), func() (Artifact, error) {
			builds++
			return Artifact{Prog: prog}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		_ = builds
	}

	for i := 0; i < 5; i++ {
		get(i)
	}
	st := c.Stats()
	if st.Evictions != 2 {
		t.Fatalf("Evictions = %d after 5 inserts at cap 3, want 2", st.Evictions)
	}
	if st.Entries != 3 || st.Bytes != 3*size {
		t.Fatalf("resident = %d entries / %d bytes, want 3 / %d", st.Entries, st.Bytes, 3*size)
	}
	if st.CapBytes != 3*size {
		t.Fatalf("CapBytes = %d, want %d", st.CapBytes, 3*size)
	}

	// Entries 0 and 1 were evicted; re-requesting 0 is a rebuild (miss).
	misses := st.Misses
	get(0)
	if got := c.Stats().Misses; got != misses+1 {
		t.Fatalf("re-request of evicted entry: misses %d → %d, want a rebuild", misses, got)
	}

	// Touching an old entry protects it: access 3, insert a new one; the
	// victim must be 4 (LRU), not 3.
	get(3)
	hits := c.Stats().Hits
	get(6)
	get(3)
	if got := c.Stats().Hits; got != hits+1 {
		t.Fatal("recently-touched entry was evicted instead of the LRU one")
	}
	get(4)
	if got := c.Stats().Misses; got == misses+1 {
		t.Fatal("expected entry 4 to have been evicted and rebuilt")
	}
}

func TestArtifactCacheOversizedEntrySurvives(t *testing.T) {
	prog := smallProgram(t)
	size := int64(prog.SizeBytes())

	c := NewArtifactCache()
	c.SetCapBytes(size / 2) // smaller than any single program

	key := artifactKey("big", "d")
	if _, err := c.do(key, func() (Artifact, error) { return Artifact{Prog: prog}, nil }); err != nil {
		t.Fatal(err)
	}
	// The MRU entry is never evicted, even over cap: a second request hits.
	if _, err := c.do(key, func() (Artifact, error) {
		t.Fatal("oversized entry was evicted and rebuilt")
		return Artifact{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 1 resident entry", st)
	}

	// A second program displaces it (the new MRU survives instead).
	if _, err := c.do(artifactKey("big2", "d"), func() (Artifact, error) {
		return Artifact{Prog: prog}, nil
	}); err != nil {
		t.Fatal(err)
	}
	st = c.Stats()
	if st.Evictions != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want the older oversized entry evicted", st)
	}
}

func TestArtifactCacheUnboundedByDefault(t *testing.T) {
	prog := smallProgram(t)
	c := NewArtifactCache()
	for i := 0; i < 8; i++ {
		if _, err := c.do(artifactKey(fmt.Sprintf("s%d", i), "d"), func() (Artifact, error) {
			return Artifact{Prog: prog}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions != 0 || st.Entries != 8 {
		t.Fatalf("unbounded cache evicted: %+v", st)
	}
}

// TestArtifactCacheAccountsImageGrowth runs a cached program, whose image
// publishes closures as the run first enters heads, and checks that the
// cache follows: Stats().Bytes grows by exactly the published bytes, and
// the next admission evicts against the grown total, not the size charged
// when the program was admitted.
func TestArtifactCacheAccountsImageGrowth(t *testing.T) {
	ran, idle := smallProgram(t), smallProgram(t)
	size := int64(ran.SizeBytes())
	if int64(idle.SizeBytes()) != size {
		t.Fatal("two builds of one program differ in size")
	}

	c := NewArtifactCache()
	c.SetCapBytes(3 * size) // room for exactly three programs as admitted
	admit := func(key string, prog *asm.Program) {
		t.Helper()
		if _, err := c.do(artifactKey(key, "d"), func() (Artifact, error) {
			return Artifact{Prog: prog}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	admit("ran", ran)
	admit("idle", idle)
	before := c.Stats()
	if before.TraceBytes != 0 || before.Bytes != 2*size {
		t.Fatalf("before any run: %+v, want 0 trace bytes of %d", before, 2*size)
	}

	if _, err := DefaultConfig().execute(ran, monitor.DefaultConfig, [][2]uint32{{FarRegion, 4}}, false); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.TraceBytes == 0 || after.Bytes <= before.Bytes {
		t.Fatalf("after a run: %+v, want Bytes and TraceBytes grown from %+v", after, before)
	}
	// The run grows the retained bytes by exactly what its image published:
	// the closures TraceBytes counts (machine's
	// TestImageSizeCountsPublishedClosures pins those to the closures'
	// own headers, items and spans).
	if grew := after.Bytes - before.Bytes; grew != after.TraceBytes {
		t.Fatalf("after a run: Bytes grew by %d, TraceBytes is %d", grew, after.TraceBytes)
	}

	// A third program of the admitted size fits the cap only if the run's
	// growth goes unseen: the grown total must evict the LRU program.
	admit("third", idle)
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("after the third admission: %+v, want one eviction", st)
	}
	rebuilt := false
	if _, err := c.do(artifactKey("ran", "d"), func() (Artifact, error) {
		rebuilt = true
		return Artifact{Prog: ran}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !rebuilt {
		t.Fatal("the least recently used program survived the eviction")
	}
}

// TestArtifactCacheBoundsUnits attaches one workload at many scales through
// ProgramSource, as an mrsd client may, under a cap smaller than any
// artifact. Every scale compiles a new unit; the cap must evict the units
// along with the programs built from them, so at most the newest program
// and its unit stay resident.
func TestArtifactCacheBoundsUnits(t *testing.T) {
	c := NewArtifactCache()
	c.SetCapBytes(1)
	cfg := DefaultConfig()
	cfg.Artifacts = c
	source := cfg.ProgramSource()
	const scales = 40
	for scale := 1; scale <= scales; scale++ {
		if _, err := source("eqntott", scale, patch.BitmapInlineRegisters); err != nil {
			t.Fatal(err)
		}
		if st := c.Stats(); st.Entries > 2 {
			t.Fatalf("after scale %d: %d resident entries, want at most 2 (%+v)", scale, st.Entries, st)
		}
	}
	if st := c.Stats(); st.Evictions < 2*scales-2 {
		t.Fatalf("%d evictions after %d scales, want every older unit and program evicted", st.Evictions, scales)
	}
}

// TestArtifactCacheCountsUnits checks what Stats().Bytes charges the
// entries that hold units: a compiled unit its item array, and an
// elimination build its program plus the rewritten units and patch area,
// but not the monitor library every result of its configuration shares.
func TestArtifactCacheCountsUnits(t *testing.T) {
	itemSize := int64(unsafe.Sizeof(asm.Item{}))
	p, ok := workload.ByName("eqntott", 1)
	if !ok {
		t.Fatal("eqntott workload missing")
	}
	cfg := DefaultConfig()
	cfg.Artifacts = NewArtifactCache()
	u, err := cfg.unitFor(p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := cfg.Artifacts.Stats().Bytes, int64(len(u.Items))*itemSize; got != want {
		t.Fatalf("a compiled unit is charged %d bytes, want %d", got, want)
	}
	prog, res, err := cfg.elimProgram(p.Source, u, elim.Full, monitor.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	lib, err := patch.SharedLibrary(monitor.DefaultConfig)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(len(u.Items))*itemSize + int64(prog.SizeBytes())
	for _, eu := range res.Units {
		if eu != lib {
			want += int64(len(eu.Items)) * itemSize
		}
	}
	if len(res.Units) < 3 || res.Units[len(res.Units)-1] != lib {
		t.Fatalf("elimination result does not end with the shared library: %d units", len(res.Units))
	}
	if got := cfg.Artifacts.Stats().Bytes; got != want {
		t.Fatalf("unit plus elimination build charged %d bytes, want %d", got, want)
	}
}
