package machine_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"testing"

	"databreak/internal/asm"
	"databreak/internal/bench"
	"databreak/internal/cache"
	"databreak/internal/elim"
	"databreak/internal/machine"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// tableBuild is one of the thirteen builds per program that Tables 1 and 2
// run: the unpatched baseline, the five check strategies, the nop-alignment
// probes, and both elimination modes.
type tableBuild struct {
	name  string
	popts *patch.Options // nil with elim unset: the unpatched baseline
	elim  bool
	mode  elim.Mode
}

func checked(s patch.Strategy) *patch.Options {
	return &patch.Options{Strategy: s, Monitor: monitor.DefaultConfig}
}

func nopBuild(n int) *patch.Options {
	return &patch.Options{Strategy: patch.Nops, Nops: n}
}

var tableBuilds = []tableBuild{
	{name: "baseline"},
	{name: "Bitmap", popts: checked(patch.Bitmap)},
	{name: "BitmapInline", popts: checked(patch.BitmapInline)},
	{name: "BitmapInlineRegisters", popts: checked(patch.BitmapInlineRegisters)},
	{name: "Cache", popts: checked(patch.Cache)},
	{name: "CacheInline", popts: checked(patch.CacheInline)},
	{name: "Nops2", popts: nopBuild(2)},
	{name: "Nops4", popts: nopBuild(4)},
	{name: "Nops8", popts: nopBuild(8)},
	{name: "Nops16", popts: nopBuild(16)},
	{name: "Nops32", popts: nopBuild(32)},
	{name: "Full", elim: true, mode: elim.Full},
	{name: "Sym", elim: true, mode: elim.SymOnly},
}

// buildTable assembles one table build of a compiled program unit and
// builds its image.
func buildTable(tb testing.TB, p workload.Program, u *asm.Unit, b tableBuild) *asm.Program {
	tb.Helper()
	units := []*asm.Unit{u.Clone()}
	switch {
	case b.elim:
		res, err := elim.Apply(elim.Options{Mode: b.mode, Monitor: monitor.DefaultConfig}, units[0])
		if err != nil {
			tb.Fatalf("%s/%s: %v", p.Name, b.name, err)
		}
		units = res.Units
	case b.popts != nil:
		res, err := patch.Apply(*b.popts, units[0])
		if err != nil {
			tb.Fatalf("%s/%s: %v", p.Name, b.name, err)
		}
		units = res.Units
	}
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, units...)
	if err != nil {
		tb.Fatalf("%s/%s: %v", p.Name, b.name, err)
	}
	prog.Image()
	return prog
}

// buildTables builds all 130 Table 1/2 artifacts cold from source — minic
// compile, parse, patch or elimination, assemble, image — in program-major,
// tableBuilds order.
func buildTables(tb testing.TB) []*asm.Program {
	tb.Helper()
	var progs []*asm.Program
	for _, p := range workload.All(1) {
		u, err := bench.Compile(p)
		if err != nil {
			tb.Fatal(err)
		}
		for _, b := range tableBuilds {
			progs = append(progs, buildTable(tb, p, u, b))
		}
	}
	return progs
}

var (
	tablesOnce  sync.Once
	tablesProgs []*asm.Program
)

// sharedTables builds the 130 artifacts once per test binary.
func sharedTables(t *testing.T) []*asm.Program {
	t.Helper()
	tablesOnce.Do(func() { tablesProgs = buildTables(t) })
	if len(tablesProgs) != len(workload.All(1))*len(tableBuilds) {
		t.Fatal("table artifacts failed to build")
	}
	return tablesProgs
}

// The digests pin every byte the set-up emits. Host-side work on the trace
// builder, the closure compiler or check emission must leave them
// unchanged; only a deliberate change to the trace format, the item layout,
// the fused shapes or the check sequences may move them, and it must say so.
const (
	wantTablesTraceDigest   = "39cdd28b952d19c900f8629c66033fdb990a84b9c72e4f79d4295c6e4143fdb3"
	wantTablesClosureDigest = "fd302791c9db047fbe08fce64524e1a1969090b696cb30155fec7665ccf2e106"
	wantTablesTextDigest    = "55389e17926717454edb8b4a74b130ca0a69238d9c3c92f7735382767baab14e"
)

// TestTablesTraceDigest pins the trace behind every image closure of the 130
// table builds: head, entry, exit pc, line shift, pass length, every op
// field, and every invalidation span. Every marked head is compiled through
// the first-entry path machines take, and each published head's trace is
// then rebuilt by a fresh builder, since closures keep no op stream; the
// digest was pinned when BuildImage still compiled and kept every trace
// eagerly, so it proves the lazily compiled traces byte-identical to the
// eager ones.
func TestTablesTraceDigest(t *testing.T) {
	h := sha256.New()
	var buf []byte
	for _, prog := range sharedTables(t) {
		machine.CompileImageHeads(prog.Image())
		buf = machine.AppendImageTraces(buf[:0], prog.Image())
		h.Write(buf)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantTablesTraceDigest {
		t.Errorf("trace digest = %s, want %s", got, wantTablesTraceDigest)
	}
}

// TestTablesClosureDigest pins every image closure of the 130 table builds,
// published through the first-entry path: head, pass length, every
// invalidation span, and every field of every item. The digest was pinned
// when each compiled head kept both its trace and a closure threaded from
// it with a parallel exit-prefix array, so it proves the closures that
// recompute those prefixes on cold paths carry byte-identical item streams.
func TestTablesClosureDigest(t *testing.T) {
	if n := machine.RitemFieldCount(); n != 15 {
		t.Fatalf("ritem has %d fields; the digest encodes 15", n)
	}
	h := sha256.New()
	var buf []byte
	for _, prog := range sharedTables(t) {
		machine.CompileImageHeads(prog.Image())
		buf = machine.AppendImageClosures(buf[:0], prog.Image())
		h.Write(buf)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantTablesClosureDigest {
		t.Errorf("closure digest = %s, want %s", got, wantTablesClosureDigest)
	}
}

// TestTablesTextDigest pins the assembled text and entry point of the 130
// table builds, so the patched and elimination-rewritten check sequences
// stay byte-identical.
func TestTablesTextDigest(t *testing.T) {
	h := sha256.New()
	le := binary.LittleEndian
	var buf []byte
	for _, prog := range sharedTables(t) {
		buf = le.AppendUint32(buf[:0], uint32(prog.Entry))
		buf = le.AppendUint32(buf, uint32(len(prog.Text)))
		for _, in := range prog.Text {
			useImm := byte(0)
			if in.UseImm {
				useImm = 1
			}
			buf = append(buf, byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2), useImm, byte(in.Cond))
			buf = le.AppendUint32(buf, uint32(in.Imm))
			buf = le.AppendUint32(buf, uint32(in.Target))
			buf = le.AppendUint32(buf, uint32(in.Count))
		}
		h.Write(buf)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantTablesTextDigest {
		t.Errorf("text digest = %s, want %s", got, wantTablesTextDigest)
	}
}

// TestTracesStoredAtExactSize checks that no retained closure carries append
// slack in its item stream or spans: every image closure of the 130 table
// builds, the image closures machines publish on first entry, and the
// closures a machine compiles over private text.
func TestTracesStoredAtExactSize(t *testing.T) {
	for i, prog := range sharedTables(t) {
		machine.CompileImageHeads(prog.Image())
		if s := machine.ImageTraceSlack(prog.Image()); s != "" {
			t.Fatalf("artifact %d (%s): %s", i, tableBuilds[i%len(tableBuilds)].name, s)
		}
	}

	// A fresh image of one build, whose traces only running machines publish.
	p := workload.All(1)[0]
	u, err := bench.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	fresh := buildTable(t, p, u, tableBuilds[3])
	if _, err := runMonitored(fresh, machine.New(cache.DefaultConfig, machine.DefaultCosts)); err != nil {
		t.Fatal(err)
	}
	if machine.ImageTraceCount(fresh.Image()) == 0 {
		t.Fatal("the shared-image run published no closures")
	}
	if s := machine.ImageTraceSlack(fresh.Image()); s != "" {
		t.Fatalf("published image closure: %s", s)
	}

	prog := sharedTables(t)[0] // the first program's baseline
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(m)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if machine.MachineTraceCount(m) == 0 {
		t.Fatal("private-text run compiled no closures")
	}
	if s := machine.MachineTraceSlack(m); s != "" {
		t.Fatalf("private-text closure: %s", s)
	}
}
