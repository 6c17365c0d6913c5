package main

import (
	"runtime"
	"strings"
	"testing"

	"databreak/internal/bench"
	"databreak/internal/cache"
	"databreak/internal/elim"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

func TestReferenceGateRejectsPerturbedResults(t *testing.T) {
	var st cache.Stats
	st.Accesses[0], st.Misses[0] = 100, 7
	ref := resultRef{
		Cycles: 1000, Instrs: 500, Output: digest("42\n"), Hits: 3,
		CacheAccesses: st.Accesses[:], CacheMisses: st.Misses[:],
	}
	good := outcome{cycles: 1000, instrs: 500, output: digest("42\n"), hits: 3, cache: st, hasCache: true}
	if err := ref.check(good, true); err != nil {
		t.Fatalf("exact result rejected: %v", err)
	}
	perturb := map[string]func(o *outcome){
		"cycles":       func(o *outcome) { o.cycles++ },
		"instructions": func(o *outcome) { o.instrs-- },
		"output":       func(o *outcome) { o.output = digest("43\n") },
		"hit total":    func(o *outcome) { o.hits++ },
		"cache stats":  func(o *outcome) { o.cache.Misses[0]++ },
	}
	for what, f := range perturb {
		o := good
		f(&o)
		err := ref.check(o, true)
		if err == nil || !strings.Contains(err.Error(), strings.Fields(what)[0]) {
			t.Errorf("perturbed %s: gate returned %v", what, err)
		}
	}
	// Without cycles (a session that sent requests mid-run), only cycles are
	// exempt.
	o := good
	o.cycles += 8
	if err := ref.check(o, false); err != nil {
		t.Errorf("cycles checked although exempt: %v", err)
	}
	o.hits--
	if ref.check(o, false) == nil {
		t.Error("perturbed hit total passed with cycles exempt")
	}
	if (resultRef{}).check(good, true) == nil {
		t.Error("a missing reference entry passed")
	}
}

// TestCellsMatchReferenceAndHarness runs one program's cells the way the
// tables workload does, checks them against the committed reference, checks
// that a perturbed reference fails them, and checks that each cell
// reproduces the bench harness's own run of it.
func TestCellsMatchReferenceAndHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every artifact")
	}
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := bench.DefaultConfig()
	newMachine := cfg.MachineFactory()
	cells, _, err := tablesSetup(nil, 0, runtime.GOMAXPROCS(0), newMachine)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 140 || len(ref.Cells) != 140 {
		t.Fatalf("%d cells, %d reference cells; want 140", len(cells), len(ref.Cells))
	}
	p, _ := workload.ByName("eqntott", 1)
	u, err := bench.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.prog != "eqntott" {
			continue
		}
		got, err := runCell(span{}, c, newMachine)
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		want := ref.Cells[c.id]
		if err := want.check(got, true); err != nil {
			t.Errorf("%s against the reference: %v", c.id, err)
		}
		bad := want
		bad.Cycles++
		if bad.check(got, true) == nil {
			t.Errorf("%s passed a reference with a perturbed cycle count", c.id)
		}

		var h bench.Run
		switch s := c.spec; {
		case s.name == "baseline":
			h, err = cfg.RunBaseline(u)
		case strings.HasPrefix(s.name, "Nops"):
			continue // the harness reports only the σ fit for these
		case s.name == "Full" || s.name == "Sym":
			mode := elim.Full
			if s.name == "Sym" {
				mode = elim.SymOnly
			}
			h, err = cfg.RunElim(u, mode, monitor.DefaultConfig)
		default:
			strat := map[string]patch.Strategy{
				"Disabled": patch.Bitmap, "Bitmap": patch.Bitmap, "BitmapInline": patch.BitmapInline,
				"BitmapInlineRegisters": patch.BitmapInlineRegisters, "Cache": patch.Cache, "CacheInline": patch.CacheInline,
			}[s.name]
			h, err = cfg.RunStrategy(u, strat, monitor.DefaultConfig, s.disabled)
		}
		if err != nil {
			t.Fatalf("%s in the harness: %v", c.id, err)
		}
		if h.Cycles != got.cycles || h.Instrs != got.instrs || digest(h.Output) != got.output || h.Cache != got.cache {
			t.Errorf("%s: benchmark cell (%d cycles, %d instrs) differs from the harness run (%d, %d)",
				c.id, got.cycles, got.instrs, h.Cycles, h.Instrs)
		}
	}
}

func TestSessionProgramsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a session program")
	}
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := hitRegionRun("fpppp", bench.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Sessions["fpppp"].check(got, true); err != nil {
		t.Errorf("fpppp against the reference: %v", err)
	}
	if got.hits == 0 {
		t.Error("fpppp produced no HitRegion hits")
	}
	for _, p := range append(append([]string(nil), hitsPrograms...), churnPrograms...) {
		if r, ok := ref.Sessions[p]; !ok || r.Hits == 0 {
			t.Errorf("reference for %s: %+v", p, r)
		}
	}
}
