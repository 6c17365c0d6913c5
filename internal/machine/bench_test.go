// Host-time micro-benchmarks for the interpreter hot loop. These measure
// wall-clock nanoseconds per simulated instruction, not simulated cycles:
// simulated counts are part of the experiment results and must never move,
// while these numbers are allowed (encouraged) to go down. Run with
//
//	go test ./internal/machine -bench . -benchmem
//
// The package is external (machine_test) because BenchmarkRunWorkload needs
// the asm/minic/workload pipeline, and asm imports machine.
package machine_test

import (
	"slices"
	"testing"
	"time"

	"databreak/internal/asm"
	"databreak/internal/bench"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/minic"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/sparc"
	"databreak/internal/workload"
)

// BenchmarkStep drives Step directly over a small ALU/load/store loop — the
// instruction mix the fault-free fast path sees — and reports ns per step.
func BenchmarkStep(b *testing.B) {
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	m.LoadText([]sparc.Instr{
		sparc.RI(sparc.Add, sparc.O0, 1, sparc.O0),        // 0
		sparc.RI(sparc.Or, sparc.G0, 0x2000, sparc.O1),    // 1
		sparc.StoreRI(sparc.O0, sparc.O1, 0),              // 2
		sparc.LoadRI(sparc.O1, 0, sparc.O2),               // 3
		sparc.RR(sparc.Add, sparc.O2, sparc.O0, sparc.O3), // 4
		sparc.Branch(sparc.BA, 0),                         // 5: loop forever
	}, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Step(); err != nil {
			b.Fatal(err)
		}
	}
	if m.Instrs() != int64(b.N) {
		b.Fatalf("instrs = %d, want %d", m.Instrs(), b.N)
	}
}

// compiledWorkload assembles one workload through the minic/asm pipeline so
// the load-path benchmarks below all operate on the same realistic text.
func compiledWorkload(b *testing.B, name string) *asm.Program {
	b.Helper()
	p, ok := workload.ByName(name, 1)
	if !ok {
		b.Fatalf("workload %s missing", name)
	}
	src, err := minic.Compile(p.Source)
	if err != nil {
		b.Fatal(err)
	}
	u, err := asm.Parse(p.Name+".s", src)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, u)
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

// BenchmarkRunWorkload runs a full compiled workload per iteration — the
// unit of work the benchmark matrix fans out over its worker pool: attach
// the shared image, land the data snapshot, execute (LoadShared, the
// artifact cache's run-a-cached-artifact path; Load's per-machine text copy
// and predecode is the cold path the cache exists to avoid). One
// sub-benchmark per execution engine: the compiled tier's speedup over Step
// is this benchmark's step/closure ratio.
func BenchmarkRunWorkload(b *testing.B) {
	prog := compiledWorkload(b, "eqntott")
	// Pin the simulated counts across iterations AND engines, so the
	// benchmark doubles as a cheap determinism check: the optimization
	// invariant is that host time may change but these may not.
	var wantCycles, wantInstrs int64
	for _, e := range []machine.Engine{machine.EngineClosure, machine.EngineStep} {
		b.Run(e.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
				m.SetEngine(e)
				prog.LoadShared(m)
				if _, err := m.Run(); err != nil {
					b.Fatal(err)
				}
				if wantCycles == 0 {
					wantCycles, wantInstrs = m.Cycles(), m.Instrs()
				} else if m.Cycles() != wantCycles || m.Instrs() != wantInstrs {
					b.Fatalf("%v run %d: cycles/instrs = %d/%d, want %d/%d",
						e, i, m.Cycles(), m.Instrs(), wantCycles, wantInstrs)
				}
			}
		})
	}
}

// BenchmarkLoadText is the compile-every-time baseline for the image cache:
// a fresh machine decodes and block-indexes the text from scratch on every
// load, which is what each benchmark cell paid before artifact sharing.
func BenchmarkLoadText(b *testing.B) {
	prog := compiledWorkload(b, "eqntott")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		m.LoadText(prog.Text, prog.Entry)
	}
}

// BenchmarkBuildImage measures the one-time cost of predecoding text into a
// shareable Image — the amount of work the artifact cache amortizes over
// every subsequent LoadImage: the decode, the block index and the head
// marks (traces compile later, on first entry). eqntott is the unpatched
// baseline; fpppp patched with BitmapInlineRegisters, the paper's
// recommended strategy, is among the largest table builds, its check
// sequences multiplying the block heads.
func BenchmarkBuildImage(b *testing.B) {
	fpppp, _ := workload.ByName("fpppp", 1)
	u, err := bench.Compile(fpppp)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		prog *asm.Program
	}{
		{"eqntott", compiledWorkload(b, "eqntott")},
		{"fpppp-BitmapInlineRegisters", buildTable(b, fpppp, u, tableBuild{
			name: "BitmapInlineRegisters", popts: checked(patch.BitmapInlineRegisters)})},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				img := machine.BuildImage(c.prog.Text, c.prog.Entry)
				if img.Len() != len(c.prog.Text) {
					b.Fatalf("image len = %d, want %d", img.Len(), len(c.prog.Text))
				}
			}
		})
	}
}

// BenchmarkArtifactSetup builds all 130 Table 1/2 artifacts cold from
// source per op, on one goroutine: minic compile, parse, patch or
// elimination, assemble, and image. It is the set-up the perfbench tables
// workload times; run with -benchmem for its allocation.
func BenchmarkArtifactSetup(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildTables(b)
	}
}

// BenchmarkLoadImageShared attaches fresh machines to one prebuilt image —
// the run-many half of compile-once/run-many. Compare against
// BenchmarkLoadText: the per-machine cost should be near-zero because the
// decode and block index are shared, not rebuilt.
func BenchmarkLoadImageShared(b *testing.B) {
	prog := compiledWorkload(b, "eqntott")
	img := machine.BuildImage(prog.Text, prog.Entry)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		m.LoadImage(img)
	}
}

// BenchmarkPatchInstrCOW measures the first-write privatization penalty: a
// machine on a shared image pays one full text+µop copy on its first
// PatchInstr, the price of keeping siblings isolated.
func BenchmarkPatchInstrCOW(b *testing.B) {
	prog := compiledWorkload(b, "eqntott")
	img := machine.BuildImage(prog.Text, prog.Entry)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		m.LoadImage(img)
		if err := m.PatchInstr(0, prog.Text[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEnginesAllWorkloads times every engine on every workload's
// baseline build and its BitmapInlineRegisters build, the latter run as its
// Table 1 cell runs it: a monitor service with FarRegion watched. Each
// build is a sub-benchmark whose op is one round that runs every engine
// once on a fresh machine attached to the build's shared image, with the
// engine order rotating from round to round, so host drift lands on all
// engines alike. It reports each engine's median run time and the
// step/closure ratio of the medians; simulated counts must agree across
// engines and rounds. The whole set takes minutes, so
// the CI bench job leaves it out; run it as
//
//	go test ./internal/machine -run '^$' -bench EnginesAllWorkloads -benchtime 15x
func BenchmarkEnginesAllWorkloads(b *testing.B) {
	engines := []machine.Engine{machine.EngineStep, machine.EngineClosure}
	for _, p := range workload.All(1) {
		u, err := bench.Compile(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, bd := range []tableBuild{tableBuilds[0], tableBuilds[3]} {
			prog := buildTable(b, p, u, bd)
			b.Run(p.Name+"-"+bd.name, func(b *testing.B) {
				var cycles, instrs int64
				run := func(e machine.Engine) time.Duration {
					start := time.Now()
					m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
					m.SetEngine(e)
					prog.LoadShared(m)
					if bd.popts != nil {
						svc, err := monitor.NewService(monitor.DefaultConfig, m)
						if err != nil {
							b.Fatal(err)
						}
						if err := svc.CreateRegion(bench.FarRegion, 4); err != nil {
							b.Fatal(err)
						}
						svc.Reinstall()
					}
					if _, err := m.Run(); err != nil {
						b.Fatalf("%v: %v", e, err)
					}
					d := time.Since(start)
					if cycles == 0 {
						cycles, instrs = m.Cycles(), m.Instrs()
					} else if m.Cycles() != cycles || m.Instrs() != instrs {
						b.Fatalf("%v: cycles/instrs %d/%d, want %d/%d", e, m.Cycles(), m.Instrs(), cycles, instrs)
					}
					return d
				}
				// One untimed run per engine first: the image compiles each
				// closure on its first entry, a set-up cost, not a run cost.
				for _, e := range engines {
					run(e)
				}
				times := make([][]time.Duration, len(engines))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := range engines {
						j := (i + k) % len(engines)
						times[j] = append(times[j], run(engines[j]))
					}
				}
				b.StopTimer()
				ms := make([]float64, len(engines))
				for j, e := range engines {
					ds := times[j]
					slices.Sort(ds)
					ms[j] = float64(ds[(len(ds)-1)/2]+ds[len(ds)/2]) / 2 / 1e6
					b.ReportMetric(ms[j], e.String()+"-ms")
				}
				b.ReportMetric(ms[0]/ms[1], "step/closure")
			})
		}
	}
}
