package machine_test

import (
	"testing"

	"databreak/internal/asm"
	"databreak/internal/bench"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/sparc"
	"databreak/internal/workload"
)

// TestDifferentialWorkloads runs every benchmark workload through the
// single-Step path and the default Run path and requires identical
// registers, output, cycle counts, instruction counts, and cache statistics.
// Unlike the randomized differential (differential_test.go) these programs
// exercise the full compiler output: register windows, loops, indirect
// calls, and the output trap.
func TestDifferentialWorkloads(t *testing.T) {
	for _, p := range workload.All(1) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			u, err := bench.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := asm.Assemble(asm.Options{AddStartup: true}, u)
			if err != nil {
				t.Fatal(err)
			}

			stepM := machine.New(cache.DefaultConfig, machine.DefaultCosts)
			prog.Load(stepM)
			for !stepM.Halted() {
				if err := stepM.Step(); err != nil {
					t.Fatalf("step: %v", err)
				}
			}

			runM := machine.New(cache.DefaultConfig, machine.DefaultCosts)
			prog.Load(runM)
			if _, err := runM.Run(); err != nil {
				t.Fatalf("run: %v", err)
			}

			if stepM.ExitCode() != runM.ExitCode() {
				t.Errorf("exit code: step %d run %d", stepM.ExitCode(), runM.ExitCode())
			}
			if stepM.Output() != runM.Output() {
				t.Errorf("output: step %q run %q", stepM.Output(), runM.Output())
			}
			if stepM.Cycles() != runM.Cycles() {
				t.Errorf("cycles: step %d run %d", stepM.Cycles(), runM.Cycles())
			}
			if stepM.Instrs() != runM.Instrs() {
				t.Errorf("instrs: step %d run %d", stepM.Instrs(), runM.Instrs())
			}
			if stepM.CacheStats() != runM.CacheStats() {
				t.Errorf("cache stats:\nstep %+v\nrun  %+v", stepM.CacheStats(), runM.CacheStats())
			}
			for r := sparc.Reg(0); r < sparc.NumRegs; r++ {
				if stepM.Reg(r) != runM.Reg(r) {
					t.Errorf("%s: step %d run %d", r, stepM.Reg(r), runM.Reg(r))
				}
			}
		})
	}
}

// TestDifferentialWorkloadsLoadShared runs every workload twice from one
// shared image (asm.LoadShared: predecoded text plus the data-segment
// snapshot) and once via the private-copy Load path, requiring bit-identical
// observables across all three. This is the compile-once, run-many contract
// the artifact cache rests on: attaching a cached Program to a fresh machine
// is indistinguishable from linking it from scratch, and re-running it sees
// no residue from the first run.
func TestDifferentialWorkloadsLoadShared(t *testing.T) {
	for _, p := range workload.All(1) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			u, err := bench.Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := asm.Assemble(asm.Options{AddStartup: true}, u)
			if err != nil {
				t.Fatal(err)
			}

			load := machine.New(cache.DefaultConfig, machine.DefaultCosts)
			prog.Load(load)
			if _, err := load.Run(); err != nil {
				t.Fatalf("load run: %v", err)
			}

			for i := 0; i < 2; i++ {
				shared := machine.New(cache.DefaultConfig, machine.DefaultCosts)
				prog.LoadShared(shared)
				if _, err := shared.Run(); err != nil {
					t.Fatalf("shared run %d: %v", i, err)
				}
				if load.ExitCode() != shared.ExitCode() {
					t.Errorf("run %d exit code: load %d shared %d", i, load.ExitCode(), shared.ExitCode())
				}
				if load.Output() != shared.Output() {
					t.Errorf("run %d output: load %q shared %q", i, load.Output(), shared.Output())
				}
				if load.Cycles() != shared.Cycles() {
					t.Errorf("run %d cycles: load %d shared %d", i, load.Cycles(), shared.Cycles())
				}
				if load.Instrs() != shared.Instrs() {
					t.Errorf("run %d instrs: load %d shared %d", i, load.Instrs(), shared.Instrs())
				}
				if load.CacheStats() != shared.CacheStats() {
					t.Errorf("run %d cache stats:\nload   %+v\nshared %+v", i, load.CacheStats(), shared.CacheStats())
				}
				for r := sparc.Reg(0); r < sparc.NumRegs; r++ {
					if load.Reg(r) != shared.Reg(r) {
						t.Errorf("run %d %s: load %d shared %d", i, r, load.Reg(r), shared.Reg(r))
					}
				}
			}
		})
	}
}
