// Package bench is the experiment harness: it reproduces every table and
// figure in the paper's evaluation by compiling the workload suite, patching
// it with each write-check implementation, executing it on the simulated
// machine, and reducing cycle counts and event counters to the numbers the
// paper reports.
package bench

import (
	"fmt"
	"io"

	"databreak/internal/asm"
	"databreak/internal/cache"
	"databreak/internal/elim"
	"databreak/internal/machine"
	"databreak/internal/minic"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// FarRegion is a monitored region far from anything the workloads write:
// present so the service is enabled (disabled flag clear) without producing
// monitor hits — the paper's "overhead is independent of the number of
// breakpoints" setting.
const FarRegion uint32 = 0x7800_0000

// Config parameterizes the harness.
type Config struct {
	Scale int
	Cache cache.Config
	Costs machine.Costs
	// Engine selects the execution engine for every machine the harness
	// creates (mrsbench -engine). The zero value is machine.EngineClosure;
	// simulated counts are engine-independent, so this only moves host time.
	Engine machine.Engine
	// Workers is the number of benchmark cells executed concurrently; <= 0
	// means runtime.GOMAXPROCS(0). Results are independent of the setting:
	// every table driver collects cells in deterministic input order.
	Workers int
	// Log, when non-nil, receives progress lines. The table drivers wrap it
	// so concurrent workers may share it; see SyncWriter.
	Log io.Writer
	// Artifacts, when non-nil, memoizes build products (compiled units,
	// patched+assembled programs with their shared images) across tables,
	// -count repeats, and stress sessions. See artifact.go. Executions are
	// never memoized, so results are byte-identical with or without it.
	Artifacts *ArtifactCache
}

// DefaultConfig runs the suite at scale 1 on the default machine.
func DefaultConfig() Config {
	return Config{Scale: 1, Cache: cache.DefaultConfig, Costs: machine.DefaultCosts}
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Run is the outcome of one program execution.
type Run struct {
	Cycles   int64
	Instrs   int64
	Output   string
	Counters map[string]uint64
	Cache    cache.Stats
	// Hits is the monitor-service hit count for runs driven through
	// execute(); the mrsd load generator compares it against the daemon's
	// HitTotal. Zero for baseline runs (no service).
	Hits int64
}

func (c Config) newMachine() *machine.Machine {
	m := machine.New(c.Cache, c.Costs)
	m.SetEngine(c.Engine)
	return m
}

// Compile translates a workload to a parsed assembly unit.
func Compile(p workload.Program) (*asm.Unit, error) {
	asmSrc, err := minic.Compile(p.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	u, err := asm.Parse(p.Name+".s", asmSrc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return u, nil
}

// unitFor is the cached form of Compile. The returned unit may be shared
// with other cells and sessions; like every unit it is read-only, and the
// builds below pass it straight to patch.Apply, elim.Apply and
// asm.Assemble, which only read their inputs.
func (c Config) unitFor(p workload.Program) (*asm.Unit, error) {
	art, err := c.artifact(p.Source, "unit", func() (Artifact, error) {
		u, err := Compile(p)
		return Artifact{Unit: u}, err
	})
	return art.Unit, err
}

// baselineProgram assembles the unpatched unit, once per distinct source.
func (c Config) baselineProgram(src string, u *asm.Unit) (*asm.Program, error) {
	art, err := c.artifact(src, "baseline", func() (Artifact, error) {
		prog, err := asm.Assemble(asm.Options{AddStartup: true}, u)
		return Artifact{Prog: prog}, err
	})
	return art.Prog, err
}

// patchedProgram patches the unit with popts and assembles, once per
// distinct (source, normalized options) pair — Table 1's Disabled cell and
// its Bitmap column, or ablation variant 0 and Table 1's BmInlReg column,
// share one artifact because only their run configuration differs.
func (c Config) patchedProgram(src string, u *asm.Unit, popts patch.Options) (*asm.Program, error) {
	art, err := c.artifact(src, descPatch(popts), func() (Artifact, error) {
		res, err := patch.Apply(popts, u)
		if err != nil {
			return Artifact{}, err
		}
		prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
		return Artifact{Prog: prog}, err
	})
	return art.Prog, err
}

// elimProgram rewrites the unit with the elimination analysis and
// assembles, once per distinct (source, mode, monitor config). The cached
// elim.Result is read-only shared state; the per-run Runtime that arms
// sites from it patches text through machine.PatchInstr, which privatizes
// the shared image first.
func (c Config) elimProgram(src string, u *asm.Unit, mode elim.Mode, mcfg monitor.Config) (*asm.Program, *elim.Result, error) {
	art, err := c.artifact(src, descElim(mode, mcfg), func() (Artifact, error) {
		res, err := elim.Apply(elim.Options{Mode: mode, Monitor: mcfg}, u)
		if err != nil {
			return Artifact{}, err
		}
		prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
		return Artifact{Prog: prog, Elim: res}, err
	})
	return art.Prog, art.Elim, err
}

// collect reduces a halted machine to the Run record the tables consume.
func collect(prog *asm.Program, m *machine.Machine) Run {
	counters := make(map[string]uint64, len(prog.CounterNames))
	for _, name := range prog.CounterNames {
		counters[name] = prog.Counter(m, name)
	}
	return Run{
		Cycles:   m.Cycles(),
		Instrs:   m.Instrs(),
		Output:   m.Output(),
		Counters: counters,
		Cache:    m.CacheStats(),
	}
}

func (c Config) execute(prog *asm.Program, mcfg monitor.Config, regions [][2]uint32, disabled bool) (Run, error) {
	m := c.newMachine()
	prog.LoadShared(m)
	svc, err := monitor.NewService(mcfg, m)
	if err != nil {
		return Run{}, err
	}
	svc.DisabledOverride = disabled
	for _, r := range regions {
		if err := svc.CreateRegion(r[0], r[1]); err != nil {
			return Run{}, err
		}
	}
	svc.Reinstall()
	if _, err := m.Run(); err != nil {
		return Run{}, err
	}
	run := collect(prog, m)
	run.Hits = svc.HitCount
	return run, nil
}

// RunBaseline assembles and runs the unpatched program. Uncached entry
// point (no content identity for a bare unit); the table drivers use
// runBaseline with the workload source so repeats share one program.
func (c Config) RunBaseline(u *asm.Unit) (Run, error) {
	return c.runBaseline("", u)
}

func (c Config) runBaseline(src string, u *asm.Unit) (Run, error) {
	// Every needBase table re-measures the same baseline; memoRun executes
	// it once per process.
	return c.memoRun(src, "baseline|exec", func() (Run, error) {
		prog, err := c.baselineProgram(src, u)
		if err != nil {
			return Run{}, err
		}
		m := c.newMachine()
		prog.LoadShared(m)
		if _, err := m.Run(); err != nil {
			return Run{}, err
		}
		return Run{Cycles: m.Cycles(), Instrs: m.Instrs(), Output: m.Output(), Cache: m.CacheStats()}, nil
	})
}

// RunStrategy patches with the given Table-1 strategy and runs. With
// disabled set, no region is created and the disabled flag stays on.
// Uncached entry point; the table drivers use runStrategy.
func (c Config) RunStrategy(u *asm.Unit, strat patch.Strategy, mcfg monitor.Config, disabled bool) (Run, error) {
	return c.runStrategy("", u, strat, mcfg, disabled)
}

func (c Config) runStrategy(src string, u *asm.Unit, strat patch.Strategy, mcfg monitor.Config, disabled bool) (Run, error) {
	popts := patch.Options{Strategy: strat, Monitor: mcfg}
	effCfg := mcfg
	if strat == patch.Cache || strat == patch.CacheInline {
		effCfg.Flags = true
	}
	var regions [][2]uint32
	if !disabled && strat != patch.Nops && strat != patch.None {
		regions = [][2]uint32{{FarRegion, 4}}
	}
	desc := descPatch(popts) + "|exec|" + descMonitor(effCfg) + "|" + descRegions(regions, disabled)
	return c.memoRun(src, desc, func() (Run, error) {
		prog, err := c.patchedProgram(src, u, popts)
		if err != nil {
			return Run{}, err
		}
		return c.execute(prog, effCfg, regions, disabled)
	})
}

// RunElim rewrites with the elimination analysis (Sym or Full) and runs.
// Uncached entry point; the table drivers use runElim.
func (c Config) RunElim(u *asm.Unit, mode elim.Mode, mcfg monitor.Config) (Run, error) {
	return c.runElim("", u, mode, mcfg)
}

func (c Config) runElim(src string, u *asm.Unit, mode elim.Mode, mcfg monitor.Config) (Run, error) {
	regions := [][2]uint32{{FarRegion, 4}}
	desc := descElim(mode, mcfg) + "|exec|" + descMonitor(mcfg) + "|" + descRegions(regions, false)
	return c.memoRun(src, desc, func() (Run, error) {
		return c.runElimUncached(src, u, mode, mcfg)
	})
}

// runElimUncached builds (through the cache) and executes an elimination
// run: the per-run elim.Runtime arms sites from the shared result by
// patching live text, which copy-on-write-privatizes the shared image.
func (c Config) runElimUncached(src string, u *asm.Unit, mode elim.Mode, mcfg monitor.Config) (Run, error) {
	prog, res, err := c.elimProgram(src, u, mode, mcfg)
	if err != nil {
		return Run{}, err
	}
	m := c.newMachine()
	prog.LoadShared(m)
	svc, err := monitor.NewService(mcfg, m)
	if err != nil {
		return Run{}, err
	}
	rt := elim.NewRuntime(m, prog, res)
	_ = rt
	if err := svc.CreateRegion(FarRegion, 4); err != nil {
		return Run{}, err
	}
	svc.Reinstall()
	if _, err := m.Run(); err != nil {
		return Run{}, err
	}
	return collect(prog, m), nil
}

func overheadPct(base, with int64) float64 {
	return 100 * (float64(with) - float64(base)) / float64(base)
}

func checkOutput(p workload.Program, want, got string, what string) error {
	if want != got {
		return fmt.Errorf("%s under %s produced %q, baseline %q — monitoring corrupted the program",
			p.Name, what, got, want)
	}
	return nil
}
