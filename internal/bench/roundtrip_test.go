package bench

import (
	"testing"

	"databreak/internal/machine"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// TestEngineRoundTripAllWorkloads is the workload-scale engine-switching
// differential: every benchmark program runs once serially under the
// reference step engine, then again sliced by RunFor with SetEngine rotating
// through every engine between slices. The sliced run crosses engine
// boundaries dozens of times mid-program — compiled closures are
// entered, abandoned for the block or step engine, and re-entered — and the
// final cycles, instructions, exit code, and output must be bit-identical to
// the uninterrupted reference. Run under -race this also exercises the
// per-engine caches' construction on a machine shared across slices.
func TestEngineRoundTripAllWorkloads(t *testing.T) {
	engines := []machine.Engine{machine.EngineStep, machine.EngineBlock, machine.EngineClosure}
	cfg := DefaultConfig()
	for _, p := range workload.All(1) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			u, err := Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := cfg.baselineProgram(p.Source, u)
			if err != nil {
				t.Fatal(err)
			}

			ref := machine.New(cfg.Cache, cfg.Costs)
			ref.SetEngine(machine.EngineStep)
			prog.LoadShared(ref)
			refCode, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}

			// Slice so the run rotates through each engine many times; the
			// floor keeps tiny programs from degenerating to per-instruction
			// slices (that differential lives in the machine package).
			slice := ref.Instrs() / 48
			if slice < 500 {
				slice = 500
			}

			m := machine.New(cfg.Cache, cfg.Costs)
			prog.LoadShared(m)
			var code int32
			for i := 0; ; i++ {
				m.SetEngine(engines[i%len(engines)])
				c, halted, err := m.RunFor(slice)
				if err != nil {
					t.Fatalf("slice %d (%s): %v", i, engines[i%len(engines)], err)
				}
				if halted {
					code = c
					break
				}
			}

			if code != refCode {
				t.Errorf("exit code %d, reference %d", code, refCode)
			}
			if m.Cycles() != ref.Cycles() || m.Instrs() != ref.Instrs() {
				t.Errorf("sliced counts %d cycles / %d instrs, reference %d / %d",
					m.Cycles(), m.Instrs(), ref.Cycles(), ref.Instrs())
			}
			if m.Output() != ref.Output() {
				t.Errorf("output diverged:\nsliced:    %q\nreference: %q", m.Output(), ref.Output())
			}
		})
	}
}

// TestEngineRoundTripKindRegions repeats the engine-switching differential on
// the monitored, read-checked build: every workload is patched with
// BitmapInlineRegisters+CheckReads, armed with a load-kind region on one
// entry-frame stack slot and a transition region (PredChanged) on another,
// and run once under the step engine and once sliced across every engine.
// Cycles, instructions, output, AND the delivered hit stream — including
// read flags and transition old/new values — must be bit-identical.
func TestEngineRoundTripKindRegions(t *testing.T) {
	engines := []machine.Engine{machine.EngineStep, machine.EngineBlock, machine.EngineClosure}
	cfg := DefaultConfig()
	popts := patch.Options{Strategy: patch.BitmapInlineRegisters, CheckReads: true}
	mcfg := monitor.DefaultConfig

	type hitKey struct {
		addr     uint32
		size     int32
		read     bool
		old, new uint32
		instrs   int64
	}
	arm := func(t *testing.T, svc *monitor.Service) {
		t.Helper()
		if err := svc.CreateRegion(FarRegion, 4); err != nil {
			t.Fatal(err)
		}
		if err := svc.CreateRegionKind(machine.StackTop-8, 4, monitor.KindLoad); err != nil {
			t.Fatal(err)
		}
		if err := svc.CreateTransitionRegion(HitRegion, HitRegionSize,
			monitor.Predicate{Kind: monitor.PredChanged}); err != nil {
			t.Fatal(err)
		}
		svc.Reinstall()
	}
	var totalHits int64
	for _, p := range workload.All(1) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			u, err := Compile(p)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := cfg.patchedProgram(p.Source, u, popts)
			if err != nil {
				t.Fatal(err)
			}

			ref := machine.New(cfg.Cache, cfg.Costs)
			ref.SetEngine(machine.EngineStep)
			prog.LoadShared(ref)
			refSvc, err := monitor.NewService(mcfg, ref)
			if err != nil {
				t.Fatal(err)
			}
			arm(t, refSvc)
			refCode, err := ref.Run()
			if err != nil {
				t.Fatal(err)
			}

			slice := ref.Instrs() / 48
			if slice < 500 {
				slice = 500
			}
			m := machine.New(cfg.Cache, cfg.Costs)
			prog.LoadShared(m)
			svc, err := monitor.NewService(mcfg, m)
			if err != nil {
				t.Fatal(err)
			}
			arm(t, svc)
			var code int32
			for i := 0; ; i++ {
				m.SetEngine(engines[i%len(engines)])
				c, halted, err := m.RunFor(slice)
				if err != nil {
					t.Fatalf("slice %d (%s): %v", i, engines[i%len(engines)], err)
				}
				if halted {
					code = c
					break
				}
			}

			if code != refCode {
				t.Errorf("exit code %d, reference %d", code, refCode)
			}
			if m.Cycles() != ref.Cycles() || m.Instrs() != ref.Instrs() {
				t.Errorf("sliced counts %d cycles / %d instrs, reference %d / %d",
					m.Cycles(), m.Instrs(), ref.Cycles(), ref.Instrs())
			}
			if m.Output() != ref.Output() {
				t.Errorf("output diverged")
			}
			if svc.HitCount != refSvc.HitCount {
				t.Errorf("hit count %d, reference %d", svc.HitCount, refSvc.HitCount)
			}
			for i := range refSvc.Hits {
				if i >= len(svc.Hits) {
					break
				}
				r, s := refSvc.Hits[i], svc.Hits[i]
				rk := hitKey{r.Addr, r.Size, r.Read, r.Old, r.New, r.Instrs}
				sk := hitKey{s.Addr, s.Size, s.Read, s.Old, s.New, s.Instrs}
				if rk != sk {
					t.Fatalf("hit %d diverged: sliced %+v, reference %+v", i, sk, rk)
				}
			}
			totalHits += refSvc.HitCount
		})
	}
	// The armed regions must actually see traffic somewhere in the suite;
	// an all-zero hit stream would make the differential vacuous.
	if !t.Failed() && totalHits == 0 {
		t.Error("no workload delivered any read or transition hit")
	}
}
