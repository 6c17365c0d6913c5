package bench

import (
	"fmt"
	"sync"

	"databreak/internal/asm"
	"databreak/internal/machine"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/sparc"
	"databreak/internal/workload"
)

// This file is the concurrency stress harness: it runs many monitored
// sessions at once through one monitor.Server — each on its own machine,
// each with a debugger goroutine adding and removing a region mid-run — and
// checks that every session's simulated cycle and instruction counts are
// bit-identical to a serial run of the same program. Any cross-session
// leak, locking bug, or count perturbation from mid-run control traffic
// shows up as a differential failure (and, under -race, as a race report).
//
// All sessions running the same workload execute from ONE shared program
// image (asm.LoadShared), so with PatchChurn enabled this is also the
// copy-on-write torture test: odd-numbered sessions patch live text mid-run
// through Session.Do while their siblings execute from the same image. A
// PatchInstr that wrote the shared arrays instead of privatizing would be a
// data race (caught by -race) and would corrupt the siblings' differential
// counts.

// ChurnRegion is the region the per-session debugger goroutines add and
// remove while the program runs. Like FarRegion it is far from anything the
// workloads touch, so churning it never produces a hit. Beside FarRegion
// alone it is also count-neutral: the service stays enabled (FarRegion
// persists), and the monitor words it flips are never read by the patched
// code. Beside a watched region it is not: its bitmap segment is allocated
// next to the watched region's, and when both share a 32-byte D-cache line,
// as with HitRegion, each region request's machine.WriteWord of bitmap
// words invalidates the simulated line the check code reads on every
// watched store, so the session runs 8 to 32 cycles over an unchurned one,
// depending on when the requests land. The address stays as it is: moving
// it would change simulated counts that benchmark references pin.
const ChurnRegion uint32 = 0x7900_0000

// StressConfig parameterizes a Stress run.
type StressConfig struct {
	// Sessions is the number of concurrent sessions; < 2 means one per
	// workload (which also satisfies the harness's ≥8 design point).
	Sessions int
	// Strategy is the write-check implementation; None means
	// BitmapInlineRegisters, the paper's recommended one.
	Strategy patch.Strategy
	// Churn is how many add/remove rounds each session's debugger goroutine
	// performs mid-run; <= 0 means 64.
	Churn int
	// PatchChurn makes every odd-numbered session also toggle text index 0
	// (startup `call main`, executed exactly once) between unimp and its
	// original form mid-run, through the session lock. The first toggle
	// privatizes the session's shared image (copy-on-write); even-numbered
	// siblings keep executing from the pristine shared arrays and must stay
	// bit-identical to the serial reference. Patching invalidates the
	// simulated I-cache line under the startup code, which legitimately
	// perturbs the patching session's own cycle count, so patching sessions
	// are checked on instruction counts and output only.
	PatchChurn bool
}

// StressSession is one session's outcome.
type StressSession struct {
	Session int
	Program string
	Cycles  int64
	Instrs  int64
	// Patched reports that this session ran the PatchChurn flow (its cycle
	// count is self-consistent but not compared against the serial run).
	Patched bool
}

// StressReport summarizes a Stress run that passed its differential check.
type StressReport struct {
	Sessions []StressSession
	// Hits counts monitor hits observed on the server fan-in (expected 0:
	// both FarRegion and ChurnRegion are outside every workload's write
	// set).
	Hits int
}

// Stress compiles and patches every workload once, then runs sc.Sessions
// concurrent server sessions (round-robin over the workloads) with mid-run
// region churn, comparing each session's counts against a serial reference
// run of the same program. It errors on any divergence.
func (c Config) Stress(sc StressConfig) (StressReport, error) {
	c = c.normalized()
	programs := workload.All(c.Scale)
	if sc.Sessions < 2 {
		sc.Sessions = len(programs)
	}
	if sc.Strategy == patch.None {
		sc.Strategy = patch.BitmapInlineRegisters
	}
	if sc.Churn <= 0 {
		sc.Churn = 64
	}
	mcfg := monitor.DefaultConfig
	if sc.Strategy == patch.Cache || sc.Strategy == patch.CacheInline {
		mcfg.Flags = true
	}

	// Compile, patch, and assemble each workload once — through the artifact
	// cache when one is configured, so a stress run after the tables reuses
	// their programs. All sessions running the same workload share one
	// Program and therefore one machine image.
	type stressPrep struct {
		name string
		prog *asm.Program
		ref  Run
	}
	preps, err := parallelMap(c, len(programs), func(i int) (stressPrep, error) {
		p := programs[i]
		c.logf("stress prep: %s", p.Name)
		u, err := c.unitFor(p)
		if err != nil {
			return stressPrep{}, err
		}
		popts := patch.Options{Strategy: sc.Strategy, Monitor: mcfg}
		prog, err := c.patchedProgram(p.Source, u, popts)
		if err != nil {
			return stressPrep{}, err
		}
		// Serial reference: the counts every concurrent session must
		// reproduce bit for bit. Keyed like a table cell, so a stress run
		// sharing a cache with the tables reuses their measurement.
		regions := [][2]uint32{{FarRegion, 4}}
		desc := descPatch(popts) + "|exec|" + descMonitor(mcfg) + "|" + descRegions(regions, false)
		ref, err := c.memoRun(p.Source, desc, func() (Run, error) {
			return c.execute(prog, mcfg, regions, false)
		})
		if err != nil {
			return stressPrep{}, err
		}
		return stressPrep{name: p.Name, prog: prog, ref: ref}, nil
	})
	if err != nil {
		return StressReport{}, err
	}

	srv := monitor.NewServer()
	defer srv.Close()

	// Drain the fan-in for the whole run; the channel closes after Close.
	var hits int
	var hitWG sync.WaitGroup
	hitWG.Add(1)
	go func() {
		defer hitWG.Done()
		for range srv.Hits() {
			hits++
		}
	}()

	report := StressReport{Sessions: make([]StressSession, sc.Sessions)}
	errs := make([]error, sc.Sessions)
	var wg sync.WaitGroup
	for i := 0; i < sc.Sessions; i++ {
		i := i
		pp := preps[i%len(preps)]
		wg.Add(1)
		patcher := sc.PatchChurn && i%2 == 1
		go func() {
			defer wg.Done()
			c.logf("stress session %d: %s", i, pp.name)
			run, err := c.stressSession(srv, pp.prog, mcfg, sc.Churn, patcher)
			if err != nil {
				errs[i] = fmt.Errorf("session %d (%s): %w", i, pp.name, err)
				return
			}
			// Patching sessions own a privatized text copy whose I-cache was
			// invalidated mid-run, so only their architectural results are
			// comparable; every other session must match the serial run bit
			// for bit, including cycles.
			cyclesOK := patcher || run.Cycles == pp.ref.Cycles
			if !cyclesOK || run.Instrs != pp.ref.Instrs || run.Output != pp.ref.Output {
				errs[i] = fmt.Errorf(
					"session %d (%s, patcher=%v): concurrent run diverged from serial: cycles %d vs %d, instrs %d vs %d, output match %v",
					i, pp.name, patcher, run.Cycles, pp.ref.Cycles, run.Instrs, pp.ref.Instrs,
					run.Output == pp.ref.Output)
				return
			}
			report.Sessions[i] = StressSession{
				Session: i, Program: pp.name, Cycles: run.Cycles, Instrs: run.Instrs, Patched: patcher,
			}
		}()
	}
	wg.Wait()
	srv.Close()
	hitWG.Wait()
	report.Hits = hits
	for _, err := range errs {
		if err != nil {
			return StressReport{}, err
		}
	}
	return report, nil
}

// stressSession runs one workload to completion through a server session
// while a debugger goroutine adds and removes ChurnRegion — the mid-run
// control traffic the concurrency contract must absorb without perturbing
// simulated counts. With patcher set, the goroutine also toggles text
// index 0 between unimp and its original instruction through Session.Do:
// the first toggle copy-on-write-privatizes this machine's shared image
// while sibling sessions keep executing from it.
func (c Config) stressSession(srv *monitor.Server, prog *asm.Program, mcfg monitor.Config, churn int, patcher bool) (Run, error) {
	m := c.newMachine()
	prog.LoadShared(m)
	sess, err := srv.Attach(mcfg, m)
	if err != nil {
		return Run{}, err
	}
	defer sess.Detach()
	if err := sess.Do(func(_ *machine.Machine, svc *monitor.Service) error {
		if err := svc.CreateRegion(FarRegion, 4); err != nil {
			return err
		}
		svc.Reinstall()
		return nil
	}); err != nil {
		return Run{}, err
	}

	done := make(chan struct{})
	var churnErr error
	var cwg sync.WaitGroup
	cwg.Add(1)
	go func() {
		defer cwg.Done()
		orig := prog.Text[0]
		unimp := sparc.Instr{Op: sparc.Unimp}
		for i := 0; i < churn; i++ {
			select {
			case <-done:
				return
			default:
			}
			if err := sess.CreateRegion(ChurnRegion, 16); err != nil {
				churnErr = err
				return
			}
			// Kind-restricted and transition regions churn alongside the
			// plain one: same far addresses (no workload traffic), so the
			// bitmap and shadow-snapshot plumbing is exercised mid-run
			// without perturbing any simulated count.
			if err := sess.CreateRegionKind(ChurnRegion+16, 8, monitor.KindLoad); err != nil {
				churnErr = err
				return
			}
			if err := sess.CreateTransitionRegion(ChurnRegion+24, 4,
				monitor.Predicate{Kind: monitor.PredNonzero}); err != nil {
				churnErr = err
				return
			}
			if err := sess.DeleteRegion(ChurnRegion, 16); err != nil {
				churnErr = err
				return
			}
			if err := sess.DeleteRegion(ChurnRegion+16, 8); err != nil {
				churnErr = err
				return
			}
			if err := sess.DeleteRegion(ChurnRegion+24, 4); err != nil {
				churnErr = err
				return
			}
			if !patcher {
				continue
			}
			if err := sess.Do(func(m *machine.Machine, _ *monitor.Service) error {
				// Index 0 is the startup `call main`: it executes exactly
				// once, so once at least one instruction has retired it is
				// dead code and may hold anything — but a leak of the unimp
				// into the shared image would kill a sibling that has not
				// started yet.
				if m.Instrs() == 0 {
					return nil
				}
				m.PatchInstr(0, unimp)
				m.PatchInstr(0, orig)
				return nil
			}); err != nil {
				churnErr = err
				return
			}
		}
	}()

	_, runErr := sess.Run()
	close(done)
	cwg.Wait()
	if runErr != nil {
		return Run{}, runErr
	}
	if churnErr != nil {
		return Run{}, churnErr
	}
	var run Run
	err = sess.Do(func(m *machine.Machine, _ *monitor.Service) error {
		run = collect(prog, m)
		return nil
	})
	return run, err
}
