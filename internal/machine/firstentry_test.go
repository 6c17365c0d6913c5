package machine_test

import (
	"sync"
	"testing"

	"databreak/internal/asm"
	"databreak/internal/bench"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/monitor"
	"databreak/internal/workload"
)

// runMonitored runs prog on m the way a Table 1 cell does: a monitor
// service with one region far from the program's data, so every check runs
// and none hits. It returns the service's hit count.
func runMonitored(prog *asm.Program, m *machine.Machine) (int64, error) {
	svc, err := attachMonitored(prog, m)
	if err != nil {
		return 0, err
	}
	_, err = m.Run()
	return svc.HitCount, err
}

// attachMonitored loads prog on m with runMonitored's monitor set-up.
func attachMonitored(prog *asm.Program, m *machine.Machine) (*monitor.Service, error) {
	prog.LoadShared(m)
	svc, err := monitor.NewService(monitor.DefaultConfig, m)
	if err != nil {
		return nil, err
	}
	if err := svc.CreateRegion(bench.FarRegion, 4); err != nil {
		return nil, err
	}
	svc.Reinstall()
	return svc, nil
}

// eqntottChecked builds eqntott's BitmapInlineRegisters table build with a
// fresh image, whose traces only running machines publish.
func eqntottChecked(t *testing.T) *asm.Program {
	t.Helper()
	var p workload.Program
	for _, q := range workload.All(1) {
		if q.Name == "eqntott" {
			p = q
		}
	}
	u, err := bench.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	prog := buildTable(t, p, u, tableBuilds[3]) // BitmapInlineRegisters
	if n := machine.ImageTraceCount(prog.Image()); n != 0 {
		t.Fatalf("fresh image holds %d traces, want none", n)
	}
	return prog
}

// TestConcurrentFirstEntry attaches sixteen machines per compiled engine to
// one fresh image of a checked table build and runs them on their own
// goroutines, so machines race to compile and publish the same image
// closures on first entry. Every machine's counts, output, cache statistics
// and hits must equal a step-engine run, and every closure the image
// published must equal a fresh compile of its head. It is not skipped under
// -short: the race-detector run is what checks the publication protocol.
func TestConcurrentFirstEntry(t *testing.T) {
	prog := eqntottChecked(t)
	img := prog.Image()

	ref := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	ref.SetEngine(machine.EngineStep)
	refHits, err := runMonitored(prog, ref)
	if err != nil {
		t.Fatal(err)
	}

	const perEngine = 16
	engines := []machine.Engine{machine.EngineClosure}
	ms := make([]*machine.Machine, perEngine*len(engines))
	hits := make([]int64, len(ms))
	errs := make([]error, len(ms))
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := range ms {
		ms[i] = machine.New(cache.DefaultConfig, machine.DefaultCosts)
		ms[i].SetEngine(engines[i%len(engines)])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-gate
			hits[i], errs[i] = runMonitored(prog, ms[i])
		}(i)
	}
	close(gate)
	wg.Wait()

	for i, m := range ms {
		e := m.Engine()
		if errs[i] != nil {
			t.Fatalf("machine %d (%v): %v", i, e, errs[i])
		}
		if m.Cycles() != ref.Cycles() || m.Instrs() != ref.Instrs() {
			t.Errorf("machine %d (%v): cycles/instrs %d/%d, step %d/%d",
				i, e, m.Cycles(), m.Instrs(), ref.Cycles(), ref.Instrs())
		}
		if m.Output() != ref.Output() {
			t.Errorf("machine %d (%v): output differs from the step run", i, e)
		}
		if m.CacheStats() != ref.CacheStats() {
			t.Errorf("machine %d (%v): cache stats %+v, step %+v", i, e, m.CacheStats(), ref.CacheStats())
		}
		if hits[i] != refHits {
			t.Errorf("machine %d (%v): %d hits, step %d", i, e, hits[i], refHits)
		}
	}
	if machine.ImageTraceCount(img) == 0 {
		t.Fatal("the runs published no image traces")
	}
	if s := machine.ImageTraceMismatch(img); s != "" {
		t.Fatal(s)
	}
}

// TestPatchInheritsPublishedTraces pins copy-on-write privatization over a
// fresh image, on every compiled engine. A machine watching a region the
// program writes runs part-way, publishing image closures, then patches an
// index inside one published closure's spans (rewriting the instruction
// already there, so the program keeps its meaning). The patcher keeps the
// image's own closure at every head the patch does not cover; it drops the
// covering closures and rebuilds them from its patched text; and it never
// writes the image's slots, which a sibling attached before the patch keeps
// running. The patcher's counts, output, cache statistics and
// hits equal a step run patched at the same point, and the sibling's equal
// an unpatched step run.
func TestPatchInheritsPublishedTraces(t *testing.T) {
	const part = 200_000 // instructions run before the patch

	type result struct {
		m    *machine.Machine
		hits int64
	}
	// attach adds a region on the stack word every workload writes to
	// runMonitored's set-up, so the runs deliver hits.
	attach := func(prog *asm.Program, m *machine.Machine) *monitor.Service {
		svc, err := attachMonitored(prog, m)
		if err == nil {
			err = svc.CreateRegion(bench.HitRegion, bench.HitRegionSize)
		}
		if err != nil {
			t.Fatal(err)
		}
		svc.Reinstall()
		return svc
	}
	// run attaches a fresh machine to prog, runs it part-way, calls patch
	// (when non-nil) and runs it to the end.
	run := func(prog *asm.Program, e machine.Engine, patch func(*machine.Machine)) result {
		m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		m.SetEngine(e)
		svc := attach(prog, m)
		if _, halted, err := m.RunFor(part); err != nil || halted {
			t.Fatalf("%v: part-way run: halted %v, %v", e, halted, err)
		}
		if patch != nil {
			patch(m)
		}
		if _, err := m.Run(); err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		return result{m, svc.HitCount}
	}
	same := func(ctx string, got, want result) {
		t.Helper()
		g, w := got.m, want.m
		if g.Cycles() != w.Cycles() || g.Instrs() != w.Instrs() {
			t.Errorf("%s: cycles/instrs %d/%d, step %d/%d", ctx, g.Cycles(), g.Instrs(), w.Cycles(), w.Instrs())
		}
		if g.Output() != w.Output() {
			t.Errorf("%s: output differs from the step run", ctx)
		}
		if g.CacheStats() != w.CacheStats() {
			t.Errorf("%s: cache stats %+v, step %+v", ctx, g.CacheStats(), w.CacheStats())
		}
		if got.hits != want.hits || want.hits == 0 {
			t.Errorf("%s: %d hits, step %d (want equal and nonzero)", ctx, got.hits, want.hits)
		}
	}

	for _, e := range []machine.Engine{machine.EngineClosure} {
		prog := eqntottChecked(t)
		img := prog.Image()

		// The sibling publishes traces in its part-way run; the patcher
		// (run below) attaches after it and patches inside one of them.
		sibling := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		sibling.SetEngine(e)
		sibSvc := attach(prog, sibling)
		if _, _, err := sibling.RunFor(part); err != nil {
			t.Fatal(err)
		}
		published, _ := machine.ImageTraceHeads(img, -1)
		if len(published) < 2 {
			t.Fatalf("%v: the part-way run published %d traces", e, len(published))
		}
		lo, hi := machine.ImageTraceSpan(img, published[len(published)/2])
		idx := lo + (hi-lo)/2

		var (
			patcher *machine.Machine
			snap    []any
		)
		patched := run(prog, e, func(m *machine.Machine) {
			patcher = m
			heads, covers := machine.ImageTraceHeads(img, idx)
			snap = machine.ImageSlots(img)
			in, _ := m.InstrAt(idx)
			if err := m.PatchInstr(idx, in); err != nil {
				t.Fatal(err)
			}
			kept := int32(-1) // an uncovered head
			for i, h := range heads {
				switch {
				case covers[i] && machine.MachineHasTrace(m, h):
					t.Errorf("%v: patcher kept the trace at %d over patched index %d", e, h, idx)
				case !covers[i] && !machine.InheritsImageTrace(m, img, h):
					t.Errorf("%v: patcher dropped the image's trace at uncovered head %d", e, h)
				case !covers[i]:
					kept = h
				}
			}
			if kept < 0 {
				t.Fatalf("%v: every published trace covers index %d", e, idx)
			}
			checkSlots(t, e, "the patch", img, snap)
		})
		checkSlots(t, e, "the patcher's run", img, snap)
		if s := machine.MachineTraceMismatch(patcher); s != "" {
			t.Errorf("%v: patcher: %s", e, s)
		}

		ref := run(prog, machine.EngineStep, func(m *machine.Machine) {
			in, _ := m.InstrAt(idx)
			if err := m.PatchInstr(idx, in); err != nil {
				t.Fatal(err)
			}
		})
		same(e.String()+" patcher", patched, ref)

		if _, err := sibling.Run(); err != nil {
			t.Fatal(err)
		}
		same(e.String()+" sibling", result{sibling, sibSvc.HitCount}, run(prog, machine.EngineStep, nil))
	}
}

// checkSlots fails the test unless every slot of img still holds what snap
// recorded.
func checkSlots(t *testing.T, e machine.Engine, after string, img *machine.Image, snap []any) {
	t.Helper()
	now := machine.ImageSlots(img)
	if len(now) != len(snap) {
		t.Fatalf("%v: image slot count %d after %s, %d before", e, len(now), after, len(snap))
	}
	for i := range now {
		if now[i] != snap[i] {
			t.Fatalf("%v: image slot %d changed after %s", e, i, after)
		}
	}
}
