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
	prog.LoadShared(m)
	svc, err := monitor.NewService(monitor.DefaultConfig, m)
	if err != nil {
		return 0, err
	}
	if err := svc.CreateRegion(bench.FarRegion, 4); err != nil {
		return 0, err
	}
	svc.Reinstall()
	_, err = m.Run()
	return svc.HitCount, err
}

// TestConcurrentFirstEntry attaches eight machines per compiled engine to
// one fresh image of a checked table build and runs all sixteen on their own
// goroutines, so machines race to compile and publish the same image traces
// and closures on first entry. Every machine's counts, output, cache
// statistics and hits must equal a step-engine run, and every trace the
// image published must equal a fresh compile of its head. It is not skipped
// under -short: the race-detector run is what checks the publication
// protocol.
func TestConcurrentFirstEntry(t *testing.T) {
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
	img := prog.Image()
	if n := machine.ImageTraceCount(img); n != 0 {
		t.Fatalf("fresh image holds %d traces, want none", n)
	}

	ref := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	ref.SetEngine(machine.EngineStep)
	refHits, err := runMonitored(prog, ref)
	if err != nil {
		t.Fatal(err)
	}

	const perEngine = 8
	engines := []machine.Engine{machine.EngineTrace, machine.EngineClosure}
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
