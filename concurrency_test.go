package databreak

import (
	"testing"

	"databreak/internal/asm"
	"databreak/internal/bench"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/minic"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// TestConcurrentSessionStress is the tentpole correctness harness: at least
// eight concurrent monitor.Server sessions run the full workload suite with
// a debugger goroutine per session adding and removing a region mid-run.
// bench.Stress fails if any session's simulated cycle or instruction count
// differs from a serial run of the same program — concurrency must be
// invisible to the simulation. PatchChurn additionally has odd sessions
// patch their own text mid-run, so the copy-on-write privatization of the
// shared program image is exercised while sibling sessions execute from it.
// Run under -race this also exercises the locking contract across monitor,
// machine, the image sharing, and the hit fan-in.
func TestConcurrentSessionStress(t *testing.T) {
	cfg := bench.DefaultConfig()
	sc := bench.StressConfig{Sessions: len(workload.All(1)), Churn: 64, PatchChurn: true}
	if sc.Sessions < 8 {
		t.Fatalf("workload suite has %d programs; stress design point is >= 8 sessions", sc.Sessions)
	}
	if !testing.Short() {
		// Long mode: more sessions than workloads, so some programs run in
		// two sessions at once (shared *asm.Program, distinct machines).
		sc.Sessions = 2 * sc.Sessions
		sc.Churn = 256
	}
	rep, err := cfg.Stress(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Sessions) != sc.Sessions {
		t.Fatalf("report has %d sessions, want %d", len(rep.Sessions), sc.Sessions)
	}
	if rep.Hits != 0 {
		t.Errorf("far/churn regions produced %d monitor hits, want 0", rep.Hits)
	}
	seen := make(map[string]bool)
	for _, s := range rep.Sessions {
		if s.Instrs == 0 {
			t.Errorf("session %d (%s) reported zero instructions", s.Session, s.Program)
		}
		seen[s.Program] = true
	}
	if len(seen) != len(workload.All(1)) {
		t.Errorf("stress covered %d distinct workloads, want all %d", len(seen), len(workload.All(1)))
	}
}

// TestRunForMatchesRun pins the count identity monitor.Session.Run's stops
// depend on: executing a program in RunFor slices — of any size, including
// pathological one-instruction slices, under every engine — must produce
// exactly the cycles, instructions, output, and exit code of an
// uninterrupted machine.Run, each slice retiring exactly its budget.
func TestRunForMatchesRun(t *testing.T) {
	src := `
int fib(int n) {
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main() {
	int i;
	int acc;
	acc = 0;
	for (i = 0; i < 15; i = i + 1) acc = acc + fib(i);
	print(acc);
	return acc % 128;
}
`
	asmSrc, err := minic.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	u, err := asm.Parse("runfor.c", asmSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := patch.Apply(patch.Options{Strategy: patch.BitmapInlineRegisters}, u)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		code   int32
		cycles int64
		instrs int64
		out    string
	}
	newMonitored := func() (*machine.Machine, *monitor.Service) {
		m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		prog.Load(m)
		svc, err := monitor.NewService(monitor.DefaultConfig, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.CreateRegion(bench.FarRegion, 4); err != nil {
			t.Fatal(err)
		}
		svc.Reinstall()
		return m, svc
	}

	m, _ := newMonitored()
	code, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := result{code, m.Cycles(), m.Instrs(), m.Output()}

	for _, e := range []machine.Engine{machine.EngineStep, machine.EngineClosure} {
		for _, slice := range []int64{1, 7, 100, 4095, 4096, 4097} {
			m, _ := newMonitored()
			m.SetEngine(e)
			var got result
			for {
				before := m.Instrs()
				code, halted, err := m.RunFor(slice)
				if err != nil {
					t.Fatalf("%v, slice %d: %v", e, slice, err)
				}
				if halted {
					got = result{code, m.Cycles(), m.Instrs(), m.Output()}
					break
				}
				// With no stop requested, every slice retires exactly its
				// budget, however it cuts blocks and traces.
				if n := m.Instrs() - before; n != slice {
					t.Fatalf("%v, slice %d: RunFor at %d retired %d instructions", e, slice, before, n)
				}
			}
			if got != want {
				t.Errorf("%v, slice %d: got %+v, want %+v", e, slice, got, want)
			}
		}
	}
}
