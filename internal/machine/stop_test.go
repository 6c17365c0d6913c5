package machine_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"databreak/internal/asm"
	"databreak/internal/bench"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/workload"
)

var engines = []machine.Engine{machine.EngineStep, machine.EngineClosure}

// workloadProgram assembles the named workload unpatched.
func workloadProgram(t *testing.T, name string) *asm.Program {
	t.Helper()
	p, ok := workload.ByName(name, 1)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	u, err := bench.Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, u)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

type counts struct {
	code           int32
	cycles, instrs int64
	out            string
	cache          cache.Stats
}

func countsOf(m *machine.Machine, code int32) counts {
	return counts{code, m.Cycles(), m.Instrs(), m.Output(), m.CacheStats()}
}

// TestRunForWholeBudget passes the whole remaining budget as math.MaxInt64
// to a machine that has already run, the way monitor.Session.Run does.
// RunFor must clamp the budget before adding it to the instruction count:
// a wrapped limit retires nothing and never halts, so a caller looping
// until halted spins.
func TestRunForWholeBudget(t *testing.T) {
	prog := workloadProgram(t, "eqntott")
	ref := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(ref)
	code, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := countsOf(ref, code)
	for _, e := range engines {
		m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		prog.Load(m)
		m.SetEngine(e)
		if _, halted, err := m.RunFor(100); err != nil || halted || m.Instrs() != 100 {
			t.Fatalf("%v: RunFor(100) = halted %v, err %v, %d instrs", e, halted, err, m.Instrs())
		}
		code, halted, err := m.RunFor(math.MaxInt64)
		if err != nil || !halted {
			t.Fatalf("%v: RunFor(MaxInt64) after 100 instructions = halted %v, err %v at %d instrs", e, halted, err, m.Instrs())
		}
		if got := countsOf(m, code); got != want {
			t.Errorf("%v: got %+v, want %+v", e, got, want)
		}
	}
}

// TestRunForStopRequest: a RunFor that starts with a stop pending returns
// (0, false, nil) at once, requests count until each is withdrawn, and
// once none is pending RunFor keeps its exact contract. Run never returns
// on a request: with one pending it runs to a plain Run's counts.
func TestRunForStopRequest(t *testing.T) {
	prog := workloadProgram(t, "eqntott")
	ref := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(ref)
	code, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := countsOf(ref, code)
	for _, e := range engines {
		stopped := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		prog.Load(stopped)
		stopped.SetEngine(e)
		stopped.RequestStop()
		code, err := stopped.Run()
		if got := countsOf(stopped, code); err != nil || got != want {
			t.Errorf("%v: Run with a stop pending: err %v, got %+v, want %+v", e, err, got, want)
		}
		stopped.WithdrawStop()

		m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		prog.Load(m)
		m.SetEngine(e)
		if _, _, err := m.RunFor(1000); err != nil {
			t.Fatal(err)
		}
		m.RequestStop()
		m.RequestStop()
		for k := 0; k < 2; k++ {
			code, halted, err := m.RunFor(500)
			if code != 0 || halted || err != nil || m.Instrs() != 1000 {
				t.Fatalf("%v: stopped RunFor = (%d, %v, %v) at %d instrs, want (0, false, nil) at 1000", e, code, halted, err, m.Instrs())
			}
			m.WithdrawStop()
		}
		if _, _, err := m.RunFor(500); err != nil || m.Instrs() != 1500 {
			t.Fatalf("%v: RunFor(500) after withdrawal: err %v, %d instrs, want 1500", e, err, m.Instrs())
		}
	}
}

// spinPrograms store once, then loop forever: a branch to itself, which
// the dispatcher handles inline, and a loop body the closure engine
// compiles into one looping trace. Neither halts before MaxInstrs (4e9
// instructions).
var spinPrograms = map[string]string{
	"self": `
main:
	save %sp, -96, %sp
	st %l0, [%fp-4]
spin:
	ba spin
`,
	"loop": `
main:
	save %sp, -96, %sp
	st %l0, [%fp-4]
loop:
	add %l0, 1, %l0
	add %l1, 2, %l1
	add %l2, 3, %l2
	ba loop
`,
}

// spinMachine loads the named spin program under engine e. The returned
// channel closes at the program's one store, just before its loop.
func spinMachine(t *testing.T, name string, e machine.Engine) (*machine.Machine, <-chan struct{}) {
	t.Helper()
	prog, err := asm.Assemble(asm.Options{AddStartup: true}, asm.MustParse(name+".s", spinPrograms[name]))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.Load(m)
	m.SetEngine(e)
	looping := make(chan struct{})
	var once sync.Once
	m.StoreHook = func(uint32, int32) int64 {
		once.Do(func() { close(looping) })
		return 0
	}
	return m, looping
}

// TestRunForStopLiveness requests a stop from another goroutine while
// RunFor runs an endless loop with the whole budget: it must return
// promptly under every engine. Under the closure engine this needs the
// chain cap, since a looping trace otherwise runs to MaxInstrs without
// returning to the dispatcher.
func TestRunForStopLiveness(t *testing.T) {
	for name := range spinPrograms {
		for _, e := range engines {
			m, looping := spinMachine(t, name, e)
			type result struct {
				code   int32
				halted bool
				err    error
			}
			done := make(chan result, 1)
			go func() {
				code, halted, err := m.RunFor(math.MaxInt64)
				done <- result{code, halted, err}
			}()
			<-looping
			m.RequestStop()
			select {
			case r := <-done:
				if r.code != 0 || r.halted || r.err != nil {
					t.Errorf("%s/%v: stopped RunFor = %+v, want (0, false, nil)", name, e, r)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s/%v: RunFor did not return within 10s of a stop request", name, e)
			}
			m.WithdrawStop()
		}
	}
}
