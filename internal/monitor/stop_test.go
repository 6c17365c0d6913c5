package monitor_test

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"databreak/internal/asm"
	"databreak/internal/bench"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

var engines = []machine.Engine{machine.EngineStep, machine.EngineBlock, machine.EngineClosure}

type counts struct {
	code           int32
	cycles, instrs int64
	out            string
	cache          cache.Stats
	hits           int64
}

// TestStopCountNeutral runs each workload's session build (the daemon's
// BitmapInlineRegisters program, bench.HitRegion watched) through
// Session.Run while another goroutine calls Session.Do with a read-only
// function at random moments. Every such call stops the run at a dispatch
// boundary and resumes it; cycles, instructions, cache statistics, output
// and hit count must equal an uninterrupted machine.Run's, under every
// engine. -short keeps to the three smallest programs.
func TestStopCountNeutral(t *testing.T) {
	src := bench.DefaultConfig().ProgramSource()
	stops := 0
	for _, p := range workload.All(1) {
		if testing.Short() && p.Name != "fpppp" && p.Name != "eqntott" && p.Name != "li" {
			continue
		}
		prog, err := src(p.Name, 1, patch.BitmapInlineRegisters)
		if err != nil {
			t.Fatal(err)
		}
		m, svc := watchedMachine(t, prog)
		code, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		want := counts{code, m.Cycles(), m.Instrs(), m.Output(), m.CacheStats(), svc.HitCount}
		for _, e := range engines {
			got, n := runInterrupted(t, prog, e, want.instrs)
			if got != want {
				t.Errorf("%s/%v: %d mid-run stops: got %+v, want %+v", p.Name, e, n, got, want)
			}
			stops += n
		}
	}
	if stops == 0 {
		t.Error("no Do landed mid-run: the test stopped nothing")
	}
}

// watchedMachine loads prog's shared image into a fresh closure-engine
// machine whose monitor service watches bench.HitRegion, as a session does.
func watchedMachine(t *testing.T, prog *asm.Program) (*machine.Machine, *monitor.Service) {
	t.Helper()
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.LoadShared(m)
	svc, err := monitor.NewService(monitor.DefaultConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	svc.NoHitLog = true
	if err := svc.CreateRegion(bench.HitRegion, bench.HitRegionSize); err != nil {
		t.Fatal(err)
	}
	return m, svc
}

// TestStopCompilesLikeRun builds each workload's session build afresh for
// three runs with bench.HitRegion watched: a plain machine.Run, one
// RunFor(math.MaxInt64), and a Session.Run that read-only Do calls stop at
// random moments. Run and RunFor share one loop, and a stop lands only at a
// dispatch boundary an uninterrupted run dispatches, so the two other images
// must hold exactly the closures (TraceBytes) the plain Run compiled. -short
// keeps to eqntott and li.
func TestStopCompilesLikeRun(t *testing.T) {
	src := bench.DefaultConfig().ProgramSource()
	build := func(name string) *asm.Program {
		prog, err := src(name, 1, patch.BitmapInlineRegisters)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	stops := 0
	for _, p := range workload.All(1) {
		if testing.Short() && p.Name != "eqntott" && p.Name != "li" {
			continue
		}
		plain := build(p.Name)
		m, _ := watchedMachine(t, plain)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		want, total := plain.TraceBytes(), m.Instrs()

		whole := build(p.Name)
		m, _ = watchedMachine(t, whole)
		if _, halted, err := m.RunFor(math.MaxInt64); err != nil || !halted {
			t.Fatalf("%s: RunFor(MaxInt64) = halted %v, err %v", p.Name, halted, err)
		}
		if got := whole.TraceBytes(); got != want {
			t.Errorf("%s: RunFor(MaxInt64) compiled %d B of closures, Run %d B", p.Name, got, want)
		}

		stopped := build(p.Name)
		_, n := runInterrupted(t, stopped, machine.EngineClosure, total)
		if got := stopped.TraceBytes(); got != want {
			t.Errorf("%s: a session run with %d stops compiled %d B of closures, Run %d B", p.Name, n, got, want)
		}
		stops += n
	}
	if stops == 0 {
		t.Error("no Do landed mid-run: the test stopped nothing")
	}
}

// runInterrupted runs prog in a session under engine e while a goroutine
// calls a read-only Do at random moments, and returns the session's counts
// and how many of those calls found the run in progress.
func runInterrupted(t *testing.T, prog *asm.Program, e machine.Engine, total int64) (counts, int) {
	t.Helper()
	srv := monitor.NewServer()
	defer srv.Close()
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	m.SetEngine(e)
	prog.LoadShared(m)
	sess, err := srv.Attach(monitor.DefaultConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Do(func(_ *machine.Machine, svc *monitor.Service) error {
		svc.NoHitLog = true
		return svc.CreateRegion(bench.HitRegion, bench.HitRegionSize)
	}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for range srv.Hits() {
		}
	}()
	done := make(chan struct{})
	stopped := make(chan int)
	go func() {
		stops := 0
		for {
			select {
			case <-done:
				stopped <- stops
				return
			case <-time.After(time.Duration(rand.IntN(200)) * time.Microsecond):
			}
			sess.Do(func(m *machine.Machine, svc *monitor.Service) error {
				if n := m.Instrs(); n > 0 && n < total {
					stops++
				}
				_, _ = m.PC(), svc.HitCount
				return nil
			})
		}
	}()
	code, err := sess.Run()
	close(done)
	stops := <-stopped
	if err != nil {
		t.Fatal(err)
	}
	var got counts
	sess.Do(func(m *machine.Machine, svc *monitor.Service) error {
		got = counts{code, m.Cycles(), m.Instrs(), m.Output(), m.CacheStats(), svc.HitCount}
		return nil
	})
	return got, stops
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

// within fails the test unless op returns within the deadline.
func within(t *testing.T, what string, op func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		op()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s did not return within 10s", what)
	}
}

// TestStopLiveness: Do, Detach and Server.Close return promptly on a
// session whose Run spins in an endless loop, also while a second Run of
// the same session waits for the lock, and each stopped Run returns a
// detached error once the session is gone.
func TestStopLiveness(t *testing.T) {
	for name, src := range spinPrograms {
		prog, err := asm.Assemble(asm.Options{AddStartup: true}, asm.MustParse(name+".s", src))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range engines {
			srv := monitor.NewServer()
			var runErrs []chan error
			var sessions []*monitor.Session
			for i := 0; i < 2; i++ {
				m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
				m.SetEngine(e)
				prog.Load(m)
				// The program's one store, just before its loop, says
				// the run is under way.
				looping := make(chan struct{})
				var once sync.Once
				m.StoreHook = func(uint32, int32) int64 {
					once.Do(func() { close(looping) })
					return 0
				}
				sess, err := srv.Attach(monitor.DefaultConfig, m)
				if err != nil {
					t.Fatal(err)
				}
				ch := make(chan error, 1)
				go func() {
					_, err := sess.Run()
					ch <- err
				}()
				<-looping
				runErrs = append(runErrs, ch)
				sessions = append(sessions, sess)
			}
			second := make(chan error, 1)
			go func() {
				_, err := sessions[0].Run()
				second <- err
			}()
			runErrs = append(runErrs, second)
			// Let the second Run reach the session lock. The test holds
			// either way; only a second Run already waiting there shows a
			// runner that blocks control operations while it waits.
			time.Sleep(10 * time.Millisecond)
			what := name + "/" + e.String()
			var instrs int64
			within(t, what+": Do", func() {
				sessions[0].Do(func(m *machine.Machine, _ *monitor.Service) error {
					instrs = m.Instrs()
					return nil
				})
			})
			if instrs == 0 {
				t.Errorf("%s: nothing ran before Do", what)
			}
			within(t, what+": Detach", sessions[0].Detach)
			within(t, what+": Server.Close", srv.Close)
			for i, ch := range runErrs {
				within(t, what+": Run", func() {
					if err := <-ch; err == nil {
						t.Errorf("%s: Run %d returned nil after detach", what, i)
					}
				})
			}
		}
	}
}
