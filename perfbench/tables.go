package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"databreak/internal/asm"
	"databreak/internal/bench"
	"databreak/internal/elim"
	"databreak/internal/machine"
	"databreak/internal/minic"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// artSpec is one distinct build of a program: the unit as compiled, patched
// with one write-check strategy, or rewritten by the elimination analysis.
type artSpec struct {
	name  string
	elim  bool
	popts *patch.Options // nil with elim unset: the unpatched baseline
	mode  elim.Mode
}

func patched(s patch.Strategy) *patch.Options {
	return &patch.Options{Strategy: s, Monitor: monitor.DefaultConfig}
}

func nops(n int) *patch.Options {
	return &patch.Options{Strategy: patch.Nops, Nops: n}
}

// artSpecs are the thirteen builds per program that Tables 1 and 2 need.
// The Disabled cell shares the Bitmap build, as in the bench harness.
var artSpecs = []artSpec{
	{name: "baseline"},
	{name: "Bitmap", popts: patched(patch.Bitmap)},
	{name: "BitmapInline", popts: patched(patch.BitmapInline)},
	{name: "BitmapInlineRegisters", popts: patched(patch.BitmapInlineRegisters)},
	{name: "Cache", popts: patched(patch.Cache)},
	{name: "CacheInline", popts: patched(patch.CacheInline)},
	{name: "Nops2", popts: nops(2)},
	{name: "Nops4", popts: nops(4)},
	{name: "Nops8", popts: nops(8)},
	{name: "Nops16", popts: nops(16)},
	{name: "Nops32", popts: nops(32)},
	{name: "Full", elim: true, mode: elim.Full},
	{name: "Sym", elim: true, mode: elim.SymOnly},
}

// cellSpec is one table cell of a program: which build it runs and how the
// monitored region service is set up around it. Each mirrors the run the
// bench harness makes for that cell (bench.Table1, bench.Table2).
type cellSpec struct {
	name     string
	art      int  // index into artSpecs
	service  bool // attach a monitor.Service
	flags    bool // segment-cache flag bit (the Cache strategies)
	disabled bool // Disabled column: no regions, disabled flag forced on
	far      bool // install bench.FarRegion
}

var cellSpecs = []cellSpec{
	{name: "baseline", art: 0},
	{name: "Disabled", art: 1, service: true, disabled: true},
	{name: "Bitmap", art: 1, service: true, far: true},
	{name: "BitmapInline", art: 2, service: true, far: true},
	{name: "BitmapInlineRegisters", art: 3, service: true, far: true},
	{name: "Cache", art: 4, service: true, flags: true, far: true},
	{name: "CacheInline", art: 5, service: true, flags: true, far: true},
	{name: "Nops2", art: 6},
	{name: "Nops4", art: 7},
	{name: "Nops8", art: 8},
	{name: "Nops16", art: 9},
	{name: "Nops32", art: 10},
	{name: "Full", art: 11, service: true, far: true},
	{name: "Sym", art: 12, service: true, far: true},
}

// built is one program's build products from a set-up round.
type built struct {
	prog  workload.Program
	progs []*asm.Program // by artSpecs index
	elims []*elim.Result // by artSpecs index; nil for patch builds
}

// cell is one runnable table cell.
type cell struct {
	id   string // "<program>/<cell>", the reference key
	prog string
	spec cellSpec
	bin  *asm.Program
	res  *elim.Result
}

// buildStats are the counts the build layers report from one set-up round.
type buildStats struct {
	staticWrites           int
	elimSites, elimChecks  int
	imageBytes, traceBytes int64
}

// tablesSetup builds every artifact cold, then attaches each once, on
// `workers` goroutines. It returns the cells in canonical order.
func tablesSetup(tr *tracer, round int, workers int, newMachine func() *machine.Machine) ([]cell, buildStats, error) {
	progs := workload.All(1)
	units := make([]*asm.Unit, len(progs))
	var st buildStats
	var mu sync.Mutex
	err := parallelErr(len(progs), workers, func(i int) error {
		p := progs[i]
		sp := tr.begin("program", fmt.Sprintf("setup%d/%s", round, p.Name))
		defer sp.end()
		c := sp.child("minic.compile")
		src, err := minic.Compile(p.Source)
		c.end()
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		c = sp.child("asm.parse")
		u, err := asm.Parse(p.Name+".s", src)
		c.end()
		if err != nil {
			return fmt.Errorf("%s: %w", p.Name, err)
		}
		units[i] = u
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	bs := make([]built, len(progs))
	for i := range bs {
		bs[i] = built{prog: progs[i], progs: make([]*asm.Program, len(artSpecs)), elims: make([]*elim.Result, len(artSpecs))}
	}
	n := len(progs) * len(artSpecs)
	err = parallelErr(n, workers, func(k int) error {
		b, a := &bs[k/len(artSpecs)], artSpecs[k%len(artSpecs)]
		sp := tr.begin("artifact", fmt.Sprintf("setup%d/%s/%s", round, b.prog.Name, a.name))
		defer sp.end()
		u := units[k/len(artSpecs)].Clone()
		var bin *asm.Program
		var err error
		switch {
		case a.elim:
			c := sp.child("elim.apply")
			res, aerr := elim.Apply(elim.Options{Mode: a.mode, Monitor: monitor.DefaultConfig}, u)
			c.end()
			if aerr != nil {
				return fmt.Errorf("%s/%s: %w", b.prog.Name, a.name, aerr)
			}
			c = sp.child("asm.assemble")
			bin, err = asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
			c.end()
			b.elims[k%len(artSpecs)] = res
			mu.Lock()
			st.elimSites += res.StaticSym + res.StaticLI + res.StaticRange
			st.elimChecks += res.StaticChecked
			mu.Unlock()
		case a.popts != nil:
			c := sp.child("patch.apply")
			res, aerr := patch.Apply(*a.popts, u)
			c.end()
			if aerr != nil {
				return fmt.Errorf("%s/%s: %w", b.prog.Name, a.name, aerr)
			}
			c = sp.child("asm.assemble")
			bin, err = asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
			c.end()
			mu.Lock()
			st.staticWrites += res.StaticWrites
			mu.Unlock()
		default:
			c := sp.child("asm.assemble")
			bin, err = asm.Assemble(asm.Options{AddStartup: true}, u)
			c.end()
		}
		if err != nil {
			return fmt.Errorf("%s/%s: %w", b.prog.Name, a.name, err)
		}
		c := sp.child("machine.image")
		img := bin.Image()
		c.end()
		c = sp.child("machine.warm_attach")
		bin.LoadShared(newMachine())
		c.end()
		b.progs[k%len(artSpecs)] = bin
		mu.Lock()
		st.imageBytes += int64(img.SizeBytes())
		st.traceBytes += int64(img.TraceBytes())
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	cells := make([]cell, 0, len(progs)*len(cellSpecs))
	for _, b := range bs {
		for _, cs := range cellSpecs {
			cells = append(cells, cell{
				id: b.prog.Name + "/" + cs.name, prog: b.prog.Name, spec: cs,
				bin: b.progs[cs.art], res: b.elims[cs.art],
			})
		}
	}
	return cells, st, nil
}

// runCell executes one cell on a fresh machine, the way the bench harness
// runs it, and returns the simulated outcome.
func runCell(sp span, c cell, newMachine func() *machine.Machine) (outcome, error) {
	s := sp.child("machine.new")
	m := newMachine()
	s.end()
	s = sp.child("asm.load")
	c.bin.LoadShared(m)
	s.end()
	var svc *monitor.Service
	if c.spec.service {
		mcfg := monitor.DefaultConfig
		mcfg.Flags = c.spec.flags
		s = sp.child("monitor.setup")
		var err error
		svc, err = monitor.NewService(mcfg, m)
		if err == nil {
			if c.res != nil {
				e := s.child("elim.runtime")
				elim.NewRuntime(m, c.bin, c.res)
				e.end()
			}
			svc.DisabledOverride = c.spec.disabled
			if c.spec.far {
				err = svc.CreateRegion(bench.FarRegion, 4)
			}
			svc.Reinstall()
		}
		s.end()
		if err != nil {
			return outcome{}, err
		}
	}
	s = sp.child("machine.run")
	t0 := time.Now()
	_, err := m.Run()
	runNS := int64(time.Since(t0))
	s.end()
	if err != nil {
		return outcome{}, err
	}
	o := outcome{
		cycles: m.Cycles(), instrs: m.Instrs(), output: digest(m.Output()),
		cache: m.CacheStats(), hasCache: true, runNS: runNS,
	}
	if svc != nil {
		o.hits = svc.HitCount
	}
	return o, nil
}

// parallel calls fn(w, i) for every i in 0..n-1 on `workers` goroutines,
// w being the calling goroutine's index, and waits for all of them.
func parallel(n, workers int, fn func(w, i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// parallelErr is parallel for calls that can fail; it returns the first
// error in index order.
func parallelErr(n, workers int, fn func(i int) error) error {
	errs := make([]error, n)
	parallel(n, workers, func(_, i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// setupRounds is how many times a run sets up from cold; setup_s is their
// median. A traced run traces only the last round.
const setupRounds = 5

// tablesBench is the tables workload: every cell of Tables 1 and 2, all ten
// programs, scale 1.
func tablesBench(o runOpts) (*report, error) {
	newMachine := bench.DefaultConfig().MachineFactory()
	workers := runtime.GOMAXPROCS(0)
	rep := newReport(o)
	rep.engine = newMachine().Engine().String()

	var cells []cell
	var st buildStats
	var setups []float64
	for r := 0; r < setupRounds; r++ {
		cells = nil // let the previous round's artifacts go before timing
		runtime.GC()
		var tr *tracer
		if r == setupRounds-1 {
			tr = o.tr
		}
		t0 := time.Now()
		var err error
		if cells, st, err = tablesSetup(tr, r, workers, newMachine); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rep.e2e("setup_s", median(setups), "s", len(setups))
	for _, c := range cells {
		if _, ok := o.ref.Cells[c.id]; !ok {
			return nil, fmt.Errorf("reference has no entry for cell %s", c.id)
		}
	}

	// A round is one pass over all cells in seeded order. Every round does
	// the same work, so the median over rounds of a per-round rate shrugs
	// off a round slowed by something else on the host.
	phase := func(tr *tracer, more func(rounds int) bool, _ bool, seed uint64) phaseStats {
		ps := newPhaseStats()
		var mu sync.Mutex
		runtime.GC()
		ps.begin()
		for r := 0; r == 0 || more(r); r++ {
			order := rand.New(rand.NewPCG(seed, uint64(r))).Perm(len(cells))
			parallel(len(order), workers, func(_, i int) {
				c := cells[order[i]]
				sp := tr.begin("cell", fmt.Sprintf("pass%d/%s", r, c.id))
				got, err := runCell(sp, c, newMachine)
				sp.end()
				if err == nil {
					err = o.ref.Cells[c.id].check(got, true)
				}
				mu.Lock()
				ps.addCell(c, got, err)
				mu.Unlock()
			})
			ps.endRound()
		}
		ps.finish()
		return ps
	}
	measured, traced := measure(o, phase)
	rep.absorb(measured)
	rep.rates(measured)
	rep.e2e("heap_mb", measured.heapMB, "MB", 0)
	runtime.KeepAlive(cells)

	if traced != nil {
		rep.absorb(*traced)
		rep.layer("patch.static_writes", float64(st.staticWrites), "count")
		rep.layer("elim.static_elim_frac", float64(st.elimSites)/float64(st.elimSites+st.elimChecks), "fraction")
		rep.layer("machine.image_mb", float64(st.imageBytes)/1e6, "MB")
		rep.layer("machine.trace_mb", float64(st.traceBytes)/1e6, "MB")
		rep.layer("monitor.hits", float64(traced.hits), "count")
		rep.spanLayers(o.tr.records(), traced)
		rep.overhead(measured, traced)
	}
	return rep, nil
}
