package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"databreak/internal/asm"
	"databreak/internal/elim"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// tableBuild is one of the thirteen builds per program that Tables 1 and 2
// run: the unpatched baseline, the five check strategies (the Disabled
// column shares the Bitmap build), the nop-alignment probes, and both
// elimination modes.
type tableBuild struct {
	name  string
	popts *patch.Options // nil with elim unset: the unpatched baseline
	elim  bool
	mode  elim.Mode
}

func tableBuilds() []tableBuild {
	builds := []tableBuild{{name: "baseline"}}
	for _, s := range Table1Strategies {
		builds = append(builds, tableBuild{name: s.String(), popts: &patch.Options{Strategy: s, Monitor: monitor.DefaultConfig}})
	}
	for _, n := range []int{2, 4, 8, 16, 32} {
		builds = append(builds, tableBuild{name: fmt.Sprintf("Nops%d", n), popts: &patch.Options{Strategy: patch.Nops, Nops: n}})
	}
	return append(builds,
		tableBuild{name: "Full", elim: true, mode: elim.Full},
		tableBuild{name: "Sym", elim: true, mode: elim.SymOnly})
}

// rewrite runs b's patch or elimination step on u; the baseline passes u
// through.
func (b tableBuild) rewrite(u *asm.Unit) ([]*asm.Unit, error) {
	switch {
	case b.elim:
		res, err := elim.Apply(elim.Options{Mode: b.mode, Monitor: monitor.DefaultConfig}, u)
		if err != nil {
			return nil, err
		}
		return res.Units, nil
	case b.popts != nil:
		res, err := patch.Apply(*b.popts, u)
		if err != nil {
			return nil, err
		}
		return res.Units, nil
	}
	return []*asm.Unit{u}, nil
}

// snapshot deep-copies units, out-of-line item payloads included, so that
// a write through any pointer a unit holds shows up as a difference.
func snapshot(t *testing.T, units []*asm.Unit) []*asm.Unit {
	t.Helper()
	out := make([]*asm.Unit, len(units))
	for k, u := range units {
		c := u.Clone()
		for i := range c.Items {
			it := &c.Items[i]
			var fresh asm.Item
			switch it.Kind {
			case asm.ItemSymRec:
				fresh = asm.SymRecItem(it.Sym())
			case asm.ItemAscii:
				fresh = asm.AsciiItem(bytes.Clone(it.Bytes()))
			default:
				continue
			}
			fresh.Section, fresh.Line = it.Section, it.Line
			if !reflect.DeepEqual(fresh, *it) {
				t.Fatalf("%s item %d: snapshot copy is lossy", u.Name, i)
			}
			*it = fresh
		}
		out[k] = c
	}
	return out
}

func eqntottUnit(t *testing.T) *asm.Unit {
	t.Helper()
	p, ok := workload.ByName("eqntott", 1)
	if !ok {
		t.Fatal("eqntott workload missing")
	}
	u, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestBuildsLeaveInputsUnchanged pins the contract that lets the harness
// pass cached units straight to the build steps: for every Table 1/2 build
// of one workload, patch.Apply and elim.Apply leave their input unit
// deep-equal to a snapshot, and asm.Assemble leaves every unit it links —
// the shared monitor library included — deep-equal too.
func TestBuildsLeaveInputsUnchanged(t *testing.T) {
	u := eqntottUnit(t)
	before := snapshot(t, []*asm.Unit{u})
	for _, b := range tableBuilds() {
		units, err := b.rewrite(u)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if !reflect.DeepEqual([]*asm.Unit{u}, before) {
			t.Fatalf("%s: rewriting changed its input unit", b.name)
		}
		linked := snapshot(t, units)
		if _, err := asm.Assemble(asm.Options{AddStartup: true}, units...); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if !reflect.DeepEqual(units, linked) {
			t.Fatalf("%s: assembling changed a unit it linked", b.name)
		}
	}
}

// TestConcurrentBuildsShareLibrary runs every Table 1/2 build of one
// workload on 8 goroutines at once, all reading the same input unit and the
// same shared monitor library parse; every goroutine must assemble the text
// a serial build does. Under -race it also proves the shared units are only
// read. Not skipped under -short.
func TestConcurrentBuildsShareLibrary(t *testing.T) {
	u := eqntottUnit(t)
	builds := tableBuilds()
	want := make([]*asm.Program, len(builds))
	for i, b := range builds {
		units, err := b.rewrite(u)
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if want[i], err = asm.Assemble(asm.Options{AddStartup: true}, units...); err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
	}
	// The Cache strategies force the monitor's flag bit, so two library
	// configurations are in play.
	flagged := monitor.DefaultConfig
	flagged.Flags = true
	var libs []*asm.Unit
	for _, cfg := range []monitor.Config{monitor.DefaultConfig, flagged} {
		lib, err := patch.SharedLibrary(cfg)
		if err != nil {
			t.Fatal(err)
		}
		libs = append(libs, lib)
	}
	libsBefore := snapshot(t, libs)

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(builds))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range builds {
				i := (k + w) % len(builds) // stagger the order across workers
				b := builds[i]
				units, err := b.rewrite(u)
				if err != nil {
					errs <- fmt.Errorf("worker %d %s: %w", w, b.name, err)
					return
				}
				prog, err := asm.Assemble(asm.Options{AddStartup: true}, units...)
				if err != nil {
					errs <- fmt.Errorf("worker %d %s: %w", w, b.name, err)
					return
				}
				if !reflect.DeepEqual(prog.Text, want[i].Text) || prog.Entry != want[i].Entry {
					errs <- fmt.Errorf("worker %d %s: text differs from the serial build", w, b.name)
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !reflect.DeepEqual(libs, libsBefore) {
		t.Fatal("a shared monitor library changed")
	}
}
