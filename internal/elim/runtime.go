package elim

import (
	"fmt"

	"databreak/internal/asm"
	"databreak/internal/machine"
	"databreak/internal/monitor"
	"databreak/internal/sparc"
)

// Runtime manages dynamic insertion and deletion of eliminated write checks
// for a loaded program (§4's write check patches): it arms a site by
// replacing its store with a branch to the site's patch block, and disarms
// it by restoring the original instruction.
type Runtime struct {
	m    *machine.Machine
	prog *asm.Program
	res  *Result

	original map[int]sparc.Instr // armed site id -> displaced store
	armedSym map[string]bool

	// ArmEvents counts dynamic re-insertion events (range/LI hits).
	ArmEvents int
}

// NewRuntime wires the re-insertion machinery: range-check hits arm their
// loop's eliminated sites, and the shadow %fp stack is initialized.
func NewRuntime(m *machine.Machine, prog *asm.Program, res *Result) *Runtime {
	r := &Runtime{
		m:        m,
		prog:     prog,
		res:      res,
		original: make(map[int]sparc.Instr),
		armedSym: make(map[string]bool),
	}
	m.OnRangeHit = func(id int32) {
		r.ArmEvents++
		for _, site := range res.LoopSites[id] {
			r.armSite(site)
		}
	}
	r.InitShadowStack()
	return r
}

// InitShadowStack (re)initializes the %fp shadow stack pointer; call after
// machine.Reset.
func (r *Runtime) InitShadowStack() {
	base := monitor.FpScratch
	r.m.WriteWord(base, int32(base+8))
}

func (r *Runtime) siteIndexes(id int) (site, patchBlock int32, err error) {
	s, ok := r.prog.TextLabels[siteLabel(id)]
	if !ok {
		return 0, 0, fmt.Errorf("elim: site %d has no label", id)
	}
	p, ok := r.prog.TextLabels[sitePatchLabel(id)]
	if !ok {
		return 0, 0, fmt.Errorf("elim: site %d has no patch block", id)
	}
	return s, p, nil
}

// armSite and disarmSite patch live text from inside OnRangeHit, i.e. at a
// trap boundary mid-run. They rely on machine.PatchInstr being the one
// sanctioned text-mutation path: it invalidates the simulated I-cache line,
// the block index and every closure covering the site, so the re-inserted
// (or restored) check is picked up the very next time control reaches it.
func (r *Runtime) armSite(id int) {
	if _, armed := r.original[id]; armed {
		return
	}
	sIdx, pIdx, err := r.siteIndexes(id)
	if err != nil {
		return
	}
	orig, ok := r.m.InstrAt(sIdx)
	if !ok {
		return
	}
	if r.m.PatchInstr(sIdx, sparc.Branch(sparc.BA, pIdx)) != nil {
		return
	}
	r.original[id] = orig
}

func (r *Runtime) disarmSite(id int) {
	orig, armed := r.original[id]
	if !armed {
		return
	}
	sIdx, _, err := r.siteIndexes(id)
	if err != nil {
		return
	}
	if r.m.PatchInstr(sIdx, orig) != nil {
		return
	}
	delete(r.original, id)
}

// ArmSymbol re-inserts the checks for every known write to the named
// variable; the debugger calls this from PreMonitor before creating the
// variable's monitored region.
func (r *Runtime) ArmSymbol(name string) error {
	sites, ok := r.res.SymbolSites[name]
	if !ok {
		return fmt.Errorf("elim: no eliminated sites for symbol %q", name)
	}
	if r.armedSym[name] {
		return fmt.Errorf("elim: symbol %q already armed", name)
	}
	for _, id := range sites {
		r.armSite(id)
	}
	r.armedSym[name] = true
	return nil
}

// DisarmSymbol reverses ArmSymbol (PostMonitor).
func (r *Runtime) DisarmSymbol(name string) error {
	if !r.armedSym[name] {
		return fmt.Errorf("elim: symbol %q is not armed", name)
	}
	for _, id := range r.res.SymbolSites[name] {
		r.disarmSite(id)
	}
	delete(r.armedSym, name)
	return nil
}

// DisarmLoops restores all loop-eliminated sites (the MRS does this when
// monitored regions are deleted; the next pre-header execution re-arms as
// needed).
func (r *Runtime) DisarmLoops() {
	for _, sites := range r.res.LoopSites {
		for _, id := range sites {
			r.disarmSite(id)
		}
	}
}

// ArmedSites returns the number of currently armed sites.
func (r *Runtime) ArmedSites() int { return len(r.original) }

// PreMonitorSymbol arms a symbol's sites and then creates its monitored
// region via svc (the ordering of §4.2: patch, then create, so no hit is
// missed). Only global symbols are supported here since stack frames are
// dynamic.
func (r *Runtime) PreMonitorSymbol(svc *monitor.Service, name string) error {
	sym, ok := r.prog.LookupSym(name, "")
	if !ok || sym.Kind != asm.SymGlobal {
		return fmt.Errorf("elim: %q is not a global symbol", name)
	}
	if _, ok := r.res.SymbolSites[name]; ok {
		if err := r.ArmSymbol(name); err != nil {
			return err
		}
	}
	size := uint32(sym.Size)
	if size == 0 {
		size = 4
	}
	return svc.CreateRegion(sym.Addr, size)
}

// PostMonitorSymbol deletes the symbol's region and disarms its sites.
func (r *Runtime) PostMonitorSymbol(svc *monitor.Service, name string) error {
	sym, ok := r.prog.LookupSym(name, "")
	if !ok || sym.Kind != asm.SymGlobal {
		return fmt.Errorf("elim: %q is not a global symbol", name)
	}
	size := uint32(sym.Size)
	if size == 0 {
		size = 4
	}
	if err := svc.DeleteRegion(sym.Addr, size); err != nil {
		return err
	}
	if r.armedSym[name] {
		return r.DisarmSymbol(name)
	}
	return nil
}
