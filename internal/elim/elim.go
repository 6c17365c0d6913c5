// Package elim implements the write-check elimination of §4: symbol-table
// elimination of known writes, loop-invariant check motion, and monotonic
// write range checks, together with the run-time machinery that dynamically
// re-inserts eliminated checks (Kessler-style code patches) when a
// pre-header check or a PreMonitor operation demands it.
//
// The rewriter keeps a standard write check (the reserved-register inline
// bitmap lookup, the paper's best variant) on every store it cannot prove
// safe, and pays the optimization's costs faithfully: every definition of
// %fp executes a shadow-stack verification, and every indirect jump executes
// a target-legitimacy check, as §4.2 requires for the static control-flow
// assumptions to remain sound.
package elim

import (
	"fmt"
	"slices"
	"strings"

	"databreak/internal/asm"
	"databreak/internal/bounds"
	"databreak/internal/cfg"
	"databreak/internal/ir"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/sparc"
	"databreak/internal/symtab"
)

// Mode selects how much elimination runs.
type Mode int

const (
	// SymOnly applies only symbol-table elimination (the paper's "Sym"
	// column).
	SymOnly Mode = iota
	// Full adds loop-invariant check motion and monotonic range checks
	// (the paper's "Full" column).
	Full
)

func (m Mode) String() string {
	if m == SymOnly {
		return "Sym"
	}
	return "Full"
}

// SiteKind classifies an eliminated check site.
type SiteKind int

const (
	SiteSym SiteKind = iota
	SiteLI
	SiteRange
)

func (k SiteKind) String() string {
	switch k {
	case SiteSym:
		return "symbol"
	case SiteLI:
		return "loop-invariant"
	case SiteRange:
		return "range"
	}
	return "?"
}

// Site is one eliminated write check, re-insertable at run time.
type Site struct {
	ID     int
	Kind   SiteKind
	Symbol string // SiteSym: the variable whose PreMonitor arms this site
	Func   string
}

// Counter names (beyond patch.CounterWrites / patch.CounterChecks).
const (
	CounterElimSym   = "elim_sym"
	CounterElimLI    = "elim_li"
	CounterElimRange = "elim_range"
	CounterGenLI     = "gen_li"
	CounterGenRange  = "gen_range"
	CounterFpChecks  = "fp_checks"
	CounterJmpChecks = "jmp_checks"
)

// Options configures Apply.
type Options struct {
	Mode    Mode
	Monitor monitor.Config
	// CheckReads also instruments load instructions (read watchpoints);
	// loads run through the same elimination lattice as stores — symbol
	// match, loop-invariant motion, range checks — so redundant load checks
	// are eliminated by the analyses that eliminate store checks.
	CheckReads bool
}

// Result is the rewritten program plus the site registry. Units holds the
// rewritten program units, the patch area (when any site was eliminated)
// and the monitor library, in assembly order; the library unit is the one
// parse patch.SharedLibrary keeps for the configuration, shared with every
// other result, and like every unit it is read-only.
type Result struct {
	Units       []*asm.Unit
	Sites       []Site
	SymbolSites map[string][]int // symbol name -> site ids
	LoopSites   map[int32][]int  // pre-header check id -> site ids

	// Static counts for reporting.
	StaticSym, StaticLI, StaticRange, StaticChecked int
}

func siteLabel(id int) string      { return fmt.Sprintf("__site_%d", id) }
func siteRetLabel(id int) string   { return fmt.Sprintf("__site_%d_ret", id) }
func sitePatchLabel(id int) string { return fmt.Sprintf("__patch_%d", id) }

type rewriter struct {
	opts  Options
	res   *Result
	id    int
	patch []asm.Item // accumulated patch blocks
	// err records the first failure parsing generated source; reported as
	// an error from Apply rather than a panic, since the monitor geometry
	// shaping the generated code is user input.
	err error
}

// check resolves the standard check sequence (the reserved-register
// inline bitmap lookup) for an access the rewriter keeps checked or can
// re-insert, recording (not panicking on) failure; a failed check places
// no items.
func (rw *rewriter) check(in sparc.Instr) patch.Check {
	c, err := patch.NewCheck(patch.Options{
		Strategy: patch.BitmapInlineRegisters,
		Monitor:  rw.opts.Monitor,
	}, in, patch.WriteHeap)
	if err != nil && rw.err == nil {
		rw.err = fmt.Errorf("elim: generated check sequence does not parse: %w", err)
	}
	return c
}

// parseGen parses generated assembly, recording (not panicking on) failure.
func (rw *rewriter) parseGen(src string) *asm.Unit {
	u, err := asm.Parse("__gen", src)
	if err != nil {
		if rw.err == nil {
			rw.err = fmt.Errorf("elim: generated check sequence does not parse: %w", err)
		}
		return &asm.Unit{Name: "__gen"}
	}
	return u
}

// Apply analyzes and rewrites the program units, returning them with the
// patch area and monitor library appended.
func Apply(opts Options, units ...*asm.Unit) (*Result, error) {
	if opts.Monitor.SegWords == 0 {
		opts.Monitor = monitor.DefaultConfig
	}
	if err := opts.Monitor.Validate(); err != nil {
		return nil, err
	}
	rw := &rewriter{
		opts: opts,
		res: &Result{
			SymbolSites: make(map[string][]int),
			LoopSites:   make(map[int32][]int),
		},
	}
	for _, u := range units {
		nu, err := rw.rewriteUnit(u)
		if err != nil {
			return nil, err
		}
		rw.res.Units = append(rw.res.Units, nu)
	}
	if len(rw.patch) > 0 {
		pu := &asm.Unit{Name: "__mrs_patch_area", Items: make([]asm.Item, 0, 1+len(rw.patch))}
		pu.Items = append(pu.Items,
			asm.Item{Kind: asm.ItemInstr, Instr: sparc.Instr{Op: sparc.Unimp}, Section: asm.SectionText})
		pu.Items = append(pu.Items, rw.patch...)
		rw.res.Units = append(rw.res.Units, pu)
	}
	lib, err := patch.SharedLibrary(opts.Monitor)
	if err != nil {
		return nil, err
	}
	rw.res.Units = append(rw.res.Units, lib)
	if rw.err != nil {
		return nil, rw.err
	}
	return rw.res, nil
}

// decision describes what happens to one store item.
type decision struct {
	kind    SiteKind
	checked bool
	site    *Site
	// pre-header code for loop sites, inserted before the loop header.
	preheader  string
	headerItem int // item index of the loop header's first label
}

func (rw *rewriter) rewriteUnit(u *asm.Unit) (*asm.Unit, error) {
	var syms []asm.Sym
	for i := range u.Items {
		if it := &u.Items[i]; it.Kind == asm.ItemSymRec {
			syms = append(syms, it.Sym())
		}
	}
	fns, err := cfg.SplitFunctions(u)
	if err != nil {
		return nil, err
	}

	// Per item-index plans.
	storePlan := make(map[int]*decision)
	preheaders := make(map[int][]string) // insertion item idx -> sequences

	for _, f := range fns {
		info := ir.Build(f, syms)
		matches := symtab.MatchStores(info, syms)
		var loopInfos map[*cfg.Loop]*bounds.LoopInfo
		if rw.opts.Mode == Full {
			loopInfos = make(map[*cfg.Loop]*bounds.LoopInfo)
			for _, l := range f.Loops {
				loopInfos[l] = bounds.AnalyzeLoop(info, l)
			}
		}
		// Site IDs, patch-area blocks, and the SymbolSites registry are all
		// allocated in visit order, so walk the accesses in program order —
		// ranging over the AddrOf map directly would make the generated text
		// layout (and the artifact cache's size accounting) vary run to run.
		positions := make([]int, 0, len(info.AddrOf))
		for pos := range info.AddrOf {
			positions = append(positions, pos)
		}
		slices.Sort(positions)
		for _, pos := range positions {
			op := f.Instruction(pos).Op
			if !op.IsStore() && !(rw.opts.CheckReads && op.IsLoad()) {
				continue
			}
			item := f.InstrItem(pos)
			if m, ok := matches[pos]; ok {
				s := rw.newSite(SiteSym, f.Name)
				s.Symbol = m.Sym.Name
				rw.res.SymbolSites[m.Sym.Name] = append(rw.res.SymbolSites[m.Sym.Name], s.ID)
				storePlan[item] = &decision{kind: SiteSym, site: s}
				rw.res.StaticSym++
				continue
			}
			if rw.opts.Mode == Full {
				if d := rw.tryLoopElim(u, f, info, loopInfos, pos); d != nil {
					storePlan[item] = d
					preheaders[d.headerItem] = append(preheaders[d.headerItem], d.preheader)
					continue
				}
			}
			storePlan[item] = &decision{checked: true}
			rw.res.StaticChecked++
		}
	}

	// Emit the rewritten unit.
	nu := &asm.Unit{Name: u.Name + "+elim"}
	emitSrc := func(section asm.Section, src string) {
		gu := rw.parseGen(src)
		for _, it := range gu.Items {
			it.Section = section
			nu.Items = append(nu.Items, it)
		}
	}
	for i := range u.Items {
		it := u.Items[i]
		for _, ph := range preheaders[i] {
			emitSrc(it.Section, ph)
		}
		if it.Kind != asm.ItemInstr {
			nu.Items = append(nu.Items, it)
			continue
		}
		in := it.Instr
		switch {
		case in.Op.IsStore() || (rw.opts.CheckReads && in.Op.IsLoad()):
			d := storePlan[i]
			if d == nil {
				// An access outside any function (no func record): check it.
				d = &decision{checked: true}
			}
			if d.checked {
				if in.Op.IsLoad() {
					it.CountName = patch.CounterReads
				} else {
					it.CountName = patch.CounterWrites
				}
				c := rw.check(in)
				// A load that clobbers its own address register must be
				// checked before it executes (see patch.LoadClobbersAddress).
				if patch.LoadClobbersAddress(in) {
					nu.Items = c.AppendTo(nu.Items, rw.nextID(), it.Section)
					nu.Items = append(nu.Items, it)
				} else {
					nu.Items = append(nu.Items, it)
					nu.Items = c.AppendTo(nu.Items, rw.nextID(), it.Section)
				}
			} else {
				rw.emitSite(nu, it, d)
			}
		case in.Op == sparc.Save, in.Op == sparc.Restore:
			nu.Items = append(nu.Items, it)
			emitSrc(it.Section, rw.fpCheckText(in.Op == sparc.Save))
		case in.Op == sparc.Jmpl:
			emitSrc(it.Section, rw.jmpCheckText(in))
			nu.Items = append(nu.Items, it)
		default:
			nu.Items = append(nu.Items, it)
		}
	}
	// Results keep their units live, so store the items at exact size.
	nu.Items = append(make([]asm.Item, 0, len(nu.Items)), nu.Items...)
	return nu, nil
}

func (rw *rewriter) nextID() int {
	rw.id++
	return rw.id
}

func (rw *rewriter) newSite(kind SiteKind, fn string) *Site {
	s := Site{ID: rw.nextID(), Kind: kind, Func: fn}
	rw.res.Sites = append(rw.res.Sites, s)
	return &rw.res.Sites[len(rw.res.Sites)-1]
}

// emitSite emits an eliminated store: a labelled bare store plus a patch
// block holding the re-insertable checked version.
func (rw *rewriter) emitSite(nu *asm.Unit, it asm.Item, d *decision) {
	id := d.site.ID
	counter := CounterElimSym
	switch d.kind {
	case SiteLI:
		counter = CounterElimLI
	case SiteRange:
		counter = CounterElimRange
	}
	nu.Items = append(nu.Items, asm.Item{Kind: asm.ItemLabel, Label: siteLabel(id), Section: it.Section})
	it.CountName = counter
	nu.Items = append(nu.Items, it)
	nu.Items = append(nu.Items, asm.Item{Kind: asm.ItemLabel, Label: siteRetLabel(id), Section: it.Section})

	// Patch block: the displaced store, its check, and the return branch. A
	// clobbering load's check goes first (see patch.LoadClobbersAddress).
	rw.patch = append(rw.patch, asm.Item{Kind: asm.ItemLabel, Label: sitePatchLabel(id), Section: asm.SectionText})
	st := it
	st.CountName = counter
	c := rw.check(it.Instr)
	before := patch.LoadClobbersAddress(it.Instr)
	if !before {
		rw.patch = append(rw.patch, st)
	}
	rw.patch = c.AppendTo(rw.patch, rw.nextID(), asm.SectionText)
	if before {
		rw.patch = append(rw.patch, st)
	}
	rw.patch = append(rw.patch, asm.Item{
		Kind:      asm.ItemInstr,
		Instr:     sparc.Instr{Op: sparc.Br, Cond: sparc.BA},
		TargetSym: siteRetLabel(id),
		Section:   asm.SectionText,
	})
}

// tryLoopElim attempts loop-invariant or range elimination for the store at
// pos, trying its innermost enclosing loop first, then outer ones.
func (rw *rewriter) tryLoopElim(u *asm.Unit, f *cfg.Func, info *ir.Info,
	loopInfos map[*cfg.Loop]*bounds.LoopInfo, pos int) *decision {

	block := f.BlockOf[pos]
	for _, l := range f.Loops { // inner loops first
		if !l.Blocks[block] {
			continue
		}
		if !f.EntryEdgesFallthrough(l) {
			continue
		}
		li := loopInfos[l]
		addr := info.AddrOf[pos]

		op := f.Instruction(pos).Op
		double := op == sparc.Std || op == sparc.Ldd
		extra := int32(0)
		if double {
			extra = 4
		}

		// Loop-invariant target address: one standard check in the
		// pre-header (§4.3 loop invariant check motion).
		if li.Invariant(addr) {
			if e, ok := li.ExprFor(addr); ok && e.Depth() <= 6 {
				s := rw.newSite(SiteLI, f.Name)
				ph, err := rw.liPreheaderText(e, s.ID)
				if err == nil {
					rw.res.LoopSites[int32(s.ID)] = append(rw.res.LoopSites[int32(s.ID)], s.ID)
					rw.res.StaticLI++
					return &decision{
						kind: SiteLI, site: s,
						preheader:  ph,
						headerItem: rw.headerInsertItem(u, f, l),
					}
				}
			}
		}

		// Monotonic target address: a range check in the pre-header.
		b := li.BoundsOf(addr, block)
		if b.L.Kind != bounds.Bot && b.U.Kind != bounds.Bot &&
			b.L.Expr.Depth() <= 6 && b.U.Expr.Depth() <= 6 {
			s := rw.newSite(SiteRange, f.Name)
			ph, err := rw.rangePreheaderText(b.L.Expr, b.U.Expr, extra, s.ID)
			if err == nil {
				rw.res.LoopSites[int32(s.ID)] = append(rw.res.LoopSites[int32(s.ID)], s.ID)
				rw.res.StaticRange++
				return &decision{
					kind: SiteRange, site: s,
					preheader:  ph,
					headerItem: rw.headerInsertItem(u, f, l),
				}
			}
		}
	}
	return nil
}

// headerInsertItem returns the item index before which pre-header code must
// be inserted: the first label of the loop header's label group, so that
// back-edge branches (which target the label) skip the pre-header while
// fallthrough entry executes it.
func (rw *rewriter) headerInsertItem(u *asm.Unit, f *cfg.Func, l *cfg.Loop) int {
	firstInstr := f.InstrItem(f.Blocks[l.Header].Start)
	i := firstInstr
	for i > 0 && u.Items[i-1].Kind == asm.ItemLabel {
		i--
	}
	return i
}

// liPreheaderText emits the loop-invariant pre-header check: compute the
// address, call __mrs_licheck_w with the site id in %g2.
func (rw *rewriter) liPreheaderText(e *bounds.Expr, siteID int) (string, error) {
	var b strings.Builder
	skip := fmt.Sprintf("__ph%d_skip", siteID)
	fmt.Fprintf(&b, "\ttst %%g6\n\tbne %s\n", skip)
	if err := genExpr(&b, e, "%g5", []string{"%g3", "%g2"}); err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "\tset %d, %%g2\n", siteID)
	fmt.Fprintf(&b, "\t.count %q\n", CounterGenLI)
	fmt.Fprintf(&b, "\tcall __mrs_licheck_w\n")
	fmt.Fprintf(&b, "%s:\n", skip)
	return b.String(), nil
}

// rangePreheaderText emits the monotonic range check: low bound in %g5,
// high bound (inclusive, extended by extra bytes for double-word stores) in
// %g1, site id in %g2.
func (rw *rewriter) rangePreheaderText(lo, hi *bounds.Expr, extra int32, siteID int) (string, error) {
	var b strings.Builder
	skip := fmt.Sprintf("__ph%d_skip", siteID)
	fmt.Fprintf(&b, "\ttst %%g6\n\tbne %s\n", skip)
	if err := genExpr(&b, lo, "%g5", []string{"%g3", "%g2"}); err != nil {
		return "", err
	}
	if err := genExpr(&b, hi, "%g1", []string{"%g3", "%g2"}); err != nil {
		return "", err
	}
	if extra != 0 {
		fmt.Fprintf(&b, "\tadd %%g1, %d, %%g1\n", extra)
	}
	// The store covers word(s) starting at the bound: extend to the last
	// byte touched.
	fmt.Fprintf(&b, "\tadd %%g1, 3, %%g1\n")
	fmt.Fprintf(&b, "\tset %d, %%g2\n", siteID)
	fmt.Fprintf(&b, "\t.count %q\n", CounterGenRange)
	fmt.Fprintf(&b, "\tcall __mrs_range\n")
	fmt.Fprintf(&b, "%s:\n", skip)
	return b.String(), nil
}

// genExpr emits code computing e into dest, using scratch registers for
// nested non-constant operands. It fails (conservatively) if the expression
// needs more registers than available.
func genExpr(b *strings.Builder, e *bounds.Expr, dest string, scratch []string) error {
	switch e.Kind {
	case bounds.EConst:
		fmt.Fprintf(b, "\tset %d, %s\n", e.Const, dest)
	case bounds.ESym:
		fmt.Fprintf(b, "\tset %s, %s\n", e.Sym, dest)
		if e.Const != 0 {
			if e.Const >= -4096 && e.Const <= 4095 {
				fmt.Fprintf(b, "\tadd %s, %d, %s\n", dest, e.Const, dest)
			} else if len(scratch) == 0 {
				return fmt.Errorf("elim: out of scratch registers")
			} else {
				fmt.Fprintf(b, "\tset %d, %s\n", e.Const, scratch[0])
				fmt.Fprintf(b, "\tadd %s, %s, %s\n", dest, scratch[0], dest)
			}
		}
	case bounds.EFP:
		fmt.Fprintf(b, "\tmov %%fp, %s\n", dest)
	case bounds.ESlot:
		if e.Slot.IsFP {
			if e.Slot.FpOff >= -4096 && e.Slot.FpOff <= 4095 {
				fmt.Fprintf(b, "\tld [%%fp%+d], %s\n", e.Slot.FpOff, dest)
			} else if len(scratch) == 0 {
				return fmt.Errorf("elim: out of scratch registers")
			} else {
				fmt.Fprintf(b, "\tset %d, %s\n", e.Slot.FpOff, scratch[0])
				fmt.Fprintf(b, "\tld [%%fp+%s], %s\n", scratch[0], dest)
			}
		} else {
			fmt.Fprintf(b, "\tset %s, %s\n", e.Slot.Label, dest)
			fmt.Fprintf(b, "\tld [%s], %s\n", dest, dest)
		}
	case bounds.EOp:
		opName := map[sparc.Op]string{
			sparc.Add: "add", sparc.Sub: "sub", sparc.Sll: "sll", sparc.SMul: "smul",
		}[e.Op]
		if opName == "" {
			return fmt.Errorf("elim: unsupported bound op %v", e.Op)
		}
		if err := genExpr(b, e.Args[0], dest, scratch); err != nil {
			return err
		}
		rhs := e.Args[1]
		if rhs.Kind == bounds.EConst && rhs.Const >= -4096 && rhs.Const <= 4095 &&
			(e.Op != sparc.Sll || (rhs.Const >= 0 && rhs.Const <= 31)) {
			fmt.Fprintf(b, "\t%s %s, %d, %s\n", opName, dest, rhs.Const, dest)
			return nil
		}
		if len(scratch) == 0 {
			return fmt.Errorf("elim: out of scratch registers")
		}
		if err := genExpr(b, rhs, scratch[0], scratch[1:]); err != nil {
			return err
		}
		fmt.Fprintf(b, "\t%s %s, %s, %s\n", opName, dest, scratch[0], dest)
	}
	return nil
}

// fpCheckText emits the %fp-definition check of §4.2, realized as a shadow
// stack of frame pointers: each save pushes the new %fp; each restore pops
// and verifies the stack pointer it restored. Cost: two sets, two memory
// accesses, and a compare-and-branch — "as expensive as checking two or
// three write instructions", as the paper prices it.
func (rw *rewriter) fpCheckText(isSave bool) string {
	id := rw.nextID()
	var b strings.Builder
	fmt.Fprintf(&b, "\t.count %q\n", CounterFpChecks)
	fmt.Fprintf(&b, "\tset %d, %%l6\n", monitor.FpScratch)
	fmt.Fprintf(&b, "\tld [%%l6], %%l7\n")
	if isSave {
		fmt.Fprintf(&b, "\tst %%fp, [%%l7]\n")
		fmt.Fprintf(&b, "\tadd %%l7, 4, %%l7\n")
		fmt.Fprintf(&b, "\tst %%l7, [%%l6]\n")
	} else {
		fmt.Fprintf(&b, "\tsub %%l7, 4, %%l7\n")
		fmt.Fprintf(&b, "\tst %%l7, [%%l6]\n")
		fmt.Fprintf(&b, "\tld [%%l7], %%l6\n")
		fmt.Fprintf(&b, "\tcmp %%l6, %%sp\n")
		fmt.Fprintf(&b, "\tbe __fp%d_ok\n", id)
		fmt.Fprintf(&b, "\tmov 1, %%o0\n")
		fmt.Fprintf(&b, "\tta 9\n")
		fmt.Fprintf(&b, "__fp%d_ok:\n", id)
	}
	return b.String()
}

// jmpCheckText emits the indirect-jump legitimacy check of §4.2: the target
// must be word aligned and inside the text segment envelope.
func (rw *rewriter) jmpCheckText(in sparc.Instr) string {
	id := rw.nextID()
	var b strings.Builder
	fmt.Fprintf(&b, "\t.count %q\n", CounterJmpChecks)
	if in.UseImm {
		fmt.Fprintf(&b, "\tadd %s, %d, %%l7\n", in.Rs1, in.Imm)
	} else {
		fmt.Fprintf(&b, "\tadd %s, %s, %%l7\n", in.Rs1, in.Rs2)
	}
	fmt.Fprintf(&b, "\tbtst 3, %%l7\n")
	fmt.Fprintf(&b, "\tbne __jc%d_bad\n", id)
	fmt.Fprintf(&b, "\tset %d, %%l6\n", 0x0001_0000) // machine.TextBase
	fmt.Fprintf(&b, "\tcmp %%l7, %%l6\n")
	fmt.Fprintf(&b, "\tbgeu __jc%d_ok\n", id)
	fmt.Fprintf(&b, "__jc%d_bad:\n", id)
	fmt.Fprintf(&b, "\tmov 2, %%o0\n")
	fmt.Fprintf(&b, "\tta 9\n")
	fmt.Fprintf(&b, "__jc%d_ok:\n", id)
	return b.String()
}
