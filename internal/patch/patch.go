// Package patch implements the write-check insertion half of the paper's
// analysis tool: it rewrites assembled units, appending a check sequence
// after every write instruction (§2: checks go after the write so that a
// wild jump directly to a store is still detected).
//
// The five check implementations of Table 1 are provided, plus a
// nop-insertion strategy used for the cache-alignment regression of §3.3.1:
//
//	Bitmap                  procedure-call segmented bitmap lookup
//	BitmapInline            the same lookup expanded inline (pushes a window)
//	BitmapInlineRegisters   inline lookup in reserved global registers
//	Cache                   4-instruction inline segment-cache check,
//	                        procedure call on a cache miss
//	CacheInline             segment-cache check with the miss path inline
//	Nops                    N nops before each write (alignment probe)
//
// Event counters (free of cycle cost) are attached so the harness can
// recover dynamic write and check counts.
//
// Patching here is static: it rewrites assembly units before they are
// assembled and loaded, so it needs no coordination with the machine's
// block-dispatch index. Anything that rewrites text AFTER machine.LoadText
// (dynamic check insertion/deletion, elim.Runtime) must instead go through
// machine.PatchInstr, which keeps the simulated I-cache and the block index
// coherent with the new text.
package patch

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"databreak/internal/asm"
	"databreak/internal/monitor"
	"databreak/internal/sparc"
)

// Strategy selects a write-check implementation.
type Strategy int

const (
	// None performs no patching (baseline timing runs).
	None Strategy = iota
	// Bitmap checks every write via a call to the monitor library.
	Bitmap
	// BitmapInline expands the bitmap lookup at every write.
	BitmapInline
	// BitmapInlineRegisters expands the lookup using reserved registers
	// (%g1-%g4), avoiding the register-window push and the table-base
	// materialization. This is the paper's recommended implementation.
	BitmapInlineRegisters
	// Cache checks a per-write-type segment cache inline and calls the
	// monitor library on a cache miss.
	Cache
	// CacheInline expands the cache-miss path inline as well.
	CacheInline
	// Nops inserts Options.Nops nop instructions before each write.
	Nops
	// HashCall checks every write via the pilot study's hash-table lookup
	// (the 209%-642% baseline the segmented bitmap replaced).
	HashCall
)

var strategyNames = map[Strategy]string{
	None: "None", Bitmap: "Bitmap", BitmapInline: "BitmapInline",
	BitmapInlineRegisters: "BitmapInlineRegisters", Cache: "Cache",
	CacheInline: "CacheInline", Nops: "Nops", HashCall: "HashCall",
}

func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// WriteType classifies writes for segment caching (§3.1). BSSVar is the
// Fortran computed-base idiom; it shares the BSS cache register but is
// counted separately.
type WriteType int

const (
	WriteStack WriteType = iota
	WriteBSS
	WriteHeap
	WriteBSSVar
)

func (t WriteType) String() string {
	switch t {
	case WriteStack:
		return "stack"
	case WriteBSS:
		return "bss"
	case WriteHeap:
		return "heap"
	case WriteBSSVar:
		return "bssvar"
	}
	return "?"
}

// cacheReg returns the reserved global holding this type's segment cache.
func (t WriteType) cacheReg() string {
	switch t {
	case WriteStack:
		return "%g1"
	case WriteHeap:
		return "%g3"
	default: // BSS and BSSVar share %g2
		return "%g2"
	}
}

// missRoutine returns the library slow path for this type, access size, and
// access kind.
func (t WriteType) missRoutine(double, read bool) string {
	kind := "bss"
	switch t {
	case WriteStack:
		kind = "stack"
	case WriteHeap:
		kind = "heap"
	}
	name := "__mrs_miss_" + kind + "_"
	if read {
		name += "rd_"
	}
	if double {
		return name + "d"
	}
	return name + "w"
}

// Counter names attached to patched code.
const (
	CounterWrites = "writes" // dynamic count of write instructions
	CounterChecks = "checks" // dynamic count of executed check preludes
	CounterReads  = "reads"  // dynamic count of load instructions (CheckReads)
)

// CacheTotalCounter and CacheMissCounter name the per-write-type segment
// cache statistics used for Figure 3.
func CacheTotalCounter(t WriteType) string { return "cache_total_" + t.String() }
func CacheMissCounter(t WriteType) string  { return "cache_miss_" + t.String() }

// Options configures Apply.
type Options struct {
	Strategy Strategy
	Monitor  monitor.Config
	// Nops is the number of nops per write for the Nops strategy.
	Nops int
	// SkipDisabledBranch omits the disabled-flag fast path (used by unit
	// tests that want the check body to run unconditionally).
	SkipDisabledBranch bool
	// CheckReads also instruments load instructions (the paper's §5
	// extension for access anomaly detection: "the dynamic count of read
	// instructions is typically two to three times that of write
	// instructions").
	CheckReads bool
}

// Result is the outcome of patching.
type Result struct {
	// Units holds the rewritten program units followed by the monitor
	// library; assemble them in this order. The library unit is the one
	// parse SharedLibrary keeps for the configuration, shared with every
	// other result: like every unit, it is read-only.
	Units []*asm.Unit
	// StaticWrites is the number of write instructions patched.
	StaticWrites int
	// StaticReads is the number of load instructions patched (CheckReads).
	StaticReads int
	// TypeCounts tallies static writes per write type.
	TypeCounts map[WriteType]int
}

// reservedRegs are the registers the MRS claims; program code must not use
// them (the mini-C compiler honors this).
var reservedRegs = map[sparc.Reg]bool{
	sparc.G1: true, sparc.G2: true, sparc.G3: true, sparc.G4: true,
	sparc.G5: true, sparc.G6: true, sparc.G7: true,
	sparc.L6: true, sparc.L7: true,
}

type patcher struct {
	opts   Options
	nextID int
	out    []asm.Item
	res    *Result
}

// Apply rewrites the given program units with the selected strategy and
// returns them together with a matching monitor library unit.
func Apply(opts Options, units ...*asm.Unit) (*Result, error) {
	if opts.Monitor.SegWords == 0 {
		opts.Monitor = monitor.DefaultConfig
	}
	if err := opts.Monitor.Validate(); err != nil {
		return nil, err
	}
	// Segment caching requires the monitored flag in table entries.
	if opts.Strategy == Cache || opts.Strategy == CacheInline {
		opts.Monitor.Flags = true
	}
	p := &patcher{
		opts: opts,
		res:  &Result{TypeCounts: make(map[WriteType]int)},
	}
	for _, u := range units {
		nu, err := p.patchUnit(u)
		if err != nil {
			return nil, err
		}
		p.res.Units = append(p.res.Units, nu)
	}
	if p.checks() {
		lib, err := SharedLibrary(opts.Monitor)
		if err != nil {
			return nil, err
		}
		p.res.Units = append(p.res.Units, lib)
	}
	return p.res, nil
}

// checks reports whether the strategy places check sequences (None and
// Nops only count and pad writes).
func (p *patcher) checks() bool {
	return p.opts.Strategy != None && p.opts.Strategy != Nops
}

// checkedRead reports whether it is a load the options instrument.
func (p *patcher) checkedRead(it *asm.Item) bool {
	return it.Kind == asm.ItemInstr && it.Instr.Op.IsLoad() && p.opts.CheckReads && p.checks()
}

func isWrite(it *asm.Item) bool {
	return it.Kind == asm.ItemInstr && it.Instr.Op.IsStore()
}

func (p *patcher) patchUnit(u *asm.Unit) (*asm.Unit, error) {
	// Resolve every instrumented access's check sequence first, so the
	// rewritten unit is allocated once, at its exact size: the original
	// items plus each access's nops or check.
	n := len(u.Items)
	var seqs []Check
	for i := range u.Items {
		it := &u.Items[i]
		if !p.checkedRead(it) && !isWrite(it) {
			continue
		}
		if err := checkReserved(it); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", u.Name, it.Line, err)
		}
		if p.opts.Strategy == Nops {
			n += p.opts.Nops
		}
		if !p.checks() {
			continue
		}
		c, err := NewCheck(p.opts, it.Instr, classifyWrite(u.Items, i))
		if err != nil {
			return nil, fmt.Errorf("patch: generated check sequence does not parse: %w", err)
		}
		seqs = append(seqs, c)
		n += c.Len()
	}
	p.out = make([]asm.Item, 0, n)
	for i := range u.Items {
		it := u.Items[i]
		if p.checkedRead(&it) {
			p.res.StaticReads++
			it.CountName = CounterReads
			if LoadClobbersAddress(it.Instr) {
				p.emitCheck(seqs[0], it.Section)
				p.emit(it)
			} else {
				p.emit(it)
				p.emitCheck(seqs[0], it.Section)
			}
			seqs = seqs[1:]
			continue
		}
		if !isWrite(&it) {
			p.emit(it)
			continue
		}
		p.res.StaticWrites++
		p.res.TypeCounts[classifyWrite(u.Items, i)]++

		if p.opts.Strategy == Nops {
			for k := 0; k < p.opts.Nops; k++ {
				p.emit(instrItem(sparc.MakeNop(), it.Section))
			}
		}
		// Count the write itself (cost free).
		it.CountName = CounterWrites
		p.emit(it)
		if p.checks() {
			p.emitCheck(seqs[0], it.Section)
			seqs = seqs[1:]
		}
	}
	return &asm.Unit{Name: u.Name + "+mrs", Items: p.out}, nil
}

func (p *patcher) emit(it asm.Item) { p.out = append(p.out, it) }

func instrItem(in sparc.Instr, section asm.Section) asm.Item {
	return asm.Item{Kind: asm.ItemInstr, Instr: in, Section: section}
}

func checkReserved(it *asm.Item) error {
	regs := []sparc.Reg{it.Instr.Rd, it.Instr.Rs1}
	if !it.Instr.UseImm {
		regs = append(regs, it.Instr.Rs2)
	}
	for _, r := range regs {
		if reservedRegs[r] {
			return fmt.Errorf("write instruction uses MRS-reserved register %s", r)
		}
	}
	return nil
}

// classifyWrite assigns a write type by inspecting the store's base address
// expression, scanning backwards within the basic block for the most recent
// definition of the base register (§3.1's write types).
func classifyWrite(items []asm.Item, idx int) WriteType {
	st := items[idx].Instr
	if st.Rs1 == sparc.FP || st.Rs1 == sparc.SP {
		return WriteStack
	}
	// Walk backwards to the defining instruction of the base register,
	// stopping at labels and control transfers (block boundaries).
	base := st.Rs1
	for j := idx - 1; j >= 0 && idx-j < 32; j-- {
		it := &items[j]
		if it.Kind == asm.ItemLabel {
			break
		}
		if it.Kind != asm.ItemInstr {
			continue
		}
		in := it.Instr
		if in.Op == sparc.Br || in.Op == sparc.Call || in.Op == sparc.Jmpl || in.Op == sparc.Ta {
			// Control transfers end the block; traps may redefine %o
			// registers (the allocator returns through %o0).
			break
		}
		if in.Rd != base || in.Op == sparc.St || in.Op == sparc.Std {
			continue
		}
		switch in.Op {
		case sparc.Sethi:
			return WriteBSS // set of a data address (first half)
		case sparc.Or:
			if in.Rs1 == base && in.UseImm && it.ImmSym != "" {
				return WriteBSS // second half of a set
			}
			if in.Rs1 == sparc.G0 && in.UseImm {
				return WriteBSS // small constant address
			}
			return WriteHeap
		case sparc.Ld, sparc.Ldd:
			return WriteHeap // pointer loaded from memory
		case sparc.Add, sparc.Sub:
			// Computed from another register: the Fortran BSS-base idiom if
			// that register was itself set to a data address.
			if !in.UseImm || in.Rs1 != base {
				return bssVarOrHeap(items, j, in.Rs1)
			}
			// add base, imm, base: keep tracing the same register.
			continue
		default:
			return WriteHeap
		}
	}
	return WriteHeap
}

// bssVarOrHeap resolves "st via reg computed from base+offset" to BSSVar
// when base traces to a data-address set, Heap otherwise.
func bssVarOrHeap(items []asm.Item, idx int, base sparc.Reg) WriteType {
	for j := idx - 1; j >= 0 && idx-j < 32; j-- {
		it := &items[j]
		if it.Kind == asm.ItemLabel {
			break
		}
		if it.Kind != asm.ItemInstr {
			continue
		}
		in := it.Instr
		if in.Op == sparc.Br || in.Op == sparc.Call || in.Op == sparc.Jmpl {
			break
		}
		if in.Rd != base || in.Op.IsStore() {
			continue
		}
		switch in.Op {
		case sparc.Sethi:
			return WriteBSSVar
		case sparc.Or:
			if in.Rs1 == base && in.UseImm && it.ImmSym != "" {
				return WriteBSSVar
			}
			return WriteHeap
		default:
			return WriteHeap
		}
	}
	return WriteHeap
}

// emitCheck places an access's check sequence under the next check id.
func (p *patcher) emitCheck(c Check, section asm.Section) {
	p.out = c.AppendTo(p.out, p.nextID, section)
	p.nextID++
}

// LoadClobbersAddress reports whether the load's destination register
// overwrites one of its own address registers (e.g. "ld [%o1], %o1"). The
// check sequence recomputes the effective address from the instruction's
// operands, so for such loads it must run before the load: placed after,
// it would check a garbage address — missing monitored reads and trapping
// on unrelated addresses. Stores never have this problem (they read their
// operands and write only memory), which is why the paper can place every
// write check after the write.
func LoadClobbersAddress(in sparc.Instr) bool {
	if !in.Op.IsLoad() {
		return false
	}
	rds := [2]sparc.Reg{in.Rd, in.Rd}
	if in.Op == sparc.Ldd {
		rds[1] = in.Rd + 1
	}
	for _, rd := range rds {
		if rd == sparc.G0 {
			continue
		}
		if rd == in.Rs1 || (!in.UseImm && rd == in.Rs2) {
			return true
		}
	}
	return false
}

// CheckText renders the check sequence for store st under the given options
// as assembly text. id must be unique per emitted check (it names internal
// labels). The elimination rewriter (internal/elim) reuses this for the
// checks it keeps and for dynamically re-inserted patch-block checks.
func CheckText(opts Options, st sparc.Instr, wt WriteType, id int) string {
	segShift := opts.Monitor.SegShift()
	wmask := opts.Monitor.SegWords - 1
	double := st.Op == sparc.Std || st.Op == sparc.Ldd
	read := st.Op.IsLoad()

	var b strings.Builder
	pr := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	skip := fmt.Sprintf("__ck%d_skip", id)

	// Disabled-flag fast path (§2): branch around the check body.
	if !opts.SkipDisabledBranch {
		pr("\t.count %q", CounterChecks)
		pr("\ttst %%g6")
		pr("\tbne %s", skip)
	}
	// Target address into %g5.
	if st.UseImm {
		pr("\tadd %s, %d, %%g5", st.Rs1, st.Imm)
	} else {
		pr("\tadd %s, %s, %%g5", st.Rs1, st.Rs2)
	}

	mask, trap := 1, 6
	if double {
		mask, trap = 3, 7
	}
	if read {
		trap += 4 // TrapMonRead4 / TrapMonRead8
	}

	routine := func(base string) string {
		name := base
		if read {
			name += "rd"
		}
		if double {
			return name + "_d"
		}
		return name + "_w"
	}
	switch opts.Strategy {
	case Bitmap:
		pr("\tcall %s", routine("__mrs_check"))

	case HashCall:
		// The hash routines report write hits only; read checking routes
		// through the bitmap routines (reads are not part of the pilot
		// study's comparison).
		if read {
			pr("\tcall %s", routine("__mrs_check"))
		} else if double {
			pr("\tcall __mrs_hash_d")
		} else {
			pr("\tcall __mrs_hash_w")
		}

	case BitmapInline:
		// Full lookup inline; needs temporaries, so push a window.
		pr("\tsave %%sp, -96, %%sp")
		pr("\tsrl %%g5, %d, %%l0", segShift)
		pr("\tsll %%l0, 2, %%l0")
		pr("\tset %d, %%l1", monitor.SegTableBase)
		pr("\tadd %%l1, %%l0, %%l0")
		pr("\tld [%%l0], %%l1")
		if opts.Monitor.Flags {
			pr("\tandn %%l1, 1, %%l1")
		}
		pr("\tsrl %%g5, 2, %%l2")
		pr("\tand %%l2, %d, %%l2", wmask)
		pr("\tsrl %%l2, 5, %%l3")
		pr("\tsll %%l3, 2, %%l3")
		pr("\tadd %%l1, %%l3, %%l3")
		pr("\tld [%%l3], %%l3")
		pr("\tsrl %%l3, %%l2, %%l3")
		pr("\tandcc %%l3, %d, %%g0", mask)
		pr("\tbe __ck%d_out", id)
		pr("\tta %d", trap)
		pr("__ck%d_out:", id)
		pr("\trestore")

	case BitmapInlineRegisters:
		// 12 register instructions and 2 loads, exactly as §3.3.3 costs it.
		pr("\tsrl %%g5, %d, %%g1", segShift)
		pr("\tsll %%g1, 2, %%g1")
		pr("\tadd %%g4, %%g1, %%g1")
		pr("\tld [%%g1], %%g1")
		if opts.Monitor.Flags {
			pr("\tandn %%g1, 1, %%g1")
		}
		pr("\tsrl %%g5, 2, %%g2")
		pr("\tand %%g2, %d, %%g2", wmask)
		pr("\tsrl %%g2, 5, %%g3")
		pr("\tsll %%g3, 2, %%g3")
		pr("\tadd %%g1, %%g3, %%g3")
		pr("\tld [%%g3], %%g3")
		pr("\tsrl %%g3, %%g2, %%g3")
		pr("\tandcc %%g3, %d, %%g0", mask)
		pr("\tbe %s", skip)
		pr("\tta %d", trap)

	case Cache:
		// The four always-inlined cache-check instructions; slow path by
		// call (§3.2).
		pr("\t.count %q", CacheTotalCounter(wt))
		pr("\tsrl %%g5, %d, %%l6", segShift)
		pr("\tcmp %%l6, %s", wt.cacheReg())
		pr("\tbe %s", skip)
		pr("\t.count %q", CacheMissCounter(wt))
		pr("\tcall %s", wt.missRoutine(double, read))

	case CacheInline:
		pr("\t.count %q", CacheTotalCounter(wt))
		pr("\tsrl %%g5, %d, %%l6", segShift)
		pr("\tcmp %%l6, %s", wt.cacheReg())
		pr("\tbe %s", skip)
		pr("\t.count %q", CacheMissCounter(wt))
		pr("\tsave %%sp, -96, %%sp")
		pr("\tsrl %%g5, %d, %%l0", segShift)
		pr("\tsll %%l0, 2, %%l1")
		pr("\tset %d, %%l2", monitor.SegTableBase)
		pr("\tadd %%l2, %%l1, %%l1")
		pr("\tld [%%l1], %%l2")
		pr("\tandcc %%l2, 1, %%g0")
		pr("\tbne __ck%d_full", id)
		pr("\tmov %%l0, %s", wt.cacheReg())
		pr("\tba __ck%d_out", id)
		pr("__ck%d_full:", id)
		pr("\tandn %%l2, 1, %%l2")
		pr("\tsrl %%g5, 2, %%l3")
		pr("\tand %%l3, %d, %%l3", wmask)
		pr("\tsrl %%l3, 5, %%l4")
		pr("\tsll %%l4, 2, %%l4")
		pr("\tadd %%l2, %%l4, %%l4")
		pr("\tld [%%l4], %%l4")
		pr("\tsrl %%l4, %%l3, %%l4")
		pr("\tandcc %%l4, %d, %%g0", mask)
		pr("\tbe __ck%d_out", id)
		pr("\tta %d", trap)
		pr("__ck%d_out:", id)
		pr("\trestore")
	}

	pr("%s:", skip)
	return b.String()
}

// libraries memoizes the parsed monitor library per configuration
// (monitor.Config -> *asm.Unit). Generating and parsing the library is a
// pure function of the configuration, so sharing the parse across calls
// and goroutines changes no result; only valid configurations are stored,
// which bounds the map.
var libraries sync.Map

// SharedLibrary returns the monitor library for cfg, generated and parsed
// once per configuration and stored at exact size. Every call, and every
// Apply result for cfg, returns the same unit: it is read-only. A caller
// that rewrites the library uses Library.
func SharedLibrary(cfg monitor.Config) (*asm.Unit, error) {
	if v, ok := libraries.Load(cfg); ok {
		return v.(*asm.Unit), nil
	}
	src, err := monitor.LibrarySource(cfg)
	if err != nil {
		return nil, err
	}
	u, err := asm.Parse("__mrslib", src)
	if err != nil {
		return nil, fmt.Errorf("patch: generated monitor library does not parse: %w", err)
	}
	v, _ := libraries.LoadOrStore(cfg, u.Clone())
	return v.(*asm.Unit), nil
}

// Library returns the monitor library for cfg as a parsed unit the caller
// may rewrite: a clone of the SharedLibrary unit.
func Library(cfg monitor.Config) (*asm.Unit, error) {
	u, err := SharedLibrary(cfg)
	if err != nil {
		return nil, err
	}
	return u.Clone(), nil
}

// Check is one access's check sequence, parsed and ready to place: the
// items asm.Parse(CheckText(opts, st, wt, id)) yields, for any id.
type Check struct {
	shape *checkShape
	imm   int32 // the access's address immediate (st.Imm)
}

// checkShape is a check sequence parsed once for every access that renders
// the same text up to its address immediate and label id: CheckText's
// items rendered with id 0.
type checkShape struct {
	items  []asm.Item
	immAt  int        // the address add, taking the access's immediate; -1 if none
	labels []labelRef // the items naming a __ck<id>_ label
}

// labelRef is a shape item naming a per-access label, either the label
// itself or a branch to it, by the name's suffix after the id.
type labelRef struct {
	at     int
	suffix string
}

// checkKey is everything CheckText reads except the address immediate and
// the label id. Fields CheckText ignores for the key's strategy or operand
// form are left zero, so that accesses rendering the same text share one
// shape.
type checkKey struct {
	strategy     Strategy
	skipDisabled bool
	flags        bool
	segWords     uint32
	double, read bool
	useImm       bool
	rs1, rs2     sparc.Reg
	wt           WriteType
}

// checkShapes memoizes parsed shapes (checkKey -> *checkShape). A shape is
// a pure function of its key, so sharing it across calls and goroutines
// changes no result; keys range over valid monitor configurations,
// strategies, access forms and registers, which bounds the map.
var checkShapes sync.Map

// NewCheck resolves the check sequence CheckText renders for access st.
// Each distinct shape is rendered and parsed once per process; every use
// then fills in its own address immediate and labels. An invalid
// opts.Monitor is an error; any other error is the one asm.Parse reports
// for the access's check text.
func NewCheck(opts Options, st sparc.Instr, wt WriteType) (Check, error) {
	if err := opts.Monitor.Validate(); err != nil {
		return Check{}, err
	}
	k := checkKey{
		strategy:     opts.Strategy,
		skipDisabled: opts.SkipDisabledBranch,
		flags:        opts.Monitor.Flags,
		segWords:     opts.Monitor.SegWords,
		double:       st.Op == sparc.Std || st.Op == sparc.Ldd,
		read:         st.Op.IsLoad(),
		useImm:       st.UseImm,
		rs1:          st.Rs1,
	}
	if !st.UseImm {
		k.rs2 = st.Rs2
	}
	if opts.Strategy == Cache || opts.Strategy == CacheInline {
		k.wt = wt
	}
	fits := !st.UseImm || (st.Imm >= -4096 && st.Imm <= 4095)
	if v, ok := checkShapes.Load(k); ok && fits {
		return Check{shape: v.(*checkShape), imm: st.Imm}, nil
	}
	// Parse the access's own text. An immediate the address add cannot
	// encode fails here, so every stored shape takes any immediate that
	// fits.
	u, err := asm.Parse("__gen", CheckText(opts, st, wt, 0))
	if err != nil {
		return Check{}, err
	}
	// Shapes live as long as the process, so store the items at exact size.
	sh := &checkShape{items: u.Clone().Items, immAt: -1}
	for i := range sh.items {
		it := &sh.items[i]
		if st.UseImm && sh.immAt < 0 && it.Kind == asm.ItemInstr &&
			it.Instr.Op == sparc.Add && it.Instr.Rd == sparc.G5 {
			sh.immAt = i
		}
		for _, name := range []string{it.Label, it.TargetSym} {
			if suffix, ok := strings.CutPrefix(name, "__ck0_"); ok {
				sh.labels = append(sh.labels, labelRef{at: i, suffix: suffix})
			}
		}
	}
	v, _ := checkShapes.LoadOrStore(k, sh)
	return Check{shape: v.(*checkShape), imm: st.Imm}, nil
}

// Len is the number of items the check sequence places; the zero Check
// places none.
func (c Check) Len() int {
	if c.shape == nil {
		return 0
	}
	return len(c.shape.items)
}

// AppendTo appends the check sequence to dst under check id, every item in
// the given section.
func (c Check) AppendTo(dst []asm.Item, id int, section asm.Section) []asm.Item {
	if c.shape == nil {
		return dst
	}
	n := len(dst)
	dst = append(dst, c.shape.items...)
	seq := dst[n:]
	for i := range seq {
		seq[i].Section = section
	}
	if c.shape.immAt >= 0 {
		seq[c.shape.immAt].Instr.Imm = c.imm
	}
	prefix := "__ck" + strconv.Itoa(id) + "_"
	for _, l := range c.shape.labels {
		it := &seq[l.at]
		if it.Kind == asm.ItemLabel {
			it.Label = prefix + l.suffix
		} else {
			it.TargetSym = prefix + l.suffix
		}
	}
	return dst
}
