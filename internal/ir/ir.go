// Package ir converts assembly functions into an SSA value graph for the
// write-check elimination analysis of §4.
//
// Following the paper, the converter first pattern-matches memory accesses
// whose target address expression is a symbol-table entry (%fp-20, or the
// address of a global scalar) and replaces those loads and stores with moves
// of pseudo-operands (§4.2). This substitution is what makes induction
// variables recognizable in naive debug code, where every loop counter lives
// in a stack slot. SSA construction uses Braun et al.'s sealed-block
// algorithm, so no separate dominance-frontier pass is needed.
//
// Soundness note (matching the paper's §4.6.2 "optimistic" measurements):
// slots whose address escapes (stored, passed to a call, or materialized in
// static data) are never converted; stores through unknown pointers are
// assumed not to overwrite convertible slots. Monitor-hit *detection* does
// not depend on this assumption — unknown stores keep their runtime checks —
// only the profitability of check elimination does.
package ir

import (
	"fmt"

	"databreak/internal/asm"
	"databreak/internal/cfg"
	"databreak/internal/sparc"
)

// ValKind discriminates Value.
type ValKind uint8

const (
	ValConst   ValKind = iota // integer constant
	ValSym                    // address of data symbol + offset
	ValSymHi                  // %hi(sym)
	ValFP                     // frame pointer established by the prologue
	ValParam                  // register contents at function entry
	ValUnknown                // load result, call/trap effect, fresh window
	ValPhi                    // phi node
	ValOp                     // ALU operation
)

// Value is one SSA value.
type Value struct {
	ID    int
	Kind  ValKind
	Op    sparc.Op // ValOp
	Args  []int    // operands (ValOp); per-pred operands (ValPhi)
	Const int32    // ValConst; offset for ValSym
	Sym   string   // ValSym / ValSymHi
	Reg   sparc.Reg
	Block int // defining block (phi) or block of defining instr
	Pos   int // defining instruction position; -1 for phi/entry

	// replacedBy implements trivial-phi elimination (union-find style).
	replacedBy int
}

// Slot is a convertible memory home: a scalar local/param stack slot or a
// scalar global.
type Slot struct {
	Sym   asm.Sym // the matched symbol record
	IsFP  bool    // fp-relative (local/param) vs global
	FpOff int32
	Label string
}

// Cmp records the last condition-code definition in a block (for asserts).
type Cmp struct {
	Pos      int
	Op       sparc.Op
	Lhs, Rhs int // value ids
}

// Info is the analysis result for one function.
type Info struct {
	F    *cfg.Func
	Vals []*Value

	// AddrOf maps memory-instruction position -> effective address value.
	AddrOf map[int]int
	// DataOf maps store position -> stored value.
	DataOf map[int]int
	// StoreSlot / LoadSlot map converted access positions -> slot index.
	StoreSlot map[int]int
	LoadSlot  map[int]int
	Slots     []Slot

	// CmpAt maps block id -> last condition-code definition in that block.
	CmpAt map[int]Cmp

	numVars int
	escaped map[int]bool  // canonical ids of escaped values (pass 1 only)
	defsEnd []map[int]int // per-variable block -> value at block end
}

// SlotVar returns the SSA variable id for slot index s.
func SlotVar(s int) int { return numRegVars + s }

// ValAtEnd returns the SSA value of variable v at the end of block, walking
// single-predecessor chains; ok is false when the value is not determinable
// without a phi.
func (in *Info) ValAtEnd(v, block int) (int, bool) {
	for hops := 0; hops < len(in.F.Blocks)+1; hops++ {
		if val, ok := in.defsEnd[v][block]; ok {
			return in.Resolve(val), true
		}
		preds := in.F.Blocks[block].Preds
		if len(preds) != 1 {
			return 0, false
		}
		block = preds[0]
	}
	return 0, false
}

// Resolve follows trivial-phi replacements to the canonical value.
func (in *Info) Resolve(id int) int {
	for in.Vals[id].replacedBy >= 0 {
		id = in.Vals[id].replacedBy
	}
	return id
}

// Val returns the canonical value for id.
func (in *Info) Val(id int) *Value { return in.Vals[in.Resolve(id)] }

// Shape describes an address expression form.
type Shape struct {
	// Base is FP, a symbol, or unknown.
	FPRel  bool
	Sym    string
	Known  bool // offset fully constant
	Off    int32
	IsAddr bool // FPRel or Sym != ""
}

// ShapeOf computes the address shape of a value.
func (in *Info) ShapeOf(id int) Shape {
	v := in.Val(id)
	switch v.Kind {
	case ValFP:
		return Shape{FPRel: true, Known: true, IsAddr: true}
	case ValSym:
		return Shape{Sym: v.Sym, Known: true, Off: v.Const, IsAddr: true}
	case ValConst:
		return Shape{Known: true, Off: v.Const}
	case ValOp:
		switch v.Op {
		case sparc.Add, sparc.Sub:
			a := in.ShapeOf(v.Args[0])
			b := in.ShapeOf(v.Args[1])
			sign := int32(1)
			if v.Op == sparc.Sub {
				sign = -1
			}
			if a.Known && b.Known && !(a.IsAddr && b.IsAddr) {
				out := a
				if b.IsAddr && v.Op == sparc.Add {
					out = b
					out.Off += a.Off
					return out
				}
				out.Off += sign * b.Off
				return out
			}
			// Address base with unknown offset.
			if a.IsAddr {
				return Shape{FPRel: a.FPRel, Sym: a.Sym, IsAddr: true}
			}
			if b.IsAddr && v.Op == sparc.Add {
				return Shape{FPRel: b.FPRel, Sym: b.Sym, IsAddr: true}
			}
		case sparc.Or:
			// or is used as move/add for disjoint bit patterns.
			a := in.ShapeOf(v.Args[0])
			b := in.ShapeOf(v.Args[1])
			if a.Known && !a.IsAddr && a.Off == 0 {
				return b
			}
			if b.Known && !b.IsAddr && b.Off == 0 {
				return a
			}
		}
	}
	return Shape{}
}

// builder performs SSA construction (Braun et al.).
type builder struct {
	info   *Info
	f      *cfg.Func
	u      *asm.Unit
	slots  []Slot
	slotBy map[string]int // key: "fp:off" or "g:label"

	// currentDef[var][block] = value id
	currentDef []map[int]int
	sealed     []bool
	// incompletePhis[block][var] = phi value id
	incomplete []map[int]int
	phiUsers   map[int][]int // phi id -> values using it
	phiVar     map[int]int   // phi id -> variable
	// escapes collects value ids observed escaping (pass 1).
	escapes map[int]bool
	track   bool // track escapes
	// paramCount maps callee name -> parameter count (escape precision).
	paramCount map[string]int
	// constCache / symCache intern immutable values so structurally equal
	// constants share one id (strengthens trivial-phi elimination).
	constCache map[int32]int
	symCache   map[string]int
	// forced maps instruction position -> slot, from a prior pass.
	forced map[int]int
}

const numRegVars = 32

// BuildRegistersOnly runs pass 1: SSA over registers, no slot conversion,
// collecting escape information.
func BuildRegistersOnly(f *cfg.Func, syms []asm.Sym) *Info {
	b := newBuilder(f, nil)
	b.paramCount = paramCounts(syms)
	b.track = true
	b.run()
	b.info.escaped = make(map[int]bool, len(b.escapes))
	for id := range b.escapes {
		b.info.escaped[b.info.Resolve(id)] = true
	}
	return b.info
}

// Build runs the full conversion for f: pass 1 determines which symbol
// slots are safe to convert; subsequent passes rebuild SSA with those slots
// as pseudo-variables. Because an access inside a loop reaches an unsealed
// header when first visited, its address shape is only known once trivial
// phis have been resolved; construction therefore iterates, feeding each
// pass's resolved ld/st-to-slot matches into the next, until the match set
// stops growing (it grows monotonically, so this terminates).
func Build(f *cfg.Func, syms []asm.Sym) *Info {
	pass1 := BuildRegistersOnly(f, syms)
	slots := convertibleSlots(pass1, f, syms)
	var forced map[int]int
	var info *Info
	for iter := 0; iter < 6; iter++ {
		b := newBuilder(f, slots)
		b.paramCount = paramCounts(syms)
		b.forced = forced
		b.run()
		info = b.info
		matches := resolvedMatches(info)
		if len(matches) == len(info.StoreSlot)+len(info.LoadSlot) {
			break
		}
		forced = matches
	}
	return info
}

// paramCounts maps each function name to its parameter count, from the
// compiler's param symbol records.
func paramCounts(syms []asm.Sym) map[string]int {
	counts := make(map[string]int)
	for _, s := range syms {
		if s.Kind == asm.SymFunc {
			if _, ok := counts[s.Name]; !ok {
				counts[s.Name] = 0
			}
		}
		if s.Kind == asm.SymParam {
			counts[s.Func]++
		}
	}
	return counts
}

// resolvedMatches recomputes ld/st-to-slot matches with all phis resolved.
func resolvedMatches(info *Info) map[int]int {
	out := make(map[int]int)
	slotBy := make(map[string]int)
	for i, s := range info.Slots {
		slotBy[slotKey(s)] = i
	}
	for pos, addr := range info.AddrOf {
		op := info.F.Instruction(pos).Op
		if op != sparc.Ld && op != sparc.St {
			continue
		}
		sh := info.ShapeOf(addr)
		if !sh.IsAddr || !sh.Known {
			continue
		}
		var key string
		if sh.FPRel {
			key = fmt.Sprintf("fp:%d", sh.Off)
		} else if sh.Off == 0 {
			key = "g:" + sh.Sym
		} else {
			continue
		}
		if slot, ok := slotBy[key]; ok {
			out[pos] = slot
		}
	}
	return out
}

func newBuilder(f *cfg.Func, slots []Slot) *builder {
	n := numRegVars + len(slots)
	b := &builder{
		info: &Info{
			F:         f,
			AddrOf:    make(map[int]int),
			DataOf:    make(map[int]int),
			StoreSlot: make(map[int]int),
			LoadSlot:  make(map[int]int),
			Slots:     slots,
			CmpAt:     make(map[int]Cmp),
			numVars:   n,
		},
		f:          f,
		u:          f.Unit,
		slots:      slots,
		slotBy:     make(map[string]int),
		currentDef: make([]map[int]int, n),
		sealed:     make([]bool, len(f.Blocks)),
		incomplete: make([]map[int]int, len(f.Blocks)),
		phiUsers:   make(map[int][]int),
		phiVar:     make(map[int]int),
		escapes:    make(map[int]bool),
		constCache: make(map[int32]int),
		symCache:   make(map[string]int),
	}
	for i := range b.currentDef {
		b.currentDef[i] = make(map[int]int)
	}
	for i := range b.incomplete {
		b.incomplete[i] = make(map[int]int)
	}
	for i, s := range slots {
		b.slotBy[slotKey(s)] = i
	}
	return b
}

func slotKey(s Slot) string {
	if s.IsFP {
		return fmt.Sprintf("fp:%d", s.FpOff)
	}
	return "g:" + s.Label
}

func (b *builder) newValue(v Value) int {
	v.ID = len(b.info.Vals)
	v.replacedBy = -1
	b.info.Vals = append(b.info.Vals, &v)
	return v.ID
}

func (b *builder) constVal(c int32) int {
	if id, ok := b.constCache[c]; ok {
		return id
	}
	id := b.newValue(Value{Kind: ValConst, Const: c, Pos: -1})
	b.constCache[c] = id
	return id
}

func (b *builder) symVal(kind ValKind, sym string, off int32) int {
	key := fmt.Sprintf("%d:%s:%d", kind, sym, off)
	if id, ok := b.symCache[key]; ok {
		return id
	}
	id := b.newValue(Value{Kind: kind, Sym: sym, Const: off, Pos: -1})
	b.symCache[key] = id
	return id
}

func (b *builder) unknown(block, pos int, reg sparc.Reg) int {
	return b.newValue(Value{Kind: ValUnknown, Block: block, Pos: pos, Reg: reg})
}

// writeVar sets the current definition of variable v in block.
func (b *builder) writeVar(v, block, val int) {
	b.currentDef[v][block] = val
}

// readVar returns the reaching definition of variable v at the end of block.
func (b *builder) readVar(v, block int) int {
	if v == int(sparc.G0) {
		return b.constVal(0)
	}
	if val, ok := b.currentDef[v][block]; ok {
		return b.info.Resolve(val)
	}
	return b.readVarRecursive(v, block)
}

func (b *builder) readVarRecursive(v, block int) int {
	var val int
	blk := b.f.Blocks[block]
	switch {
	case !b.sealed[block]:
		val = b.newValue(Value{Kind: ValPhi, Block: block, Pos: -1})
		b.phiVar[val] = v
		b.incomplete[block][v] = val
	case len(blk.Preds) == 0:
		// Function entry: registers hold caller-provided values; slots are
		// unknown.
		if v < numRegVars {
			if sparc.Reg(v) == sparc.G0 {
				val = b.constVal(0)
			} else {
				val = b.newValue(Value{Kind: ValParam, Reg: sparc.Reg(v), Pos: -1})
			}
		} else {
			val = b.newValue(Value{Kind: ValUnknown, Pos: -1})
		}
	case len(blk.Preds) == 1:
		val = b.readVar(v, blk.Preds[0])
	default:
		val = b.newValue(Value{Kind: ValPhi, Block: block, Pos: -1})
		b.phiVar[val] = v
		b.writeVar(v, block, val)
		val = b.addPhiOperands(v, val)
	}
	b.writeVar(v, block, val)
	return val
}

func (b *builder) addPhiOperands(v, phi int) int {
	blk := b.f.Blocks[b.info.Vals[phi].Block]
	for _, p := range blk.Preds {
		arg := b.readVar(v, p)
		b.info.Vals[phi].Args = append(b.info.Vals[phi].Args, arg)
		if b.info.Vals[arg].Kind == ValPhi {
			b.phiUsers[arg] = append(b.phiUsers[arg], phi)
		}
	}
	return b.tryRemoveTrivialPhi(phi)
}

func (b *builder) tryRemoveTrivialPhi(phi int) int {
	same := -1
	for _, a := range b.info.Vals[phi].Args {
		a = b.info.Resolve(a)
		if a == phi || a == same {
			continue
		}
		if same != -1 {
			return phi // not trivial
		}
		same = a
	}
	if same == -1 {
		// Phi of only itself: unreachable; make it unknown.
		b.info.Vals[phi].Kind = ValUnknown
		return phi
	}
	b.info.Vals[phi].replacedBy = same
	// Users of the removed phi may have become trivial themselves; recheck
	// every phi user other than the removed phi itself.
	for _, user := range b.phiUsers[phi] {
		u := b.info.Resolve(user)
		if u != phi && b.info.Vals[u].Kind == ValPhi {
			b.tryRemoveTrivialPhi(u)
		}
	}
	return same
}

func (b *builder) sealBlock(block int) {
	for v, phi := range b.incomplete[block] {
		b.addPhiOperands(v, phi)
	}
	b.incomplete[block] = nil
	b.sealed[block] = true
}

// run walks blocks in layout order, sealing each block once all of its
// predecessors have been processed.
func (b *builder) run() {
	processed := make([]bool, len(b.f.Blocks))
	allPredsDone := func(blk *cfg.Block) bool {
		for _, p := range blk.Preds {
			if !processed[p] {
				return false
			}
		}
		return true
	}
	for _, blk := range b.f.Blocks {
		if allPredsDone(blk) && !b.sealed[blk.ID] {
			b.sealBlock(blk.ID)
		}
		b.processBlock(blk)
		processed[blk.ID] = true
	}
	// Loop headers (and anything else awaiting a later predecessor) are
	// sealed once every block has been processed.
	for id := range b.f.Blocks {
		if !b.sealed[id] {
			b.sealBlock(id)
		}
	}
	b.info.defsEnd = b.currentDef
}

func (b *builder) operand2(in sparc.Instr, item *asm.Item, block int) int {
	if !in.UseImm {
		return b.readVar(int(in.Rs2), block)
	}
	if item.ImmSym != "" {
		switch item.ImmSel {
		case asm.ImmHi:
			return b.symVal(ValSymHi, item.ImmSym, 0)
		default:
			return b.symVal(ValSym, item.ImmSym, 0)
		}
	}
	return b.constVal(in.Imm)
}

// makeOp builds an ALU value with constant folding and symbol-address
// reassembly (sethi %hi + or %lo).
func (b *builder) makeOp(op sparc.Op, a1, a2 int, block, pos int, rd sparc.Reg) int {
	v1, v2 := b.info.Val(a1), b.info.Val(a2)
	switch op {
	case sparc.Or, sparc.Orcc:
		if v1.Kind == ValConst && v1.Const == 0 {
			return b.info.Resolve(a2)
		}
		if v2.Kind == ValConst && v2.Const == 0 {
			return b.info.Resolve(a1)
		}
		if v1.Kind == ValSymHi && v2.Kind == ValSym && v1.Sym == v2.Sym {
			// The assembler resolves %lo as the low 10 bits; hi|lo is the
			// full address.
			return b.symVal(ValSym, v1.Sym, 0)
		}
		if v1.Kind == ValConst && v2.Kind == ValConst {
			return b.constVal(v1.Const | v2.Const)
		}
	case sparc.Add, sparc.Addcc:
		if v1.Kind == ValConst && v1.Const == 0 {
			return b.info.Resolve(a2)
		}
		if v2.Kind == ValConst && v2.Const == 0 {
			return b.info.Resolve(a1)
		}
		if v1.Kind == ValConst && v2.Kind == ValConst {
			return b.constVal(v1.Const + v2.Const)
		}
		if v1.Kind == ValSym && v2.Kind == ValConst {
			return b.symVal(ValSym, v1.Sym, v1.Const+v2.Const)
		}
		if v2.Kind == ValSym && v1.Kind == ValConst {
			return b.symVal(ValSym, v2.Sym, v2.Const+v1.Const)
		}
	case sparc.Sub, sparc.Subcc:
		if v2.Kind == ValConst && v2.Const == 0 {
			return b.info.Resolve(a1)
		}
		if v1.Kind == ValConst && v2.Kind == ValConst {
			return b.constVal(v1.Const - v2.Const)
		}
		if v1.Kind == ValSym && v2.Kind == ValConst {
			return b.newValue(Value{Kind: ValSym, Sym: v1.Sym, Const: v1.Const - v2.Const, Block: block, Pos: pos})
		}
	case sparc.Sll:
		if v1.Kind == ValConst && v2.Kind == ValConst {
			return b.constVal(v1.Const << (uint32(v2.Const) & 31))
		}
	case sparc.SMul:
		if v1.Kind == ValConst && v2.Kind == ValConst {
			return b.constVal(v1.Const * v2.Const)
		}
	}
	return b.newValue(Value{Kind: ValOp, Op: op, Args: []int{b.info.Resolve(a1), b.info.Resolve(a2)}, Block: block, Pos: pos, Reg: rd})
}

func (b *builder) processBlock(blk *cfg.Block) {
	id := blk.ID
	for p := blk.Start; p < blk.End; p++ {
		itemIdx := b.f.Instrs[p]
		item := &b.u.Items[itemIdx]
		in := item.Instr
		switch {
		case in.Op == sparc.Sethi:
			var val int
			if item.ImmSym != "" {
				val = b.symVal(ValSymHi, item.ImmSym, 0)
			} else {
				val = b.constVal(in.Imm << 10)
			}
			b.writeVar(int(in.Rd), id, val)

		case in.Op.IsALU():
			a1 := b.readVar(int(in.Rs1), id)
			a2 := b.operand2(in, item, id)
			val := b.makeOp(in.Op, a1, a2, id, p, in.Rd)
			if in.Rd != sparc.G0 {
				b.writeVar(int(in.Rd), id, val)
			}
			if in.Op.SetsCC() {
				b.info.CmpAt[id] = Cmp{Pos: p, Op: in.Op, Lhs: b.info.Resolve(a1), Rhs: b.info.Resolve(a2)}
			}

		case in.Op == sparc.Ld || in.Op == sparc.Ldd:
			a1 := b.readVar(int(in.Rs1), id)
			a2 := b.operand2(in, item, id)
			addr := b.makeOp(sparc.Add, a1, a2, id, p, 0)
			b.info.AddrOf[p] = addr
			var val int
			if slot, ok := b.matchSlot(p, addr); ok && in.Op == sparc.Ld {
				val = b.readVar(numRegVars+slot, id)
				b.info.LoadSlot[p] = slot
			} else {
				val = b.unknown(id, p, in.Rd)
			}
			b.writeVar(int(in.Rd), id, val)
			if in.Op == sparc.Ldd {
				b.writeVar(int(in.Rd)+1, id, b.unknown(id, p, in.Rd+1))
			}

		case in.Op == sparc.St || in.Op == sparc.Std:
			a1 := b.readVar(int(in.Rs1), id)
			a2 := b.operand2(in, item, id)
			addr := b.makeOp(sparc.Add, a1, a2, id, p, 0)
			data := b.readVar(int(in.Rd), id)
			b.info.AddrOf[p] = addr
			b.info.DataOf[p] = data
			b.escape(data)
			if slot, ok := b.matchSlot(p, addr); ok && in.Op == sparc.St {
				b.writeVar(numRegVars+slot, id, data)
				b.info.StoreSlot[p] = slot
			}

		case in.Op == sparc.Save:
			// Compute in the old window, then shift: %i0-%i5 receive the
			// caller's %o0-%o5; %fp becomes the canonical frame pointer.
			var inVals [6]int
			for k := 0; k < 6; k++ {
				inVals[k] = b.readVar(int(sparc.O0)+k, id)
			}
			o7 := b.readVar(int(sparc.O7), id)
			for k := 0; k < 6; k++ {
				b.writeVar(int(sparc.I0)+k, id, inVals[k])
			}
			b.writeVar(int(sparc.I7), id, o7)
			b.writeVar(int(sparc.FP), id, b.newValue(Value{Kind: ValFP, Block: id, Pos: p}))
			b.writeVar(int(sparc.SP), id, b.unknown(id, p, sparc.SP))
			for k := 0; k < 8; k++ {
				b.writeVar(int(sparc.L0)+k, id, b.unknown(id, p, sparc.Reg(int(sparc.L0)+k)))
			}
			for k := 0; k < 6; k++ {
				b.writeVar(int(sparc.O0)+k, id, b.unknown(id, p, sparc.Reg(int(sparc.O0)+k)))
			}
			b.writeVar(int(sparc.O7), id, b.unknown(id, p, sparc.O7))

		case in.Op == sparc.Restore:
			for r := 8; r < 32; r++ {
				b.writeVar(r, id, b.unknown(id, p, sparc.Reg(r)))
			}

		case in.Op == sparc.Call:
			// Outgoing arguments escape; %o registers are clobbered on
			// return; global scalars may be rewritten by the callee. The
			// callee's parameter count (from its symbol records) bounds
			// which registers carry arguments — without it, stale scratch
			// values would look like escaping pointers.
			nargs := 6
			if n, ok := b.paramCount[item.TargetSym]; ok {
				nargs = n
			}
			for k := 0; k < nargs; k++ {
				b.escape(b.readVar(int(sparc.O0)+k, id))
			}
			for k := 0; k < 8; k++ {
				b.writeVar(int(sparc.O0)+k, id, b.unknown(id, p, sparc.Reg(int(sparc.O0)+k)))
			}
			for si, s := range b.slots {
				if !s.IsFP {
					b.writeVar(numRegVars+si, id, b.unknown(id, p, 0))
				}
			}

		case in.Op == sparc.Ta:
			// Traps read %o0 (and %o1 for string prints); the allocator
			// returns through %o0.
			b.escape(b.readVar(int(sparc.O0), id))
			if in.Imm == 3 {
				b.escape(b.readVar(int(sparc.O1), id))
			}
			b.writeVar(int(sparc.O0), id, b.unknown(id, p, sparc.O0))

		case in.Op == sparc.Jmpl:
			b.escape(b.readVar(int(sparc.I0), id))
			b.escape(b.readVar(int(sparc.O0), id))
			if in.Rd != sparc.G0 {
				b.writeVar(int(in.Rd), id, b.unknown(id, p, in.Rd))
			}
		}
	}
}

func (b *builder) escape(val int) {
	if b.track {
		b.escapes[b.info.Resolve(val)] = true
	}
}

// matchSlot reports whether the access at pos with address value addr is
// exactly the home of a convertible slot.
func (b *builder) matchSlot(pos, addr int) (int, bool) {
	if len(b.slots) == 0 {
		return 0, false
	}
	if slot, ok := b.forced[pos]; ok {
		return slot, true
	}
	sh := b.info.ShapeOf(addr)
	if !sh.IsAddr || !sh.Known {
		return 0, false
	}
	var key string
	if sh.FPRel {
		key = fmt.Sprintf("fp:%d", sh.Off)
	} else if sh.Off == 0 {
		key = "g:" + sh.Sym
	} else {
		return 0, false
	}
	slot, ok := b.slotBy[key]
	return slot, ok
}

// convertibleSlots selects the scalar symbols safe to convert to
// pseudo-variables: 4-byte locals/params and globals whose address never
// escapes.
func convertibleSlots(pass1 *Info, f *cfg.Func, syms []asm.Sym) []Slot {
	// Addresses escaping via values.
	fpOffEscaped := make(map[int32]bool)
	globalEscaped := make(map[string]bool)
	for id := range pass1.Vals {
		if pass1.Vals[id].replacedBy >= 0 {
			continue
		}
		if !pass1EscapedVal(pass1, id) {
			continue
		}
		sh := pass1.ShapeOf(id)
		if !sh.IsAddr {
			continue
		}
		if sh.FPRel {
			if sh.Known {
				fpOffEscaped[sh.Off] = true
			} else {
				// A frame address with unknown offset escaped: give up on
				// all frame slots in this function.
				fpOffEscaped[escapeAll] = true
			}
		} else if sh.Sym != "" {
			globalEscaped[sh.Sym] = true
		}
	}
	// Globals whose address is materialized in static data escape too.
	for i := range f.Unit.Items {
		if it := &f.Unit.Items[i]; it.Kind == asm.ItemWord && it.WordSym != "" {
			globalEscaped[it.WordSym] = true
		}
	}

	var slots []Slot
	for _, s := range syms {
		switch s.Kind {
		case asm.SymLocal, asm.SymParam:
			if s.Func != f.Name || s.Size != 4 {
				continue
			}
			if fpOffEscaped[s.FpOff] || fpOffEscaped[escapeAll] {
				continue
			}
			slots = append(slots, Slot{Sym: s, IsFP: true, FpOff: s.FpOff})
		case asm.SymGlobal:
			if s.Size != 4 || globalEscaped[s.Label] {
				continue
			}
			slots = append(slots, Slot{Sym: s, Label: s.Label})
		}
	}
	return slots
}

const escapeAll = int32(-1 << 30)

func pass1EscapedVal(info *Info, id int) bool {
	return info.escaped[id]
}
