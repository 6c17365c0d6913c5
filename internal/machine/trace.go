// Trace builder: the compiled tier's front end.
//
// The block engine (blocks.go) already amortizes dispatch over straight-line
// runs, but it still pays a switch on the generic µop encoding for every
// instruction and a fresh dispatch at every terminator. The compiled tier
// goes further. Its front end, this file, turns a block head into a trace —
// an array of specialized trace-ops (top) covering the straight-line run AND
// the statically-predicted path beyond it, stitched across unconditional
// branches, calls, and conditional branches predicted taken (backward) or
// not-taken (forward). Common adjacent pairs and triples are fused into one
// trace-op (sethi+or constant synthesis, subcc+branch compare-and-branch, the
// address chains minic emits), and operand-2 forms that are immediate-only at
// compile time drop the register read entirely. A trace whose last op
// branches back to its own entry is a loop trace: one pass after another
// runs without returning to the dispatcher. closure.go threads each trace at
// once into its item stream (closProg), the only compiled form a machine or
// image retains; the op stream is scratch.
//
// The proof obligation is unchanged from blocks.go: simulated instruction
// counts, cycles, cache statistics, event counters, and fault points must be
// bit-identical to the single-Step engine. Static prediction never
// speculates state: a mispredicted branch is a side exit that commits
// exactly the instructions architecturally executed and returns to the
// dispatcher.
//
// One compilation rule covers every text: BuildImage and LoadText mark the
// block heads (blockHeads), and the first time a machine reaches a marked
// head — by dispatching to it or by linking to it from a trace exit — it
// compiles the head's trace with static prediction, threads it, and
// publishes the closure in its slots (Machine.compileHead). On a shared
// image those slots are the Image's, so every attached machine with the
// image's geometry and cost model shares the closure.
//
// Patch safety (the self-modifying-code hazard, DESIGN.md §9): PatchInstr
// nils every closure whose consumed-index spans cover the patched index and
// marks the heads the new instruction creates. On a shared image it
// privatizes first: the patching machine copies the image's head marks and
// the closures published so far, so only the ones covering the patch are
// dropped, and for this machine only (siblings keep executing and
// first-entering the image's). A patch landing while a closure is
// executing — only possible from a StoreHook or LoadHook — is caught by the
// textGen generation check after the access, exactly as in execBlocks, and
// the closure exits cleanly after the hooked instruction so the dispatcher
// re-enters against fresh state.
package machine

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// Engine selects how Run/RunFor execute. The zero value is EngineClosure:
// the compiled tier is the default, and every engine produces bit-identical
// simulated counts, so the choice is purely a host-speed/diagnosis knob.
type Engine uint8

const (
	// EngineClosure dispatches blocks and enters compiled closures
	// (closure.go) at block heads.
	EngineClosure Engine = iota
	// EngineBlock is the block-dispatch engine with no compiled tier.
	EngineBlock
	// EngineStep executes one instruction at a time through Step — the
	// reference semantics the other engines are measured against.
	EngineStep
)

func (e Engine) String() string {
	switch e {
	case EngineClosure:
		return "closure"
	case EngineBlock:
		return "block"
	case EngineStep:
		return "step"
	}
	return fmt.Sprintf("engine?%d", uint8(e))
}

// ParseEngine converts a flag value ("step", "block", "closure") to an
// Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "closure":
		return EngineClosure, nil
	case "block":
		return EngineBlock, nil
	case "step":
		return EngineStep, nil
	}
	return EngineClosure, fmt.Errorf("machine: unknown engine %q (want step, block, or closure)", s)
}

// SetEngine selects the execution engine. Safe at any point the machine is
// not running; switching engines mid-program keeps all simulated counts
// correct (they are engine-independent by construction).
func (m *Machine) SetEngine(e Engine) {
	m.engine = e
	m.syncTraceState()
}

// Engine returns the currently selected execution engine.
func (m *Machine) Engine() Engine { return m.engine }

// minTraceInstrs rejects traces too short to amortize entering a closure.
const minTraceInstrs = 3

// topOp is a trace-op opcode. Plain ops mirror the block engine's semantics
// with operand-2 unification; *I variants are immediate-only specializations
// that skip the regs[s2r] read; the control ops encode the compile-time
// branch prediction; tCmpBr*/tSet2 are fused two-instruction ops.
type topOp uint8

const (
	tNop topOp = iota
	tLd        // rd = mem[rs1 + regs[s2r] + imm]
	tLdI       // rd = mem[rs1 + imm]
	tLdd
	tSt // mem[rs1 + regs[s2r] + imm] = rd
	tStI
	tStd
	tAdd
	tAddI
	tSub
	tSubI
	tAnd
	tAndn
	tOr
	tOrI
	tOrn
	tXor
	tXnor
	tSll
	tSllI
	tSrl
	tSrlI
	tSra
	tSMul
	tSDiv
	tAddcc
	tSubcc
	tAndcc
	tAndncc
	tOrcc
	tXorcc
	tSet  // sethi: rd = imm (pre-shifted)
	tSet2 // fused sethi+or: rd = imm, two instructions wide

	tBr     // conditional, predicted not taken: side exit when taken
	tBrT    // conditional, predicted taken (stitched): side exit on fall-through
	tBrLoop // conditional back-edge to the trace entry: new pass when taken
	tBA     // unconditional stitched branch: taken cost, keep going
	tBALoop // unconditional back-edge to the trace entry
	tCall   // stitched call: rd(%o7) = return address, taken cost, keep going

	// Window and indirect-jump ops. save/restore are pure register-window
	// shuffles in this subset (no memory traffic), so they compile as
	// interior ops; jmpl ends the trace with a computed exit that feeds
	// straight into trace linking, which is what lets a chain of closures
	// go caller -> callee -> return without a dispatcher round-trip.
	tSave
	tRestore
	tJmpl // terminator: validates the target, side-exits to Step on a bad one

	tCmpBr     // fused subcc+branch, predicted not taken (two wide)
	tCmpBrT    // fused subcc+branch, predicted taken
	tCmpBrLoop // fused subcc+branch back-edge to the trace entry

	// tEnd terminates every trace's op array: it commits the completed pass
	// and transfers to exitPC. A synthetic op (no instruction, no fetch), it
	// lets a closure walk its items with a raw pointer instead of paying an
	// index bound check per item — the walk provably stops at tEnd, and
	// every other path out of a pass is an explicit goto.
	tEnd

	// Fused interior pairs (two instructions, one dispatch). These are the
	// dominant dynamic adjacencies of the compiled workloads — the
	// load/scale/index address chains minic emits — measured on eqntott:
	// ld+sll 10.8%, add+ld 10.5%, or+ld 8.8%, sll+add 11.2%, ld+subcc 4.8%,
	// ld+or 3.3% of all adjacent pairs. The second slot's operands live in
	// rd2/rs1b/s2rb/imm2; both halves execute in program order, so any
	// dataflow between them (or none) is correct by construction.
	tLdSll  // ld then sll
	tLdOr   // ld then or
	tLdCmp  // ld then subcc
	tSllAdd // sll then add
	tAddLd  // add then ld
	tOrLd   // or then ld
	tLdLd   // ld then ld
	tLdSt   // ld then st
	tAddSt  // add then st
	tSubSt  // sub then st
	tOrAdd  // or then add
	tOrSub  // or then sub

	// Fused interior triples (three instructions, one dispatch), the next
	// rung of the same ladder: the dominant dynamic straight-line triples of
	// the compiled workloads, measured by mrsbench -trace-stats — the
	// load/scale/index address chains (eqntott ld+sll+add 11.8%, sll+add+ld
	// 11.4%, or+ld+sll 8.5%; the same shapes lead doduc/nasker/spice2g6/
	// matrix300/tomcatv), espresso's mask-merge or chains (or+or+or 9.9%),
	// the pointer-chase step ld+add+ld (li 5.5%, gcc 4.8%), sethi+or+memop
	// address materialization (sethi+or+ld 7-11% everywhere), and the
	// canonical read-modify-write ld+op+st of the global update pattern.
	// The third slot's operands live in rd3/rs1c/s2rc with its immediate in
	// tgt (free on interior ops); all three slots execute in program order,
	// so intra-run dataflow — including a load clobbering its own address
	// register — is correct by construction. Triples are only formed when no
	// instruction is counted.
	tLdSllAdd // ld, sll, add — the scaled-index address chain
	tSllAddLd // sll, add, ld
	tOrLdSll  // or, ld, sll
	tAddLdSll // add, ld, sll
	tLdAddLd  // ld, add, ld — the pointer-chase step
	tOrOrOr   // or, or, or — espresso's mask-merge chain
	tSet2Ld   // sethi, or, ld — load through a materialized address
	tSet2St   // sethi, or, st — store through a materialized address
	// Read-modify-write triples: ld [a], r; op r, x, r; st r, [a]. Only
	// fused when the store's address expression is textually the load's
	// (sameAddr), so the third slot needs just the value register rd3 — the
	// address recomputes from the FIRST slot's operand fields at store time,
	// which is exactly program order even when the op half clobbers an
	// address register.
	tLdAddSt
	tLdSubSt
	tLdOrSt

	// topOpEnd is one past the last real trace-op; closure.go's synthetic
	// item kinds start here.
	topOpEnd

	// topCount is or-ed into op when the instruction carries an event
	// counter; the closure compiler turns it into a counter item ahead of
	// the op. Fused ops are only formed when neither instruction is counted.
	topCount topOp = 0x80
)

// top is one trace-op: a specialized instruction (or fused pair) plus the
// bookkeeping needed for exact accounting.
type top struct {
	op   topOp
	rd   uint8 // destination (source for stores); scratchReg absorbs %g0
	rs1  uint8
	s2r  uint8 // operand-2 register (%g0 slot for immediate forms)
	cond uint8 // branch condition (condMask index) for control ops
	rd2  uint8 // fused pairs: second instruction's destination
	rs1b uint8 // fused pairs: second instruction's rs1
	s2rb uint8 // fused pairs: second instruction's operand-2 register
	// nl marks compile-time I-line boundaries under the trace's shift:
	// bit0 — this op's (first) fetch is on a different line than the
	// previous op's last fetch in pass order (always set on the first op);
	// bit1 — a fused op's second fetch crosses a line from its first;
	// bit2 — a fused triple's third fetch crosses a line from its second. A
	// clear bit plus a live curILine proves the fetch hits without even
	// computing the line number.
	nl   uint8
	rd3  uint8  // fused triples: third instruction's destination
	ni   uint16 // simulated instructions retired before this op in one pass
	cnt  uint16 // event counter index+1; 0 means none
	rs1c uint8  // fused triples: third instruction's rs1
	s2rc uint8  // fused triples: third instruction's operand-2 register
	imm  int32  // operand-2 immediate / synthesized constant
	imm2 int32  // fused pairs: second instruction's operand-2 immediate
	// tgt: branch or call target (text index); free on interior ops, where a
	// fused triple stores its third instruction's immediate instead.
	tgt int32
	// iaddr is the fetch address of the op's (first) instruction; the text
	// index is (iaddr-TextBase)/4, so side exits need no extra field.
	iaddr uint32
}

// traceProg is one trace as the builder emits it: the compiled tier's
// intermediate form. compileHead threads it into a closProg at once and
// keeps only that; ops alias the builder's buffer until its next compile.
type traceProg struct {
	entry      int32  // head text index the trace is registered under
	exitPC     int32  // pc installed when a pass runs off the tail
	shift      uint32 // I-line shift the nl bits were computed under
	passInstrs int64  // simulated instructions one full pass retires
	ops        []top  // ends in tEnd
	// spans are the sorted, disjoint [lo,hi) text-index ranges the trace
	// consumed, at exact size: its closure keeps them, and PatchInstr
	// invalidates any closure whose span covers the patched index.
	spans [][2]int32
}

// syncTraceState (re)establishes the engine-dependent compiled state after
// any event that changes what the dispatcher may execute: engine selection,
// text installation, or COW privatization. Invariants: m.traces is non-nil
// exactly when the closure engine is active over non-empty text, so
// execBlocks gates the whole tier on one nil check; and a nil slot at a pc
// still marked in m.heads means "not compiled yet" (compileHead) rather
// than "no trace".
func (m *Machine) syncTraceState() {
	switch {
	case m.engine != EngineClosure || len(m.text) == 0:
		m.traces = nil
	case m.sharesTraces():
		// Shared image compiled for this machine's geometry and cost
		// model: the image's slots, filled on first entry of each marked
		// head.
		m.traces = m.img.traces
	default:
		// Private text — or a shared image whose closures bake in an I-line
		// geometry or cost model this machine does not have: compile into
		// private slots. The shared text itself is still borrowed.
		m.traces = make([]atomic.Pointer[closProg], len(m.text))
	}
}

// sharesTraces reports whether the machine executes its image's slots: the
// text is a shared image's, and the image's closures were compiled for this
// machine's I-line geometry (their fetch batching) and cost model (their
// static cycle sums).
func (m *Machine) sharesTraces() bool {
	return m.imgShared && m.img.traceShift == m.cache.LineShift() && m.costs == DefaultCosts
}

// compileHead compiles the trace at marked head pc on its first entry, with
// the machine's builder scratch and I-line shift, threads it for the
// machine's cost model, and publishes the closure once in the machine's
// slots: a caller that loses the race on a shared image's slot adopts the
// winner's. A declined head loses its mark, so it is never retried.
// Returns the published closure, or nil when the head was declined. Kept
// out of line so the dispatcher and the trace-link paths gain only an
// untaken branch.
//
//go:noinline
func (m *Machine) compileHead(pc int32) *closProg {
	tr := m.tb.compile(m.text, m.uops, pc, m.cache.LineShift())
	if tr == nil {
		m.heads.clear(pc)
		return nil
	}
	cp := compileClosures(tr, &m.costs)
	if !m.traces[pc].CompareAndSwap(nil, cp) {
		return m.traces[pc].Load()
	}
	if m.sharesTraces() {
		m.img.traceBytes.Add(int64(cp.size()))
	}
	return cp
}

// invalidateTraces drops every closure whose consumed spans cover the
// patched index. The caller (PatchInstr) has already privatized, so the
// slots are the machine's own: on a formerly shared image they hold the
// closures it inherited, and the image's stay untouched.
func (m *Machine) invalidateTraces(idx int32) {
	for i := range m.traces {
		if cp := m.traces[i].Load(); cp != nil && cp.covers(idx) {
			m.traces[i].Store(nil)
		}
	}
}

// topOf maps a straight-line sparc.Op to its generic trace-op. Zero (tNop)
// doubles as "no mapping" for ops that never appear in block interiors.
var topOf = [64]topOp{
	sparc.Ld: tLd, sparc.Ldd: tLdd, sparc.St: tSt, sparc.Std: tStd,
	sparc.Add: tAdd, sparc.Sub: tSub, sparc.And: tAnd, sparc.Andn: tAndn,
	sparc.Or: tOr, sparc.Orn: tOrn, sparc.Xor: tXor, sparc.Xnor: tXnor,
	sparc.Sll: tSll, sparc.Srl: tSrl, sparc.Sra: tSra,
	sparc.SMul: tSMul, sparc.SDiv: tSDiv,
	sparc.Addcc: tAddcc, sparc.Subcc: tSubcc, sparc.Andcc: tAndcc,
	sparc.Andncc: tAndncc, sparc.Orcc: tOrcc, sparc.Xorcc: tXorcc,
	sparc.Sethi: tSet,
}

// fusePair returns the fused trace-op for the adjacent interior pair (a, b),
// or 0 when the pair has no fused form. Only the measured-hot address-chain
// shapes are fused; the caller checks that neither instruction is counted
// (fused ops carry no second counter slot).
func fusePair(a, b *sparc.Instr) topOp {
	switch a.Op {
	case sparc.Ld:
		switch b.Op {
		case sparc.Sll:
			return tLdSll
		case sparc.Or:
			return tLdOr
		case sparc.Subcc:
			return tLdCmp
		case sparc.Ld:
			return tLdLd
		case sparc.St:
			return tLdSt
		}
	case sparc.Sll:
		if b.Op == sparc.Add {
			return tSllAdd
		}
	case sparc.Add:
		switch b.Op {
		case sparc.Ld:
			return tAddLd
		case sparc.St:
			return tAddSt
		}
	case sparc.Sub:
		if b.Op == sparc.St {
			return tSubSt
		}
	case sparc.Or:
		switch b.Op {
		case sparc.Ld:
			return tOrLd
		case sparc.Add:
			return tOrAdd
		case sparc.Sub:
			return tOrSub
		}
	}
	return 0
}

// sameAddr reports whether two memory instructions name textually the same
// effective-address expression. The RMW triples require it so the store slot
// carries no address operands of its own: the address recomputes from the
// load slot's fields, which is program-order-exact either way.
func sameAddr(a, c *sparc.Instr) bool {
	if a.Rs1 != c.Rs1 || a.UseImm != c.UseImm {
		return false
	}
	if a.UseImm {
		return a.Imm == c.Imm
	}
	return a.Rs2 == c.Rs2
}

// fuseTriple returns the fused trace-op for the adjacent interior triple
// (a, b, c), or 0 when the triple has no fused form. Shapes chosen from the
// measured dynamic adjacencies (see the opcode block); the caller checks that
// no instruction is counted.
func fuseTriple(a, b, c *sparc.Instr) topOp {
	switch a.Op {
	case sparc.Ld:
		switch b.Op {
		case sparc.Sll:
			if c.Op == sparc.Add {
				return tLdSllAdd
			}
		case sparc.Add:
			if c.Op == sparc.Ld {
				return tLdAddLd
			}
			if c.Op == sparc.St && sameAddr(a, c) {
				return tLdAddSt
			}
		case sparc.Sub:
			if c.Op == sparc.St && sameAddr(a, c) {
				return tLdSubSt
			}
		case sparc.Or:
			if c.Op == sparc.St && sameAddr(a, c) {
				return tLdOrSt
			}
		}
	case sparc.Sll:
		if b.Op == sparc.Add && c.Op == sparc.Ld {
			return tSllAddLd
		}
	case sparc.Or:
		switch b.Op {
		case sparc.Ld:
			if c.Op == sparc.Sll {
				return tOrLdSll
			}
		case sparc.Or:
			if c.Op == sparc.Or {
				return tOrOrOr
			}
		}
	case sparc.Add:
		if b.Op == sparc.Ld && c.Op == sparc.Sll {
			return tAddLdSll
		}
	}
	return 0
}

// fuseAt decides how many instructions starting at text[i] fuse into one
// trace-op inside the straight-line window [i, stop), mirroring exactly what
// the trace builder emits: (op, 3) for a fused triple, (op, 2) for a fused
// pair or sethi+or constant, (0, 1) when text[i] compiles as a single op. The
// decision lives here — separate from emission — so FusionPlan reports
// coverage with the compiler's own rules and can never drift from them.
func fuseAt(text []sparc.Instr, i, stop int32) (topOp, int32) {
	in := &text[i]
	// sethi+or constant synthesis: sethi rd, hi; or rd, lo, rd. Skipped for
	// %g0 destinations (the sethi write is discarded there, so the pair is
	// NOT a constant) and counted pairs. An uncounted word memop right after
	// widens to the address-materialization triple.
	if in.Op == sparc.Sethi && in.Count == 0 && in.Rd != sparc.G0 && i+1 < stop {
		if n2 := &text[i+1]; n2.Op == sparc.Or && n2.UseImm &&
			n2.Count == 0 && n2.Rs1 == in.Rd && n2.Rd == in.Rd {
			if i+2 < stop && text[i+2].Count == 0 {
				switch text[i+2].Op {
				case sparc.Ld:
					return tSet2Ld, 3
				case sparc.St:
					return tSet2St, 3
				}
			}
			return tSet2, 2
		}
	}
	if i+1 < stop && in.Count == 0 && text[i+1].Count == 0 {
		// Fused interior triples first — a triple plus whatever follows is
		// never sparser than the pair tiling it replaces — then pairs.
		if i+2 < stop && text[i+2].Count == 0 {
			if f := fuseTriple(in, &text[i+1], &text[i+2]); f != 0 {
				return f, 3
			}
		}
		if f := fusePair(in, &text[i+1]); f != 0 {
			return f, 2
		}
	}
	return 0, 1
}

// isTraceTerminator reports whether op ends a straight-line interior run in
// the trace builder's walk (traceBuilder.compile cases these individually;
// FusionPlan uses it to bound the fusion window inside a dynamic run).
func isTraceTerminator(op sparc.Op) bool {
	switch op {
	case sparc.Br, sparc.Call, sparc.Jmpl, sparc.Save, sparc.Restore,
		sparc.Ta, sparc.Unimp:
		return true
	}
	return false
}

// FusionPlan applies the trace builder's fusion rules to one dynamically
// consecutive instruction run and returns the width in instructions (1, 2, or
// 3) of each dispatch item the compiled tier would retire for it.
// Interior fusion windows are bounded at terminators exactly as the builder
// bounds them at block ends, and a conditional branch fuses with an
// immediately preceding uncounted subcc (tCmpBr*). The mrsbench -trace-stats
// report is built on this, so its coverage numbers are the compiler's own.
func FusionPlan(run []sparc.Instr) []int8 {
	var widths []int8
	n := int32(len(run))
	for i := int32(0); i < n; {
		in := &run[i]
		if isTraceTerminator(in.Op) {
			if in.Op == sparc.Br && in.Count == 0 && len(widths) > 0 &&
				widths[len(widths)-1] == 1 &&
				run[i-1].Op == sparc.Subcc && run[i-1].Count == 0 {
				widths[len(widths)-1] = 2 // subcc+branch fuse (tCmpBr*)
			} else {
				widths = append(widths, 1)
			}
			i++
			continue
		}
		stop := i
		for stop < n && !isTraceTerminator(run[stop].Op) {
			stop++
		}
		_, w := fuseAt(run, i, stop)
		widths = append(widths, int8(w))
		i += w
	}
	return widths
}

// predictBranch predicts a conditional branch for trace stitching:
// backward branches are predicted taken (the classic loop heuristic) and
// forward branches fall to predictTaken's layout heuristic. Predictions
// never affect correctness — a wrong one is a side exit — only how long the
// common pass runs.
func predictBranch(text []sparc.Instr, uops []uop, brPC, tgt int32) bool {
	if tgt <= brPC {
		return true
	}
	return predictTaken(text, uops, brPC, tgt)
}

// predictTaken is the static prediction for a FORWARD conditional branch.
// Default: not taken — fall-through is the common layout
// for compiler output. Exception: when the fall-through path is a short run
// that ends in a trap or unimp, the branch is the branch-over-trap shape
// every patched check sequence uses, and the taken edge is the hot one.
func predictTaken(text []sparc.Instr, uops []uop, brPC, tgt int32) bool {
	ft := brPC + 1
	if uint32(ft) >= uint32(len(text)) {
		return true
	}
	run := uops[ft].bl
	if run > 3 {
		return false
	}
	t := ft + run
	if uint32(t) >= uint32(len(text)) {
		return false
	}
	switch text[t].Op {
	case sparc.Ta, sparc.Unimp:
		return true
	}
	return false
}

// traceBuilder is the trace builder's reusable scratch. A machine compiles
// many traces over one text, so a consumed set allocated and scanned per
// trace would cost traces × len(text); instead stamp[i] == gen marks text
// index i consumed by the trace under construction, and bumping gen empties
// the set in O(1). seen lists the consumed indices as [lo,hi) runs in visit
// order, so a trace's spans cost its own length, not the text's; ops is the
// op stream's buffer, which the finished trace borrows until the next
// compile. Spans are copied out at exact size, since the closure that keeps
// them lives as long as its image. Each machine keeps one builder for its
// first-entry compiles (compileHead).
type traceBuilder struct {
	stamp []uint32
	gen   uint32
	seen  [][2]int32
	ops   []top
}

// reset empties the scratch for a trace over text of n instructions.
func (b *traceBuilder) reset(n int) {
	if len(b.stamp) < n {
		b.stamp = make([]uint32, n)
		b.gen = 0
	}
	b.gen++
	if b.gen == 0 {
		// Wrapped: a stamp left by an earlier trace could now read as
		// consumed.
		clear(b.stamp)
		b.gen = 1
	}
	b.seen = b.seen[:0]
	b.ops = b.ops[:0]
}

// consume marks text index i as part of the trace under construction.
func (b *traceBuilder) consume(i int32) {
	if b.stamp[i] == b.gen {
		return
	}
	b.stamp[i] = b.gen
	if n := len(b.seen); n > 0 && b.seen[n-1][1] == i {
		b.seen[n-1][1] = i + 1
	} else {
		b.seen = append(b.seen, [2]int32{i, i + 1})
	}
}

// consumed reports whether text index i is already part of the trace.
func (b *traceBuilder) consumed(i int32) bool { return b.stamp[i] == b.gen }

// spans merges the consumed runs into the sorted, disjoint [lo,hi) ranges
// PatchInstr's coverage test walks, at exact size. The runs are disjoint
// (consume records each index once), so sorting them by start and joining
// the ones that abut yields the maximal ranges.
func (b *traceBuilder) spans() [][2]int32 {
	slices.SortFunc(b.seen, func(x, y [2]int32) int { return cmp.Compare(x[0], y[0]) })
	merged := b.seen[:0]
	for _, r := range b.seen {
		if n := len(merged); n > 0 && merged[n-1][1] == r[0] {
			merged[n-1][1] = r[1]
		} else {
			merged = append(merged, r)
		}
	}
	spans := make([][2]int32, len(merged))
	copy(spans, merged)
	return spans
}

// compile builds a superblock trace starting at the block head entry, or
// returns nil when the result would be too trivial to pay for. The walk
// consumes straight-line runs, fuses sethi+or and subcc+branch pairs, and
// stitches across the predicted edge of each terminator — including
// predicted-taken BACKWARD branches, the superblock tail-duplication case —
// until it revisits a consumed index, reaches an unstitchable terminator
// (jmpl/save/restore/ta/unimp), or hits the maxBlockLen instruction bound —
// the same bound that caps block runs and PatchInstr's backward repair, so
// a single patch never invalidates more than a bounded neighborhood.
// Operands come from the predecoded uops, which PatchInstr keeps coherent
// with text. shift is the I-line shift the nl bits are computed under; a machine may
// only execute traces whose shift matches its own cache geometry
// (syncTraceState enforces this).
func (b *traceBuilder) compile(text []sparc.Instr, uops []uop, entry int32, shift uint32) *traceProg {
	if uint32(entry) >= uint32(len(uops)) {
		return nil
	}
	if uops[entry].bl == 0 {
		// Terminator at the head. save/restore heads are worth compiling —
		// every callee entry is a save — and branch/call/jmpl heads stitch
		// their predicted edge and keep going, which matters because side
		// exits land on them (a not-taken exit whose successor is another
		// branch). Only ta/unimp heads have nothing to specialize.
		switch text[entry].Op {
		case sparc.Save, sparc.Restore, sparc.Br, sparc.Call, sparc.Jmpl:
		default:
			return nil
		}
	}
	b.reset(len(text))
	var (
		ops    = b.ops
		ni     = 0
		loop   = false
		dyn    = false
		pc     = entry
		exitPC = entry
	)

scan:
	for {
		if ni >= maxBlockLen || uint32(pc) >= uint32(len(text)) {
			exitPC = pc // budget or end of text: dispatcher takes over
			break
		}
		if b.consumed(pc) {
			exitPC = pc // trace rejoins itself: end here
			break
		}
		if run := int(uops[pc].bl); run > 0 {
			// Interior straight-line instructions [pc, pc+run).
			if ni+run > maxBlockLen {
				run = maxBlockLen - ni
			}
			stop := pc + int32(run)
			i := pc
			for i < stop {
				b.consume(i)
				in := &text[i]
				if f, w := fuseAt(text, i, stop); w > 1 {
					for k := int32(1); k < w; k++ {
						b.consume(i + k)
					}
					t := top{op: f, ni: uint16(ni), iaddr: TextBase + uint32(i)*4}
					switch f {
					case tSet2:
						// The synthesized constant lives in imm; the or's
						// operands are implied (rd op= lo).
						t.rd = uint8(in.Rd)
						t.imm = in.Imm<<10 | text[i+1].Imm
					case tSet2Ld, tSet2St:
						// Slots A+B are the synthesized constant (rd, imm);
						// the memop rides in the pair's second-slot fields.
						u3 := &uops[i+2]
						t.rd = uint8(in.Rd)
						t.imm = in.Imm<<10 | text[i+1].Imm
						t.rd2, t.rs1b, t.s2rb, t.imm2 = u3.rd, u3.rs1, u3.s2r, u3.s2i
					default:
						u1, u2 := &uops[i], &uops[i+1]
						t.rd, t.rs1, t.s2r, t.imm = u1.rd, u1.rs1, u1.s2r, u1.s2i
						t.rd2, t.rs1b, t.s2rb, t.imm2 = u2.rd, u2.rs1, u2.s2r, u2.s2i
						if w == 3 {
							u3 := &uops[i+2]
							t.rd3, t.rs1c, t.s2rc = u3.rd, u3.rs1, u3.s2r
							t.tgt = u3.s2i // imm3: tgt is free on interior ops
						}
					}
					ops = append(ops, t)
					ni += int(w)
					i += w
					continue
				}
				u := &uops[i]
				t := top{
					rd: u.rd, rs1: u.rs1, s2r: u.s2r, imm: u.s2i,
					cnt:   uint16(u.cnt),
					ni:    uint16(ni),
					iaddr: TextBase + uint32(i)*4,
				}
				op := topOf[u.op&^opCount]
				// Immediate-only specializations for the hottest ops.
				if u.s2r == uint8(sparc.G0) {
					switch op {
					case tLd:
						op = tLdI
					case tSt:
						op = tStI
					case tAdd:
						op = tAddI
					case tOr:
						op = tOrI
					case tSub:
						op = tSubI
					case tSll:
						op = tSllI
					case tSrl:
						op = tSrlI
					}
				}
				t.op = op
				if t.cnt != 0 {
					t.op |= topCount
				}
				ops = append(ops, t)
				ni++
				i++
			}
			pc = stop
			continue
		}

		// Terminator at pc.
		term := &text[pc]
		ta := TextBase + uint32(pc)*4
		switch term.Op {
		case sparc.Br:
			b.consume(pc)
			cond := uint8(term.Cond & 15)
			tgt := term.Target
			// Fuse with an immediately preceding uncounted subcc.
			fused := false
			if n := len(ops); n > 0 && term.Count == 0 {
				if p := &ops[n-1]; p.op == tSubcc && p.cnt == 0 && p.iaddr == ta-4 {
					fused = true
				}
			}
			// emit appends the branch (or rewrites the subcc into the fused
			// form): opU for the plain op, opF for the fused one.
			emit := func(opU, opF topOp) {
				if fused {
					p := &ops[len(ops)-1]
					p.op = opF
					p.cond = cond
					p.tgt = tgt
					return
				}
				t := top{op: opU, cond: cond, tgt: tgt,
					cnt: uint16(term.Count), ni: uint16(ni), iaddr: ta}
				if t.cnt != 0 {
					t.op |= topCount
				}
				ops = append(ops, t)
			}
			switch {
			case term.Cond == sparc.BN:
				// Never taken: tBr with cond BN never side-exits.
				emit(tBr, tCmpBr)
				ni++
				pc++
			case tgt == entry && (term.Cond == sparc.BA ||
				predictBranch(text, uops, pc, tgt)):
				// Predicted-taken back-edge to the head: loop trace. (BA
				// back-edges too: condMask[BA] is all-ones, so tBrLoop with
				// cond BA never takes its side exit.)
				if term.Cond == sparc.BA && !fused {
					emit(tBALoop, 0)
				} else {
					emit(tBrLoop, tCmpBrLoop)
				}
				ni++
				loop = true
				break scan
			case term.Cond == sparc.BA:
				// Unconditional stitch.
				if fused {
					emit(0, tCmpBrT) // cond BA: always continues
				} else {
					emit(tBA, 0)
				}
				ni++
				pc = tgt
			case predictBranch(text, uops, pc, tgt):
				// Predicted taken: stitch to the target and keep compiling.
				// Backward targets duplicate already-laid-out code into the
				// trace tail (superblock tail duplication); the consumed-set
				// check at the top of the walk bounds the duplication.
				emit(tBrT, tCmpBrT)
				ni++
				pc = tgt
			default:
				emit(tBr, tCmpBr)
				ni++
				pc++
			}

		case sparc.Call:
			b.consume(pc)
			t := top{op: tCall, tgt: term.Target,
				cnt: uint16(term.Count), ni: uint16(ni), iaddr: ta}
			if t.cnt != 0 {
				t.op |= topCount
			}
			ops = append(ops, t)
			ni++
			pc = term.Target

		case sparc.Save, sparc.Restore:
			// Interior window shuffle: operand 2 unified like every other
			// op, %g0 destinations discarded via the scratch register.
			b.consume(pc)
			t := top{rd: uint8(term.Rd), rs1: uint8(term.Rs1),
				cnt: uint16(term.Count), ni: uint16(ni), iaddr: ta}
			if term.UseImm {
				t.s2r = uint8(sparc.G0)
				t.imm = term.Imm
			} else {
				t.s2r = uint8(term.Rs2)
			}
			if term.Rd == sparc.G0 {
				t.rd = scratchReg
			}
			if term.Op == sparc.Save {
				t.op = tSave
			} else {
				t.op = tRestore
			}
			if t.cnt != 0 {
				t.op |= topCount
			}
			ops = append(ops, t)
			ni++
			pc++

		case sparc.Jmpl:
			// Dynamic terminator: the exit pc is computed at run time and
			// handed to trace linking. exitPC doubles as the replay point
			// when the target turns out to be invalid (Step raises the
			// fault with the exact semantics, including the rd write).
			b.consume(pc)
			ju := &uops[pc]
			t := top{op: tJmpl, rd: ju.rd, rs1: ju.rs1, s2r: ju.s2r, imm: ju.s2i,
				cnt: uint16(ju.cnt), ni: uint16(ni), iaddr: ta}
			if t.cnt != 0 {
				t.op |= topCount
			}
			ops = append(ops, t)
			ni++
			exitPC = pc
			dyn = true
			break scan

		default:
			// ta/unimp (and malformed encodings): only Step executes
			// these; the trace ends just before.
			exitPC = pc
			break scan
		}
	}
	if !loop && !dyn && ni < minTraceInstrs {
		b.ops = ops // keep the grown buffer for the next trace
		return nil
	}
	// nl post-pass: mark the compile-time I-line boundaries (see top.nl).
	// lastFetch is the previous op's last fetch address in pass order.
	lastLine := ^uint32(0)
	for k := range ops {
		u := &ops[k]
		line := u.iaddr >> shift
		if k == 0 || line != lastLine {
			u.nl = 1
		}
		lastLine = line
		if w := topWidth(u.op); w >= 2 {
			if line2 := (u.iaddr + 4) >> shift; line2 != lastLine {
				u.nl |= 2
				lastLine = line2
			}
			if w == 3 {
				if line3 := (u.iaddr + 8) >> shift; line3 != lastLine {
					u.nl |= 4
					lastLine = line3
				}
			}
		}
	}
	ops = append(ops, top{op: tEnd})
	b.ops = ops // keep the grown buffer for the next trace
	return &traceProg{
		entry:      entry,
		exitPC:     exitPC,
		shift:      shift,
		passInstrs: int64(ni),
		ops:        ops,
		spans:      b.spans(),
	}
}

// badJumpFormat is the format of Step's fault text for a jmpl to dest
// outside the text.
func badJumpFormat(dest uint32) string {
	if dest < TextBase || dest&3 != 0 {
		return "indirect jump to bad address %#x"
	}
	return "indirect jump outside text %#x"
}

// topWidth reports how many instructions (and ifetches, at iaddr, +4, +8) a
// trace-op retires: 1, 2, or 3. Fused ops are never counted, so the topCount
// flag need not be stripped.
func topWidth(op topOp) int32 {
	switch op {
	case tSet2, tCmpBr, tCmpBrT, tCmpBrLoop,
		tLdSll, tLdOr, tLdCmp, tSllAdd, tAddLd, tOrLd,
		tLdLd, tLdSt, tAddSt, tSubSt, tOrAdd, tOrSub:
		return 2
	case tLdSllAdd, tSllAddLd, tOrLdSll, tAddLdSll, tLdAddLd, tOrOrOr,
		tSet2Ld, tSet2St, tLdAddSt, tLdSubSt, tLdOrSt:
		return 3
	}
	return 1
}

// defaultLineShift is the I-line shift of cache.DefaultConfig, the geometry
// image traces are compiled for.
func defaultLineShift() uint32 {
	var s uint32
	for lb := cache.DefaultConfig.LineBytes; lb > 1; lb >>= 1 {
		s++
	}
	return s
}

// headSet is a bitset over text indices, safe for concurrent readers and
// clearers.
type headSet []atomic.Uint64

func (h headSet) has(i int32) bool { return h[i>>6].Load()>>(i&63)&1 != 0 }

// set adds i to the set when it is an index of a text of n instructions;
// concurrent updates of other bits in the same word survive.
func (h headSet) set(i int32, n int) {
	if uint32(i) >= uint32(n) {
		return
	}
	w := &h[i>>6]
	for {
		old := w.Load()
		if w.CompareAndSwap(old, old|1<<(i&63)) {
			return
		}
	}
}

// clear drops i from the set; concurrent clears of other bits in the same
// word survive.
func (h headSet) clear(i int32) {
	w := &h[i>>6]
	for {
		old := w.Load()
		if w.CompareAndSwap(old, old&^(1<<(i&63))) {
			return
		}
	}
}

// clone returns a private copy of the set.
func (h headSet) clone() headSet {
	c := make(headSet, len(h))
	for i := range h {
		c[i].Store(h[i].Load())
	}
	return c
}

// blockHeads marks every block head of text a trace is compiled at on
// first entry: the entry point, every branch/call target, and every
// fall-through successor of a terminator.
func blockHeads(text []sparc.Instr, uops []uop, entry int32) headSet {
	heads := make(headSet, (len(text)+63)/64)
	heads.set(entry, len(text))
	heads.set(0, len(text))
	for i := range text {
		heads.markCreated(text, uops, int32(i))
	}
	return heads
}

// markCreated marks the heads instruction i of text creates: its target if
// it branches or calls, and its successor (fall-through or jmpl return) if
// it ends a block.
func (h headSet) markCreated(text []sparc.Instr, uops []uop, i int32) {
	switch text[i].Op {
	case sparc.Br, sparc.Call:
		h.set(text[i].Target, len(text))
	}
	if uops[i].bl == 0 {
		h.set(i+1, len(text))
	}
}
