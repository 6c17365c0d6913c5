// Trace builder: the compiled tier's front end.
//
// Step pays a switch on the generic instruction encoding and a full entry
// check for every instruction. The compiled tier amortizes both. Its front
// end, this file, turns a block head into a trace and emits it as the item
// stream of one closure (closProg, closure.go): specialized items covering
// the straight-line run AND the statically-predicted path beyond it,
// stitched across unconditional branches, calls, and conditional branches
// predicted taken (backward) or not-taken (forward). Common adjacent pairs
// are fused into one item (sethi+or constant synthesis, subcc+branch
// compare-and-branch, the address chains minic emits), and operand-2 forms
// that are immediate-only at compile time drop the register read entirely.
// Double-word accesses (ldd/std), which nothing in the repository emits,
// are Step-only like ta: a trace ends just before one. A trace whose last
// item branches back to its own entry is a loop trace: one pass after
// another runs without returning to the dispatcher. The closure is the only
// compiled form a machine or image retains.
//
// The proof obligation: simulated instruction counts, cycles, cache
// statistics, event counters, and fault points must be bit-identical to
// Step. Static prediction never speculates state: a mispredicted branch is
// a side exit that commits exactly the instructions architecturally
// executed and returns to the dispatcher.
//
// One compilation rule covers every text: BuildImage and LoadText give each
// block head a closure slot (buildUops, uop.slot), and the first time a
// machine reaches a head — by dispatching to it or by linking to it from a
// trace exit — it compiles the head's closure with static prediction and
// publishes it in the head's slot (Machine.compileHead).
// On a shared image those slots are the Image's, so every attached machine
// with the image's geometry and cost model shares the closure.
//
// Patch safety (the self-modifying-code hazard, DESIGN.md §9): PatchInstr
// nils every closure whose consumed-index spans cover the patched index and
// gives each head the new instruction creates the next slot number. On a
// shared image it privatizes first: the patching machine copies the image's
// µops and the closures published so far, slot for slot, so only the ones
// covering the patch are dropped, and for this machine only (siblings keep
// executing and first-entering the image's). A patch landing
// while a closure is executing — only possible from a StoreHook — is
// caught by the textGen generation check after the store, and the closure
// exits cleanly after the hooked store so the dispatcher re-enters
// against fresh state.
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
// the compiled tier is the default, and both engines produce bit-identical
// simulated counts, so the choice is purely a host-speed/diagnosis knob.
type Engine uint8

const (
	// EngineClosure enters compiled closures (closure.go) at block heads
	// and runs everything else through Step.
	EngineClosure Engine = iota
	// EngineStep executes one instruction at a time through Step — the
	// reference semantics the closure engine is measured against.
	EngineStep
)

func (e Engine) String() string {
	switch e {
	case EngineClosure:
		return "closure"
	case EngineStep:
		return "step"
	}
	return fmt.Sprintf("engine?%d", uint8(e))
}

// ParseEngine converts a flag value ("step", "closure") to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "closure":
		return EngineClosure, nil
	case "step":
		return EngineStep, nil
	}
	return EngineClosure, fmt.Errorf("machine: unknown engine %q (want step or closure)", s)
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

// topOp is an item's kind (ritem.kind). Plain kinds mirror Step's
// semantics with operand-2 unification; *I variants are immediate-only
// specializations that skip the regs[s2r] read; the control kinds encode
// the compile-time branch prediction; tCmpBr*/tSet2 are fused
// two-instruction kinds.
type topOp uint8

const (
	tNop topOp = iota // imm > 1: a run of imm padding nops on one I-line
	tLd               // rd = mem[rs1 + regs[s2r] + imm]
	tLdI              // rd = mem[rs1 + imm]
	tSt               // mem[rs1 + regs[s2r] + imm] = rd
	tStI
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

	// Window and indirect-jump kinds. save/restore are pure register-window
	// shuffles in this subset (no memory traffic), so they compile as
	// interior items; jmpl ends the trace with a computed exit that feeds
	// straight into trace linking, which is what lets a chain of closures
	// go caller -> callee -> return without a dispatcher round-trip.
	tSave
	tRestore
	tJmpl // terminator: validates the target, side-exits to Step on a bad one

	tCmpBr     // fused subcc+branch, predicted not taken (two wide)
	tCmpBrT    // fused subcc+branch, predicted taken
	tCmpBrLoop // fused subcc+branch back-edge to the trace entry

	// tEnd terminates every closure's item stream: it commits the completed
	// pass and transfers to the trace's exit pc (its rx). A synthetic item
	// (no instruction, no fetch), it lets a closure walk its items with a
	// raw pointer instead of paying an index bound check per item — the
	// walk provably stops at tEnd, and every other path out of a pass is an
	// explicit goto.
	tEnd

	// Fused interior pairs (two instructions, one dispatch). These are the
	// dominant dynamic adjacencies of the compiled workloads — the
	// load/scale/index address chains minic emits — measured on eqntott:
	// ld+sll 10.8%, add+ld 10.5%, or+ld 8.8%, sll+add 11.2%, ld+subcc 4.8%,
	// ld+or 3.3% of all adjacent pairs. The second slot's operands live in
	// the item's rd2/rs1b/s2rb/imm2; both halves execute in program order,
	// so any dataflow between them (or none) is correct by construction.
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

	// topOpEnd is one past the last instruction kind; the synthetic
	// counter item kind (cCount, closure.go) is topOpEnd.
	topOpEnd
)

// syncTraceState (re)establishes the engine-dependent compiled state after
// any event that changes what the dispatcher may execute: engine selection,
// text installation, or COW privatization. Invariants: m.traces is non-nil
// exactly when the closure engine is active over non-empty text, so run
// gates the whole tier on one nil check; it holds one slot per slot number
// the µops carry (uop.slot); and a nil slot means "not compiled yet"
// (compileHead), a declined head's slot holds the declined sentinel.
func (m *Machine) syncTraceState() {
	switch {
	case m.engine != EngineClosure || len(m.text) == 0:
		m.traces = nil
	case m.sharesTraces():
		// Shared image compiled for this machine's geometry and cost
		// model: the image's slots, filled on first entry of each head.
		m.traces = m.img.traces
	default:
		// Private text — or a shared image whose closures bake in an I-line
		// geometry or cost model this machine does not have: compile into
		// private slots, one per head. The shared text itself is still
		// borrowed.
		m.traces = make([]atomic.Pointer[closProg], m.heads)
	}
}

// sharesTraces reports whether the machine executes its image's slots: the
// text is a shared image's, and the image's closures were compiled for this
// machine's I-line geometry (their fetch batching) and cost model (their
// static cycle sums).
func (m *Machine) sharesTraces() bool {
	return m.img != nil && m.img.traceShift == m.cache.LineShift() && m.costs == DefaultCosts
}

// compileHead compiles the closure at head pc on its first entry, with the
// machine's builder scratch, I-line shift and cost model, and publishes it
// once in the head's slot: a caller that loses the race on a shared image's
// slot adopts the winner's. A declined head publishes the declined
// sentinel, so it is never retried. Returns what the slot holds. Kept out
// of line so the dispatcher and the trace-link paths gain only an untaken
// branch.
//
//go:noinline
func (m *Machine) compileHead(pc int32) *closProg {
	slot := &m.traces[m.uops[pc].slot]
	cp := m.tb.compile(m.text, m.uops, pc, m.cache.LineShift(), &m.costs)
	if cp == nil {
		cp = declined
	}
	if !slot.CompareAndSwap(nil, cp) {
		return slot.Load()
	}
	if cp != declined && m.sharesTraces() {
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

// topOf maps a straight-line sparc.Op to its generic item kind. Zero (tNop)
// doubles as "no mapping" for ops the builder never looks up: terminators
// and double words, which never appear in block interiors.
var topOf = [64]topOp{
	sparc.Ld: tLd, sparc.St: tSt,
	sparc.Add: tAdd, sparc.Sub: tSub, sparc.And: tAnd, sparc.Andn: tAndn,
	sparc.Or: tOr, sparc.Orn: tOrn, sparc.Xor: tXor, sparc.Xnor: tXnor,
	sparc.Sll: tSll, sparc.Srl: tSrl, sparc.Sra: tSra,
	sparc.SMul: tSMul, sparc.SDiv: tSDiv,
	sparc.Addcc: tAddcc, sparc.Subcc: tSubcc, sparc.Andcc: tAndcc,
	sparc.Andncc: tAndncc, sparc.Orcc: tOrcc, sparc.Xorcc: tXorcc,
	sparc.Sethi: tSet,
}

// fusePair returns the fused item kind for the adjacent interior pair
// (a, b), or 0 when the pair has no fused form. Only the measured-hot
// address-chain shapes are fused; the caller checks that neither
// instruction is counted (a counter item counts one instruction).
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

// fuseAt decides how many instructions starting at text[i] fuse into one
// item inside the straight-line window [i, stop), mirroring exactly what
// the trace builder emits: (tNop, w) for a run of w >= 2 padding nops,
// (kind, 2) for a fused pair or sethi+or constant, (0, 1) when text[i]
// compiles as a single item. lend is the index just past text[i]'s I-line
// (lineEnd), which bounds a nop run. The decision lives here — separate
// from emission — so FusionPlan reports coverage with the compiler's own
// rules and can never drift from them.
func fuseAt(text []sparc.Instr, i, stop, lend int32) (topOp, int32) {
	in := &text[i]
	// A run of uncounted nops on one I-line — the alignment padding of
	// Table 1's Nops columns — retires as one item: its later fetches are
	// guaranteed hits on the line its first fetch touched, and a nop does
	// nothing else.
	if in.Op == sparc.Nop && in.Count == 0 {
		w := int32(1)
		for end := min(stop, lend); i+w < end && text[i+w].Op == sparc.Nop && text[i+w].Count == 0; w++ {
		}
		if w >= 2 {
			return tNop, w
		}
		return 0, 1
	}
	// sethi+or constant synthesis: sethi rd, hi; or rd, lo, rd. Skipped for
	// %g0 destinations (the sethi write is discarded there, so the pair is
	// NOT a constant) and counted pairs.
	if in.Op == sparc.Sethi && in.Count == 0 && in.Rd != sparc.G0 && i+1 < stop {
		if n2 := &text[i+1]; n2.Op == sparc.Or && n2.UseImm &&
			n2.Count == 0 && n2.Rs1 == in.Rd && n2.Rd == in.Rd {
			return tSet2, 2
		}
	}
	if i+1 < stop && in.Count == 0 && text[i+1].Count == 0 {
		if f := fusePair(in, &text[i+1]); f != 0 {
			return f, 2
		}
	}
	return 0, 1
}

// FusionPlan applies the trace builder's fusion rules to one dynamically
// consecutive instruction run, whose first instruction sits at text index
// start, and returns the width in instructions of each dispatch item the
// compiled tier would retire for it under I-line shift shift: 1, 2, or a
// padding-nop run's length. Interior fusion windows are bounded where the
// block index ends a straight-line run (decodeUop) and at multiples of
// maxBlockLen exactly as the builder bounds them at block ends, nop runs at
// I-line ends, and a conditional branch fuses with an immediately preceding
// uncounted subcc (tCmpBr*). The mrsbench -trace-stats report is built on
// this, so its coverage numbers are the compiler's own.
func FusionPlan(run []sparc.Instr, start int32, shift uint32) []int32 {
	straight := func(i int32) bool {
		_, ok := decodeUop(&run[i])
		return ok
	}
	var widths []int32
	n := int32(len(run))
	for i := int32(0); i < n; {
		in := &run[i]
		if !straight(i) {
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
		stop := i + 1
		for stop < n && straight(stop) && (start+stop)%maxBlockLen != 0 {
			stop++
		}
		_, w := fuseAt(run, i, stop, lineEnd(start+i, shift)-start)
		widths = append(widths, w)
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
	t := ft + int32(run)
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
// order, so a trace's spans cost its own length, not the text's; items is
// the item stream under construction. The closure copies both out at exact
// size, since it lives as long as its image. Each machine keeps one builder
// for its first-entry compiles (compileHead).
type traceBuilder struct {
	stamp []uint32
	gen   uint32
	seen  [][2]int32
	items []ritem
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
	b.items = b.items[:0]
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

// add appends instruction item it, preceded by a counter item when cnt,
// the instruction's event counter index+1, is nonzero. The counter item
// fetches nothing, so the item after it keeps its own fetch code. Every
// instruction item carries the all-ones condition mask condMask[0] until a
// branch sets its own; run reads cm on branches only, but the closure
// digest encodes it.
func (b *traceBuilder) add(it ritem, cnt int32) {
	if cnt != 0 {
		b.items = append(b.items, ritem{kind: cCount, imm: cnt - 1})
	}
	it.cm = condMask[0]
	b.items = append(b.items, it)
}

// compile builds the closure of the superblock trace starting at the block
// head entry, or returns nil when the trace would be too trivial to pay
// for. The walk consumes whole straight-line runs, fuses sethi+or and
// subcc+branch pairs, and stitches across the predicted edge of each
// terminator — including predicted-taken BACKWARD branches, the superblock
// tail-duplication case — until it revisits a consumed index, reaches an
// unstitchable terminator (jmpl/ta/unimp/ldd/std), or would pass the
// maxBlockLen instruction bound: it ends before a run that does not fit,
// which starts at a head, so the next closure links on there. A single
// patch thus never invalidates more than a bounded neighborhood.
//
// Each item is emitted with its operands, a control item also with its
// condition mask, the pass instructions retired through it and its link
// target (see ritem); finish adds the fetch codes and batch sums. Operands
// come from the predecoded uops, which PatchInstr keeps coherent with text.
// The closure depends only on the text, the I-line shift shift and the cost
// model c, never on the compiling machine, so a shared image can publish it
// to every machine attached with the image's geometry and cost model; a
// machine may only execute closures whose shift matches its own cache
// geometry (syncTraceState enforces this).
func (b *traceBuilder) compile(text []sparc.Instr, uops []uop, entry int32, shift uint32, c *Costs) *closProg {
	if uint32(entry) >= uint32(len(uops)) {
		return nil
	}
	if uops[entry].bl == 0 {
		// Terminator at the head. save/restore heads are worth compiling —
		// every callee entry is a save — and branch/call/jmpl heads stitch
		// their predicted edge and keep going, which matters because side
		// exits land on them (a not-taken exit whose successor is another
		// branch). Only ta/unimp/ldd/std heads (and the µops decodeUop
		// leaves to Step) have nothing to specialize.
		switch uops[entry].op {
		case sparc.Save, sparc.Restore, sparc.Br, sparc.Call, sparc.Jmpl:
		default:
			return nil
		}
	}
	b.reset(len(text))
	var (
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
				exitPC = pc // the run starts at a head: link on there
				break
			}
			stop := pc + int32(run)
			for i := pc; i < stop; {
				u := &uops[i]
				it := ritem{rd: u.rd, rs1: u.rs1, s2r: u.s2r, imm: u.s2i, fpc: i}
				f, w := fuseAt(text, i, stop, lineEnd(i, shift))
				switch {
				case w == 1:
					it.kind = topOf[u.op]
					// Immediate-only specializations for the hottest kinds.
					if u.s2r == uint8(sparc.G0) {
						switch it.kind {
						case tLd:
							it.kind = tLdI
						case tSt:
							it.kind = tStI
						case tAdd:
							it.kind = tAddI
						case tOr:
							it.kind = tOrI
						case tSub:
							it.kind = tSubI
						case tSll:
							it.kind = tSllI
						case tSrl:
							it.kind = tSrlI
						}
					}
					if it.kind == tNop {
						it.imm = 0 // a lone nop, not a padding run (opWidth)
					}
				case f == tNop:
					it = ritem{kind: tNop, imm: w, fpc: i} // the run's width (opWidth)
				case f == tSet2:
					// The synthesized constant lives in imm; the or's
					// operands are implied (rd op= lo).
					it = ritem{kind: tSet2, rd: uint8(text[i].Rd), imm: text[i].Imm<<10 | text[i+1].Imm, fpc: i}
				default:
					u2 := &uops[i+1]
					it.kind = f
					it.rd2, it.rs1b, it.s2rb, it.imm2 = u2.rd, u2.rs1, u2.s2r, u2.s2i
				}
				for k := i; k < i+w; k++ {
					b.consume(k)
				}
				b.add(it, int32(u.cnt)) // fuseAt fuses uncounted instructions only
				ni += int(w)
				i += w
			}
			pc = stop
			continue
		}

		// Terminator at pc, classified by its µop: one decodeUop leaves to
		// Step ends the trace like ta/unimp.
		term := &text[pc]
		switch uops[pc].op {
		case sparc.Br:
			b.consume(pc)
			at, tgt := pc, term.Target
			// An immediately preceding uncounted subcc item fuses with the
			// branch.
			var sub *ritem
			if n := len(b.items); n > 0 && term.Count == 0 {
				if p := &b.items[n-1]; p.kind == tSubcc && p.fpc == at-1 && uops[at-1].cnt == 0 {
					sub = p
				}
			}
			var plain, fused topOp
			switch {
			case term.Cond == sparc.BN:
				// Never taken: tBr with cond BN never side-exits.
				plain, fused = tBr, tCmpBr
				pc++
			case tgt == entry && (term.Cond == sparc.BA ||
				predictBranch(text, uops, pc, tgt)):
				// Predicted-taken back-edge to the head: loop trace. (BA
				// back-edges too: condMask[BA] is all-ones, so tBrLoop with
				// cond BA never takes its side exit.)
				plain, fused = tBrLoop, tCmpBrLoop
				if term.Cond == sparc.BA && sub == nil {
					plain = tBALoop
				}
				loop = true
			case term.Cond == sparc.BA:
				// Unconditional stitch (fused: cond BA always continues).
				plain, fused = tBA, tCmpBrT
				pc = tgt
			case predictBranch(text, uops, pc, tgt):
				// Predicted taken: stitch to the target and keep compiling.
				// Backward targets duplicate already-laid-out code into the
				// trace tail (superblock tail duplication); the consumed-set
				// check at the top of the walk bounds the duplication.
				plain, fused = tBrT, tCmpBrT
				pc = tgt
			default:
				plain, fused = tBr, tCmpBr
				pc++
			}
			it := sub
			if it != nil {
				// The subcc item becomes the compare-and-branch, which
				// retires the subcc's ni through its first instruction.
				it.kind, it.imm2 = fused, int32(ni)<<16
			} else {
				b.add(ritem{kind: plain, imm2: int32(ni+1) << 16, fpc: at}, term.Count)
				it = &b.items[len(b.items)-1]
			}
			it.cm = condMask[term.Cond&15]
			switch it.kind {
			case tBr, tCmpBr:
				it.rx = uint32(tgt) // the taken edge exits
			case tBrT, tBrLoop, tCmpBrT, tCmpBrLoop:
				it.rx = uint32(at + 1) // the fall-through edge exits
			}
			ni++
			if loop {
				break scan
			}

		case sparc.Call:
			b.consume(pc)
			b.add(ritem{kind: tCall, rd: uint8(sparc.O7), imm: int32(TextBase) + pc<<2 + 4, fpc: pc}, term.Count)
			ni++
			pc = term.Target

		case sparc.Save, sparc.Restore:
			// Interior window shuffle: operand 2 unified like every other
			// kind, %g0 destinations discarded via the scratch register.
			b.consume(pc)
			it := ritem{kind: tSave, rd: uint8(term.Rd), rs1: uint8(term.Rs1), fpc: pc}
			if term.Op == sparc.Restore {
				it.kind = tRestore
			}
			if term.UseImm {
				it.s2r = uint8(sparc.G0)
				it.imm = term.Imm
			} else {
				it.s2r = uint8(term.Rs2)
			}
			if term.Rd == sparc.G0 {
				it.rd = scratchReg
			}
			b.add(it, term.Count)
			ni++
			pc++

		case sparc.Jmpl:
			// Dynamic terminator: the exit pc is computed at run time and
			// handed to trace linking. exitPC doubles as the replay point
			// when the target turns out to be invalid (Step raises the
			// fault with the exact semantics, including the rd write).
			b.consume(pc)
			ju := &uops[pc]
			b.add(ritem{kind: tJmpl, rd: ju.rd, rs1: ju.rs1, s2r: ju.s2r, imm: ju.s2i,
				imm2: int32(ni+1) << 16, fpc: pc}, int32(ju.cnt))
			ni++
			exitPC = pc
			dyn = true
			break scan

		default:
			// ta/unimp/ldd/std (and malformed encodings, and oversized
			// counter indices): only Step executes these; the trace ends
			// just before.
			exitPC = pc
			break scan
		}
	}
	if !loop && !dyn && ni < minTraceInstrs {
		return nil
	}
	// The synthetic tail settles, commits the whole pass and links to
	// exitPC.
	b.items = append(b.items, ritem{kind: tEnd, imm2: int32(ni) << 16, rx: uint32(exitPC)})
	cp := &closProg{
		items:      make([]ritem, len(b.items)), // exact size: closures live as long as their image
		spans:      b.spans(),
		head:       entry,
		shift:      shift,
		passInstrs: int64(ni),
		taken:      c.TakenBranch,
		mul:        c.Mul,
		div:        c.Div,
		spill:      c.WindowSpill,
		memx:       c.MemExtra,
	}
	copy(cp.items, b.items)
	cp.finish()
	return cp
}

// badJumpFormat is the format of Step's fault text for a jmpl to dest
// outside the text.
func badJumpFormat(dest uint32) string {
	if dest < TextBase || dest&3 != 0 {
		return "indirect jump to bad address %#x"
	}
	return "indirect jump outside text %#x"
}

// opWidth reports how many instructions (and ifetches, from the item's own
// on) an item of kind op with immediate imm retires: a padding-nop run's
// width, which its imm carries, or topWidth.
func opWidth(op topOp, imm int32) int32 {
	if op == tNop && imm > 1 {
		return imm
	}
	return topWidth(op)
}

// lineEnd returns the text index just past index i's I-line under shift.
func lineEnd(i int32, shift uint32) int32 {
	ia := TextBase + uint32(i)*4
	return i + int32(((ia>>shift+1)<<shift-ia)>>2)
}

// topWidth reports how many instructions (and ifetches, at the item's own
// address and +4) an item of a fixed-shape kind retires: 1 or 2.
func topWidth(op topOp) int32 {
	switch op {
	case tSet2, tCmpBr, tCmpBrT, tCmpBrLoop,
		tLdSll, tLdOr, tLdCmp, tSllAdd, tAddLd, tOrLd,
		tLdLd, tLdSt, tAddSt, tSubSt, tOrAdd, tOrSub:
		return 2
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

// buildUops decodes text into its block index, reusing buf's capacity when
// possible, and numbers its block heads. It is the single decode pass
// shared by LoadText (private text) and BuildImage (shared image): for
// every index i, the entry holds the predecoded µop, the straight-line run
// length starting at i (see blocks.go), and its closure slot number when i
// is a head, -1 otherwise. Heads are numbered densely in text order;
// heads is how many there are.
func buildUops(text []sparc.Instr, buf []uop, entry int32) (uops []uop, heads int32) {
	n := len(text)
	if cap(buf) < n {
		buf = make([]uop, n)
	}
	buf = buf[:n]
	next := int16(0) // bl of index i+1
	for i := n - 1; i >= 0; i-- {
		u, ok := decodeUop(&text[i])
		next = runLen(int32(i), ok, next)
		u.bl = next
		u.slot = -1
		buf[i] = u
	}
	mark := func(i int32) {
		if uint32(i) < uint32(n) {
			buf[i].slot = 0
		}
	}
	mark(entry)
	for i := 0; i < n; i += maxBlockLen {
		mark(int32(i)) // index 0 and every multiple of maxBlockLen
	}
	for i := range text {
		for _, h := range createdHeads(text, buf, int32(i)) {
			mark(h)
		}
	}
	for i := range buf {
		if buf[i].slot >= 0 {
			buf[i].slot = heads
			heads++
		}
	}
	return buf, heads
}

// createdHeads returns the block heads instruction i of text creates, -1
// where there is none: its target if it branches or calls, and its
// successor (fall-through or jmpl return) if it ends a block. A trace is
// compiled at every head on first entry; with the entry point and the
// multiples of maxBlockLen (index 0 among them), these are all of them.
func createdHeads(text []sparc.Instr, uops []uop, i int32) [2]int32 {
	h := [2]int32{-1, -1}
	switch text[i].Op {
	case sparc.Br, sparc.Call:
		h[0] = text[i].Target
	}
	if uops[i].bl == 0 {
		h[1] = i + 1
	}
	return h
}
