// Dispatcher and block index.
//
// LoadText and BuildImage decode the text into a block index (buildUops,
// trace.go): for every text index i, uops[i] is text[i] predecoded, and
// uops[i].bl is the number of consecutive STRAIGHT-LINE instructions
// starting at i — instructions that cannot branch, trap, halt, touch a
// double word, or grow/shrink the register-window stack. No block crosses a
// text index that is a multiple of maxBlockLen: a run ends just before one,
// and the index is a block head. The heads — the entry point, index 0, every
// branch or call target, every successor of an instruction that ends a
// block, and every multiple of maxBlockLen — each own a closure slot.
//
// Run has two engines under it. dispatch, below, enters the compiled
// closure (closure.go) published at a head, compiling a straight-line
// head's trace (trace.go) on its first entry, and closures link on to the
// next head's without returning to it. Every instruction it has no closure
// for — a non-head, a declined head, a terminator head nothing has linked
// to yet, a head whose full pass exceeds the remaining budget, ta, unimp
// and the double words — goes through run to Step, the reference
// semantics, one instruction at a time. The aligned heads bound the
// straight-line code Step can be left with: a trace the maxBlockLen bound
// stops ends at a head, where the next closure links on.
//
// Runtime code patching (Kessler-style fast breakpoints, the paper's
// PreMonitor/PostMonitor flow) may rewrite text at any trap boundary — the
// same self-modifying-code hazard treated in "Instrumenting self-modifying
// code". The invariant: ALL text mutation goes through PatchInstr, which
// re-decodes the patched micro-op and repairs the block index for the
// (bounded) straight-line run ending at the patched index. A patch that a
// StoreHook makes while a closure executes is caught by a text generation
// counter checked after the hooked store; the closure then exits cleanly
// and the dispatcher re-dispatches against the fresh index.
package machine

import (
	"math"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// scratchReg is the extra register-file slot that absorbs writes whose
// architectural destination is %g0. Mapping rd==%g0 to this slot at decode
// time removes the "is it %g0" branch from every compiled ALU/load write;
// the slot is never read.
const scratchReg = 32

// maxBlockLen bounds blocks and traces: no block crosses a multiple of it,
// and no trace retires more than it in one pass. It bounds both the
// backward re-scan a PatchInstr triggers and the straight-line code Step
// runs between heads, even for pathological branch-free programs. Real
// workload blocks are far shorter.
const maxBlockLen = 1024

// noLine is the "no instruction line known resident" sentinel for the
// known-hit ifetch fast path; no 32-bit address shifts to it.
const noLine = ^uint32(0)

// uop is one predecoded instruction plus its block-index entry. Operand 2 is
// unified: value = regs[s2r] + s2i, where the decoder sets s2r=%g0 (always
// zero) for the immediate form and s2i=0 for the register form. For Sethi,
// s2i holds the already-shifted constant. The trace builder reads the
// operands of straight-line µops and of jmpl; other terminators keep only
// their op. bl and slot co-locate the block length and the head's closure
// slot with the operands so a dispatch touches one cache line, not three
// arrays; the struct stays 16 bytes.
type uop struct {
	op  sparc.Op
	rd  uint8 // destination index; scratchReg when the target is %g0
	rs1 uint8
	s2r uint8
	s2i int32  // operand-2 immediate
	cnt uint16 // event counter index+1; 0 means none (sparc.Instr.Count)
	bl  int16  // straight-line run starting here; 0 marks a terminator
	// slot is the closure slot of a block head (Machine.traces), or -1
	// when the instruction is not a head. buildUops numbers the heads in
	// text order; a head a patch creates takes the next number.
	slot int32
}

// Condition codes are kept packed in Machine.ccb using these bits, which
// double as the condMask bit index.
const (
	ccN = 8
	ccZ = 4
	ccV = 2
	ccC = 1
)

// condMask[c] has bit b set iff Cond(c) holds under the CC whose packed form
// is b; one table lookup replaces a 16-way Eval switch on the hot branch
// path. Filled from Cond.Eval itself so the two can never disagree.
var condMask [16]uint16

func init() {
	for c := range condMask {
		for b := 0; b < 16; b++ {
			if sparc.Cond(c).Eval(ccFromBits(uint8(b))) {
				condMask[c] |= 1 << b
			}
		}
	}
}

// ccFromBits rebuilds the architectural CC view from the packed form.
func ccFromBits(b uint8) sparc.CC {
	return sparc.CC{N: b&ccN != 0, Z: b&ccZ != 0, V: b&ccV != 0, C: b&ccC != 0}
}

// runLen is the block length at index i when instruction i decodes as
// straight-line (ok) and next is the block length at i+1: a run never
// continues into a multiple of maxBlockLen.
func runLen(i int32, ok bool, next int16) int16 {
	switch {
	case !ok:
		return 0
	case (i+1)%maxBlockLen == 0:
		return 1
	}
	return next + 1
}

// invalidateBlock re-decodes the patched index and repairs the block index
// for the straight-line run ending there. uops[i].bl > 0 is exactly "index
// i is straight-line", so the backward walk can stop at the first
// unchanged entry, or at the end of an aligned block: everything earlier is
// unchanged too. The walk is bounded by maxBlockLen.
func (m *Machine) invalidateBlock(idx int32) {
	u, ok := decodeUop(&m.text[idx])
	next := int16(0)
	if int(idx)+1 < len(m.uops) {
		next = m.uops[idx+1].bl
	}
	nl := runLen(idx, ok, next)
	old := m.uops[idx].bl
	u.bl = nl
	u.slot = m.uops[idx].slot
	m.uops[idx] = u
	// Same length means (because length>0 ⇔ straight-line) same class, and
	// no earlier entry can change. The generation bumps either way: the
	// OPERANDS may differ, and an in-flight closure must exit rather than
	// keep running on a stale snapshot.
	for i := idx - 1; nl != old && i >= 0 && (i+1)%maxBlockLen != 0 && m.uops[i].bl != 0; i-- {
		old = m.uops[i].bl
		nl++
		m.uops[i].bl = nl
	}
	m.textGen++
}

// dispatch enters compiled closures at block heads until it reaches an
// instruction it has no closure for, and returns there with state
// committed, so run can Step it: pc left the text or is no head, the head
// was declined, a terminator head has no closure yet (only a trace link
// compiles one), or a full pass does not fit the MaxInstrs budget. It also
// returns when the budget is exhausted or a stop is requested
// (RequestStop). A straight-line head compiles on its first entry here.
//
// curILine/curDLine implement the known-hit fast path for the cache model:
// once a fetch (respectively data access) has touched a line, later accesses
// to the same line are guaranteed hits — and skip the tag probe — until an
// access that maps to the same direct-mapped slot could have evicted it.
// Both trackers are conservative: whenever residency cannot be proven a
// closure falls back to a full cache.Access, so hit/miss statistics and
// miss-penalty cycles stay exact either way (a hit never changes tag
// state), and Step, which always probes, needs none. They thread from one
// closure chain to the next with ihits, the batched statistics increments
// for the skipped ifetch probes, which are flushed before dispatch returns.
func (m *Machine) dispatch() error {
	imask := m.cache.IndexMask()
	curILine, curDLine := noLine, noLine
	var ihits uint64
	for m.instrs < m.MaxInstrs && m.stops.Load() == 0 {
		pc := m.pc
		if uint32(pc) >= uint32(len(m.uops)) || m.uops[pc].slot < 0 {
			break
		}
		head := &m.uops[pc]
		cp := m.traces[head.slot].Load()
		if cp == nil {
			if head.bl == 0 {
				break
			}
			m.compileHead(pc)
			continue
		}
		if !cp.fits(m.MaxInstrs - m.instrs) {
			break
		}
		var err error
		curILine, curDLine, ihits, err = m.execClosures(cp, imask, curILine, curDLine, ihits)
		if err != nil {
			return err // the fault flushed the batch
		}
	}
	m.cache.NoteHits(cache.IFetch, ihits)
	return nil
}

// decodeUop predecodes in. ok reports whether the instruction is
// straight-line (a block interior); terminators, double words and encodings
// that must fault return ok=false. It sits below dispatch because the
// functions laid out ahead of the dispatch loops set their address mod 64,
// which moves host speed (EXPERIMENTS.md, "One compiled tier").
func decodeUop(in *sparc.Instr) (u uop, ok bool) {
	if uint32(in.Count) > math.MaxUint16 {
		// The counter index does not fit cnt: Step alone executes it (the
		// trace builder treats an Unimp µop as Step-only).
		return uop{op: sparc.Unimp}, false
	}
	switch in.Op {
	case sparc.Nop, sparc.Ld, sparc.St,
		sparc.Add, sparc.Sub, sparc.And, sparc.Andn, sparc.Or, sparc.Orn,
		sparc.Xor, sparc.Xnor, sparc.Sll, sparc.Srl, sparc.Sra,
		sparc.SMul, sparc.SDiv,
		sparc.Addcc, sparc.Subcc, sparc.Andcc, sparc.Andncc,
		sparc.Orcc, sparc.Xorcc, sparc.Sethi:
		ok = true
	case sparc.Jmpl:
		// A terminator whose operands the trace builder reads.
	default:
		return uop{op: in.Op}, false // Br/Call/Save/Restore/Ldd/Std/Ta/Unimp/unknown
	}
	u = uop{op: in.Op, rd: uint8(in.Rd), rs1: uint8(in.Rs1), cnt: uint16(in.Count)}
	if in.UseImm {
		u.s2r = uint8(sparc.G0)
		u.s2i = in.Imm
	} else {
		u.s2r = uint8(in.Rs2)
	}
	if in.Op == sparc.Sethi {
		u.s2i = in.Imm << 10
	}
	if in.Rd == sparc.G0 && in.Op != sparc.St {
		u.rd = scratchReg // a store's rd is a source: keep the architectural index
	}
	return u, ok
}
