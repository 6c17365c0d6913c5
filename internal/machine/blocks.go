// Block-dispatch execution engine.
//
// Run() no longer pays the full Step() entry cost — halted check, pc bounds
// check, MaxInstrs check, indirect call, pc writeback — once per simulated
// instruction. Instead LoadText scans the decoded text into a block index:
// for every text index i, blockLen[i] is the number of consecutive
// STRAIGHT-LINE instructions starting at i (instructions that cannot branch,
// trap, halt, or grow/shrink the register-window stack). Run dispatches one
// block at a time: a single bounds/halted check, an amortized MaxInstrs
// budget, the Base (and PerInstrPenalty) cycle contribution folded into one
// multiply per block, and a tight inner loop over predecoded micro-ops.
// Fault-free terminators (branches and calls) chain inside the engine;
// everything else — jmpl, save/restore, traps, unimp — runs through the
// unchanged Step path, one per block.
//
// Everything data-dependent still happens per instruction, in program order,
// so simulated cycles, cache statistics, and event counters stay
// bit-identical to the single-Step engine (DESIGN.md §6): window spills
// never occur inside a block, and StoreHook and counter effects fire exactly
// where Step would fire them. Cache accesses stay exact too, but both
// instruction fetches and data accesses use a known-hit fast path: an access
// to the same line as the previous access of its kind skips the tag probe
// when no intervening access could have evicted the line (cache.NoteHits
// keeps the statistics identical); whenever residency cannot be proven the
// engine falls back to a full cache.Access, so the fast path is
// conservative, never wrong.
//
// Runtime code patching (Kessler-style fast breakpoints, the paper's
// PreMonitor/PostMonitor flow) may rewrite text at any trap boundary — the
// same self-modifying-code hazard treated in "Instrumenting self-modifying
// code". The invariant: ALL text mutation goes through PatchInstr, which
// re-decodes the patched micro-op and recomputes the block index for the
// (bounded) straight-line run ending at the patched index. A patch that
// lands inside the currently executing block is caught by a text generation
// counter checked on the only re-entrant paths a block interior has
// (StoreHook and LoadHook); the block then exits cleanly and re-dispatches
// against the fresh index.
package machine

import (
	"encoding/binary"
	"math"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// scratchReg is the extra register-file slot that absorbs writes whose
// architectural destination is %g0. Mapping rd==%g0 to this slot at decode
// time removes the "is it %g0" branch from every ALU/load write in the block
// interior; the slot is never read.
const scratchReg = 32

// maxBlockLen caps blockLen so both the MaxInstrs clamp granularity and the
// backward re-scan a PatchInstr triggers are bounded, even for pathological
// branch-free programs. Real workload blocks are far shorter.
const maxBlockLen = 1024

// noLine is the "no instruction line known resident" sentinel for the
// known-hit ifetch fast path; no 32-bit address shifts to it.
const noLine = ^uint32(0)

// uop is one predecoded instruction plus its block-index entry. Operand 2 is
// unified: value = regs[s2r] + s2i, where the decoder sets s2r=%g0 (always
// zero) for the immediate form and s2i=0 for the register form — no UseImm
// branch in the hot loop. For Sethi, s2i holds the already-shifted constant.
// The fault-free terminators the dispatcher chains inline are predecoded
// too: for Br, rd holds the condition and s2i the target index; for Call,
// s2i holds the target. bl and slot co-locate the block length and the
// head's closure slot with the first micro-op's operands so a dispatch
// touches one cache line, not three arrays; the struct stays 16 bytes.
type uop struct {
	op  sparc.Op
	rd  uint8 // destination index; scratchReg when the target is %g0; Cond for Br
	rs1 uint8
	s2r uint8
	s2i int32  // operand-2 immediate; branch target index for Br/Call
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

// opCount is or-ed into an interior uop's op when the instruction carries an
// event counter (sparc.Instr.Count). The hot loop's switch falls to default
// for such ops, bumps the counter, strips the flag, and re-dispatches — so
// instructions without counters (the vast majority) pay no per-instruction
// counter check at all.
const opCount sparc.Op = 0x80

// invalidateBlock re-decodes the patched index and repairs the block index
// for the straight-line run ending there. uops[i].bl > 0 is exactly "index
// i is straight-line", so the backward walk can stop at the first
// unchanged entry: everything earlier is unchanged too. The walk is bounded
// by maxBlockLen.
func (m *Machine) invalidateBlock(idx int32) {
	u, ok := decodeUop(&m.text[idx])
	next := int16(0)
	if int(idx)+1 < len(m.uops) {
		next = m.uops[idx+1].bl
	}
	nl := int16(0)
	if ok {
		nl = min(next+1, maxBlockLen)
	}
	old := m.uops[idx].bl
	u.bl = nl
	u.slot = m.uops[idx].slot
	m.uops[idx] = u
	if nl == old {
		// Same length and (because length>0 ⇔ straight-line) same class;
		// the decoded uop above is already refreshed, and no earlier entry
		// can change. Still bump the generation: the OPERANDS may differ,
		// and an in-flight block must re-dispatch rather than keep running
		// on a stale snapshot.
		m.textGen++
		return
	}
	next = nl
	for i := idx - 1; i >= 0; i-- {
		if m.uops[i].bl == 0 {
			break // non-straight-line: runs further up are unaffected
		}
		nl = min(next+1, maxBlockLen)
		if nl == m.uops[i].bl {
			break
		}
		m.uops[i].bl = nl
		next = nl
	}
	m.textGen++
}

// execBlocks is the block-dispatch engine proper. It executes straight-line
// blocks in a tight predecoded loop, enters compiled closures at block heads
// under EngineClosure, and chains through the fault-free terminators (Br,
// Call, a well-formed Jmpl) without leaving the function, so a whole loop
// iteration of the simulated program typically costs one dispatch. It
// returns nil (with state committed) when it needs run to act: the
// MaxInstrs budget is exhausted, a stop is requested (RequestStop), pc left
// the text, or the next instruction is a terminator only Step handles (a
// faulting jmpl, save/restore, traps, unimp).
//
// Cycle accounting matches Step exactly: the per-instruction
// Base+PerInstrPenalty contribution is folded into one multiply per block,
// and a fault charges the faulting instruction's base cost but nothing past
// the point Step would have charged.
//
// curILine/curDLine implement the known-hit fast path for the cache model:
// once a fetch (respectively data access) has touched a line, later accesses
// to the same line are guaranteed hits — and skip the tag probe — until an
// access that maps to the same direct-mapped slot could have evicted it.
// Both trackers are conservative: whenever residency cannot be proven the
// engine falls back to a full cache.Access, so hit/miss statistics and
// miss-penalty cycles stay exact either way (a hit never changes tag state).
// ihits batches the statistics increments for the skipped ifetch probes;
// they are flushed at every exit and before any callback that could observe
// the machine.
func (m *Machine) execBlocks() error {
	base := m.costs.Base + m.PerInstrPenalty
	// Cache geometry, hoisted so the per-instruction line arithmetic does
	// not re-read through the cache pointer.
	shift := m.cache.LineShift()
	imask := m.cache.IndexMask()
	curILine := noLine
	curDLine := noLine
	var ihits uint64
dispatch:
	for {
		if m.instrs >= m.MaxInstrs {
			m.cache.NoteHits(cache.IFetch, ihits)
			return nil // run reports the budget error with this pc
		}
		if m.stops.Load() != 0 {
			m.cache.NoteHits(cache.IFetch, ihits)
			return nil // RunFor stops here; Run takes one Step
		}
		pc := m.pc
		if uint32(pc) >= uint32(len(m.uops)) {
			m.cache.NoteHits(cache.IFetch, ihits)
			return nil // run raises the out-of-text fault
		}
		head := &m.uops[pc]
		n := int64(head.bl)
		// Compiled tier (closure.go): m.traces is non-nil exactly when the
		// closure engine is active, so the whole tier costs one nil check
		// under EngineBlock. A head's closure is entered only when a full
		// pass fits in the remaining budget; a declined head's sentinel
		// never fits. Only a straight-line head compiles on first entry and
		// re-dispatches to enter it. A terminator head compiles as a link
		// target, and a chain that returns there (at the chain cap, or at a
		// link that did not fit the budget) is re-entered there.
		if ts := m.traces; ts != nil && head.slot >= 0 {
			if cp := ts[head.slot].Load(); cp != nil {
				if cp.fits(m.MaxInstrs - m.instrs) {
					var err error
					curILine, curDLine, ihits, err = m.execClosures(cp, imask, curILine, curDLine, ihits)
					if err != nil {
						return err
					}
					continue
				}
			} else if n > 0 {
				m.compileHead(pc)
				continue
			}
		}
		if n == 0 {
			// Terminator. Br, Call, and a well-formed Jmpl cannot fault or
			// halt: dispatch them here (from the predecoded fields) and keep
			// chaining. Everything else — save/restore, traps, unimp, and a
			// Jmpl that must fault — goes through Step. The Jmpl fast path
			// validates its target BEFORE committing any state, so bailing
			// to Step replays the instruction exactly.
			next := pc + 1
			switch head.op {
			case sparc.Br:
				taken := condMask[head.rd]>>uint32(m.ccb)&1 != 0
				if taken {
					m.cycles += m.costs.TakenBranch
					next = head.s2i
				}
			case sparc.Call:
				m.regs[sparc.O7] = int32(TextBase) + (pc+1)*4
				m.cycles += m.costs.TakenBranch
				next = head.s2i
			case sparc.Jmpl:
				dest := uint32(m.regs[head.rs1] + m.regs[head.s2r] + head.s2i)
				idx := int32((dest - TextBase) / 4)
				if dest < TextBase || dest&3 != 0 || int(idx) >= len(m.uops) {
					m.cache.NoteHits(cache.IFetch, ihits)
					return nil // Step replays and raises the fault
				}
				m.regs[head.rd] = int32(TextBase) + (pc+1)*4
				m.cycles += m.costs.TakenBranch
				next = idx
			default:
				m.cache.NoteHits(cache.IFetch, ihits)
				return nil
			}
			m.instrs++
			m.cycles += base
			iaddr := TextBase + uint32(pc)*4
			if line := iaddr >> shift; line == curILine {
				ihits++
			} else {
				if !m.cache.Access(iaddr, cache.IFetch) {
					m.cycles += m.costs.MissPenalty
				}
				if (line^curDLine)&imask == 0 {
					curDLine = noLine
				}
				curILine = line
			}
			if head.cnt != 0 {
				m.Counters[head.cnt-1]++
			}
			m.pc = next
			continue
		}
		// Clamp to the MaxInstrs budget; the instrs check above guarantees
		// at least one instruction of headroom, and straight-line
		// instructions cannot halt or branch, so a truncated block resumes
		// exactly where it stopped.
		if rem := m.MaxInstrs - m.instrs; n > rem {
			n = rem
		}
		blk := m.uops[pc : pc+int32(n)]
		gen := m.textGen
		var cyc int64
		k := 0
		for k < len(blk) {
			// One ifetch probe per instruction-cache line: block instructions
			// are contiguous, so every fetch until the next line boundary is
			// a guaranteed hit while the line stays resident. The hits are
			// credited up front (ihits) and debited exactly at every point
			// that cuts the run short — a possible eviction by a data access,
			// a StoreHook, or a fault — so statistics stay bit-identical to
			// one Access per fetch.
			iaddr := TextBase + uint32(pc+int32(k))*4
			if line := iaddr >> shift; line != curILine {
				if !m.cache.Access(iaddr, cache.IFetch) {
					cyc += m.costs.MissPenalty
				}
				if (line^curDLine)&imask == 0 {
					curDLine = noLine
				}
				curILine = line
				ihits-- // the probe above already counted this fetch
			}
			end := k + int((((curILine+1)<<shift)-iaddr)>>2)
			if end > len(blk) {
				end = len(blk)
			}
			ihits += uint64(end - k)
			for ; k < end; k++ {
				u := &blk[k]
				op := u.op
			redo:
				switch op {
				case sparc.Nop:
				// nothing

				case sparc.Ld:
					ea := uint32(m.regs[u.rs1] + m.regs[u.s2r] + u.s2i)
					if ea&3 != 0 {
						return m.blockFault(pc, k, cyc, base, ihits-uint64(end-k-1), "unaligned load at %#x", ea)
					}
					hooked := m.LoadHook != nil
					if hooked {
						// Same contract as StoreHook below: debit the prepaid
						// ifetch hits, flush the earned ones, and end the chunk
						// so a hook that patches or invalidates is safe.
						ihits -= uint64(end - k - 1)
						end = k + 1
						m.cache.NoteHits(cache.IFetch, ihits)
						ihits = 0
						cyc += m.LoadHook(ea, 4)
						curILine = noLine
						curDLine = noLine
					}
					cyc += m.costs.MemExtra
					if line := ea >> shift; line == curDLine {
						m.cache.NoteHits(cache.DRead, 1)
					} else {
						if !m.cache.Access(ea, cache.DRead) {
							cyc += m.costs.MissPenalty
						}
						if (line^curILine)&imask == 0 {
							curILine = noLine
							ihits -= uint64(end - k - 1)
							end = k + 1
						}
						curDLine = line
					}
					p := m.page(ea)
					// ea&3 == 0, so masking with PageBytes-4 equals
					// PageBytes-1 and proves o+4 <= PageBytes (no bounds
					// check on the 4-byte load).
					o := ea & (PageBytes - 4)
					m.regs[u.rd] = int32(binary.BigEndian.Uint32(p[o : o+4]))
					if hooked && m.textGen != gen {
						m.instrs += int64(k) + 1
						m.cycles += cyc + base*(int64(k)+1)
						m.pc = pc + int32(k) + 1
						continue dispatch
					}

				case sparc.Ldd:
					ea := uint32(m.regs[u.rs1] + m.regs[u.s2r] + u.s2i)
					if ea&7 != 0 {
						return m.blockFault(pc, k, cyc, base, ihits-uint64(end-k-1), "unaligned ldd at %#x", ea)
					}
					hooked := m.LoadHook != nil
					if hooked {
						ihits -= uint64(end - k - 1)
						end = k + 1
						m.cache.NoteHits(cache.IFetch, ihits)
						ihits = 0
						cyc += m.LoadHook(ea, 8)
						curILine = noLine
						curDLine = noLine
					}
					cyc += m.costs.MemExtra
					if line := ea >> shift; line == curDLine {
						m.cache.NoteHits(cache.DRead, 1)
					} else {
						if !m.cache.Access(ea, cache.DRead) {
							cyc += m.costs.MissPenalty
						}
						if (line^curILine)&imask == 0 {
							curILine = noLine
							ihits -= uint64(end - k - 1)
							end = k + 1
						}
						curDLine = line
					}
					cyc += m.costs.MemExtra // second word (see dataAccess2)
					if line2 := (ea + 4) >> shift; line2 != curDLine {
						// Lines narrower than a doubleword: the second word
						// has its own line and is probed like any access.
						if !m.cache.Access(ea+4, cache.DRead) {
							cyc += m.costs.MissPenalty
						}
						if (line2^curILine)&imask == 0 {
							curILine = noLine
							ihits -= uint64(end - k - 1)
							end = k + 1
						}
						curDLine = line2
					}
					m.regs[u.rd] = m.ReadWord(ea)
					m.regs[u.rd+1] = m.ReadWord(ea + 4)
					if hooked && m.textGen != gen {
						m.instrs += int64(k) + 1
						m.cycles += cyc + base*(int64(k)+1)
						m.pc = pc + int32(k) + 1
						continue dispatch
					}

				case sparc.St:
					ea := uint32(m.regs[u.rs1] + m.regs[u.s2r] + u.s2i)
					if ea&3 != 0 {
						return m.blockFault(pc, k, cyc, base, ihits-uint64(end-k-1), "unaligned store at %#x", ea)
					}
					hooked := m.StoreHook != nil
					if hooked {
						// Debit the not-yet-earned prepaid hits, then flush
						// the earned ones so a hook that inspects the machine
						// sees exact counts; it may also invalidate any cache
						// line, so the chunk ends here.
						ihits -= uint64(end - k - 1)
						end = k + 1
						m.cache.NoteHits(cache.IFetch, ihits)
						ihits = 0
						cyc += m.StoreHook(ea, 4)
						curILine = noLine
						curDLine = noLine
					}
					cyc += m.costs.MemExtra
					if line := ea >> shift; line == curDLine {
						m.cache.NoteHits(cache.DWrite, 1)
					} else {
						if !m.cache.Access(ea, cache.DWrite) {
							cyc += m.costs.MissPenalty
						}
						if (line^curILine)&imask == 0 {
							curILine = noLine
							ihits -= uint64(end - k - 1)
							end = k + 1
						}
						curDLine = line
					}
					p := m.page(ea)
					o := ea & (PageBytes - 4)
					binary.BigEndian.PutUint32(p[o:o+4], uint32(m.regs[u.rd]))
					if hooked && m.textGen != gen {
						// The hook patched text under us: finish this
						// instruction (done) and re-dispatch against the fresh
						// block index. Only a hook can patch from inside a
						// block, so the check is skipped when none ran.
						m.instrs += int64(k) + 1
						m.cycles += cyc + base*(int64(k)+1)
						m.pc = pc + int32(k) + 1
						continue dispatch
					}

				case sparc.Std:
					ea := uint32(m.regs[u.rs1] + m.regs[u.s2r] + u.s2i)
					if ea&7 != 0 {
						return m.blockFault(pc, k, cyc, base, ihits-uint64(end-k-1), "unaligned std at %#x", ea)
					}
					hooked := m.StoreHook != nil
					if hooked {
						ihits -= uint64(end - k - 1)
						end = k + 1
						m.cache.NoteHits(cache.IFetch, ihits)
						ihits = 0
						cyc += m.StoreHook(ea, 8)
						curILine = noLine
						curDLine = noLine
					}
					cyc += m.costs.MemExtra
					if line := ea >> shift; line == curDLine {
						m.cache.NoteHits(cache.DWrite, 1)
					} else {
						if !m.cache.Access(ea, cache.DWrite) {
							cyc += m.costs.MissPenalty
						}
						if (line^curILine)&imask == 0 {
							curILine = noLine
							ihits -= uint64(end - k - 1)
							end = k + 1
						}
						curDLine = line
					}
					cyc += m.costs.MemExtra // second word (see dataAccess2)
					if line2 := (ea + 4) >> shift; line2 != curDLine {
						if !m.cache.Access(ea+4, cache.DWrite) {
							cyc += m.costs.MissPenalty
						}
						if (line2^curILine)&imask == 0 {
							curILine = noLine
							ihits -= uint64(end - k - 1)
							end = k + 1
						}
						curDLine = line2
					}
					m.storeWord(ea, m.regs[u.rd])
					m.storeWord(ea+4, m.regs[u.rd+1])
					if hooked && m.textGen != gen {
						m.instrs += int64(k) + 1
						m.cycles += cyc + base*(int64(k)+1)
						m.pc = pc + int32(k) + 1
						continue dispatch
					}

				case sparc.Add:
					m.regs[u.rd] = m.regs[u.rs1] + m.regs[u.s2r] + u.s2i
				case sparc.Sub:
					m.regs[u.rd] = m.regs[u.rs1] - (m.regs[u.s2r] + u.s2i)
				case sparc.And:
					m.regs[u.rd] = m.regs[u.rs1] & (m.regs[u.s2r] + u.s2i)
				case sparc.Andn:
					m.regs[u.rd] = m.regs[u.rs1] &^ (m.regs[u.s2r] + u.s2i)
				case sparc.Or:
					m.regs[u.rd] = m.regs[u.rs1] | (m.regs[u.s2r] + u.s2i)
				case sparc.Orn:
					m.regs[u.rd] = m.regs[u.rs1] | ^(m.regs[u.s2r] + u.s2i)
				case sparc.Xor:
					m.regs[u.rd] = m.regs[u.rs1] ^ (m.regs[u.s2r] + u.s2i)
				case sparc.Xnor:
					m.regs[u.rd] = ^(m.regs[u.rs1] ^ (m.regs[u.s2r] + u.s2i))
				case sparc.Sll:
					m.regs[u.rd] = m.regs[u.rs1] << (uint32(m.regs[u.s2r]+u.s2i) & 31)
				case sparc.Srl:
					m.regs[u.rd] = int32(uint32(m.regs[u.rs1]) >> (uint32(m.regs[u.s2r]+u.s2i) & 31))
				case sparc.Sra:
					m.regs[u.rd] = m.regs[u.rs1] >> (uint32(m.regs[u.s2r]+u.s2i) & 31)
				case sparc.SMul:
					cyc += m.costs.Mul
					m.regs[u.rd] = m.regs[u.rs1] * (m.regs[u.s2r] + u.s2i)
				case sparc.SDiv:
					cyc += m.costs.Div // charged before the zero check, as in Step
					d := m.regs[u.s2r] + u.s2i
					if d == 0 {
						return m.blockFault(pc, k, cyc, base, ihits-uint64(end-k-1), "division by zero")
					}
					m.regs[u.rd] = m.regs[u.rs1] / d

				case sparc.Addcc:
					a, b := m.regs[u.rs1], m.regs[u.s2r]+u.s2i
					r := a + b
					m.setCCAdd(a, b, r)
					m.regs[u.rd] = r
				case sparc.Subcc:
					a, b := m.regs[u.rs1], m.regs[u.s2r]+u.s2i
					r := a - b
					m.setCCSub(a, b, r)
					m.regs[u.rd] = r
				case sparc.Andcc:
					r := m.regs[u.rs1] & (m.regs[u.s2r] + u.s2i)
					m.setCCLogic(r)
					m.regs[u.rd] = r
				case sparc.Andncc:
					r := m.regs[u.rs1] &^ (m.regs[u.s2r] + u.s2i)
					m.setCCLogic(r)
					m.regs[u.rd] = r
				case sparc.Orcc:
					r := m.regs[u.rs1] | (m.regs[u.s2r] + u.s2i)
					m.setCCLogic(r)
					m.regs[u.rd] = r
				case sparc.Xorcc:
					r := m.regs[u.rs1] ^ (m.regs[u.s2r] + u.s2i)
					m.setCCLogic(r)
					m.regs[u.rd] = r

				case sparc.Sethi:
					m.regs[u.rd] = u.s2i

				default:
					// Only counted interior ops land here (decodeUop admits
					// nothing else): bump the event counter, strip the flag,
					// and dispatch the underlying op.
					m.Counters[u.cnt-1]++
					op &^= opCount
					goto redo
				}
			}
		}
		m.instrs += n
		m.cycles += cyc + base*n
		m.pc = pc + int32(n)
	}
}

// blockFault commits the cycle/instruction/ifetch accounting for a fault at
// block offset k — the faulting instruction's base cost and ifetch are
// charged, exactly as Step charges them before its switch — and leaves pc
// on the faulting instruction.
func (m *Machine) blockFault(pc int32, k int, cyc, base int64, ihits uint64, format string, args ...any) error {
	m.cache.NoteHits(cache.IFetch, ihits)
	m.instrs += int64(k) + 1
	m.cycles += cyc + base*(int64(k)+1)
	m.pc = pc + int32(k)
	return m.fault(m.text[m.pc], format, args...)
}

// decodeUop predecodes in. ok reports whether the instruction is
// straight-line (block interior); terminators and malformed encodings that
// must fault return ok=false and execute via Step (or, for Br/Call, inline
// in the dispatcher from the predecoded fields). It sits below execBlocks
// because the functions laid out ahead of execBlocks set the hot loop's
// address mod 64, which moves host speed (EXPERIMENTS.md, "One compiled
// tier").
func decodeUop(in *sparc.Instr) (u uop, ok bool) {
	if uint32(in.Count) > math.MaxUint16 {
		// The counter index does not fit cnt: Step alone executes it (the
		// dispatcher and the trace builder treat an Unimp µop as Step-only).
		return uop{op: sparc.Unimp}, false
	}
	switch in.Op {
	case sparc.Nop, sparc.Ld, sparc.Ldd, sparc.St, sparc.Std,
		sparc.Add, sparc.Sub, sparc.And, sparc.Andn, sparc.Or, sparc.Orn,
		sparc.Xor, sparc.Xnor, sparc.Sll, sparc.Srl, sparc.Sra,
		sparc.SMul, sparc.SDiv,
		sparc.Addcc, sparc.Subcc, sparc.Andcc, sparc.Andncc,
		sparc.Orcc, sparc.Xorcc, sparc.Sethi:
	case sparc.Br:
		return uop{op: sparc.Br, rd: uint8(in.Cond & 15), s2i: in.Target, cnt: uint16(in.Count)}, false
	case sparc.Call:
		return uop{op: sparc.Call, s2i: in.Target, cnt: uint16(in.Count)}, false
	case sparc.Jmpl:
		u = uop{op: sparc.Jmpl, rd: uint8(in.Rd), rs1: uint8(in.Rs1), cnt: uint16(in.Count)}
		if in.UseImm {
			u.s2r = uint8(sparc.G0)
			u.s2i = in.Imm
		} else {
			u.s2r = uint8(in.Rs2)
		}
		if in.Rd == sparc.G0 {
			u.rd = scratchReg
		}
		return u, false
	default:
		return uop{op: in.Op}, false // Jmpl/Save/Restore/Ta/Unimp/unknown: Step only
	}
	u = uop{op: in.Op, rd: uint8(in.Rd), rs1: uint8(in.Rs1), cnt: uint16(in.Count)}
	if in.UseImm {
		u.s2r = uint8(sparc.G0)
		u.s2i = in.Imm
	} else {
		u.s2r = uint8(in.Rs2)
		u.s2i = 0
	}
	switch in.Op {
	case sparc.Sethi:
		u.s2i = in.Imm << 10
		if in.Rd == sparc.G0 {
			u.rd = scratchReg
		}
	case sparc.Ldd:
		// Odd rd must fault; rd==%g0 has the quirky "write %g1 only"
		// semantics writeReg gives it. Both go through Step.
		if in.Rd&1 != 0 || in.Rd == sparc.G0 {
			return uop{op: in.Op}, false
		}
	case sparc.Std:
		if in.Rd&1 != 0 {
			return uop{op: in.Op}, false
		}
	case sparc.St:
		// rd is a source; keep the architectural index.
	default:
		if in.Rd == sparc.G0 {
			u.rd = scratchReg
		}
	}
	if u.cnt != 0 {
		u.op |= opCount
	}
	return u, true
}
