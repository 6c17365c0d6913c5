// Closure-compiled (threaded-code) execution tier: the only compiled tier.
//
// The trace builder (trace.go) stitches superblocks, fuses pairs and
// triples, and marks the compile-time I-line boundaries. This file threads
// each trace it emits, at once, into ONE closure per trace (closProg),
// whose body is a loop over items that map 1:1 onto trace-ops but carry
// their accounting pre-resolved — the fetch check collapses to a two-bit
// dispatch code, known-hit fetches and static cycles collapse to per-batch
// prefix sums settled in one addition at each control op, the condition
// codes live in a closure-local byte, and counted ops become (rare)
// dedicated counter items so the hot dispatch never sees them. Control
// transfers are evaluated inline; the trace back-edge is a pointer reset,
// not a dispatch. Per-pass hot state (both line trackers, hit/cycle
// accumulators, the CC byte) stays in locals and spills to the shared cst
// only at trace exits, faults, and hook (StoreHook/LoadHook) boundaries.
// Trace-to-trace linking is a tail-dispatch: the exiting closure hands the
// trampoline (execClosures) the next trace's entry closure, compiling it on
// demand, so chained traces run without a block-dispatcher round-trip. The
// closure is all a machine or image keeps of a trace: its item stream, its
// pass length and the spans PatchInstr invalidates by.
//
// Measured dead ends worth recording, all on BenchmarkRunWorkload against
// the ~5.5-6ms/op of a plain interpreter over the trace-ops: one closure per
// µop — the classic threaded-code shape — lands at ~9.9ms (an indirect
// call, frame setup, and spilled hot state per op cost more than a
// predicted jump-table branch);
// one-closure-per-RUN with control ops as separate closures lands at ~10.1ms
// (at this workload's ~3.4-instruction runs it still pays an indirect call
// round-trip per handful of ops, and every closure boundary forces hot state
// through memory); and a first cut of the single-closure shape that exploded
// fused pairs into separate items and emitted explicit per-run fetch items
// lands at ~14.5ms — item count per retired instruction, not arithmetic, is
// what the loop's cost tracks, so the item stream must stay as dense as the
// trace-op stream it replaces.
//
// Two codegen hazards dominate the remaining tuning and are easy to
// reintroduce silently:
//
//  1. The inliner's big-function demotion. A function over the compiler's
//     node budget is "considered 'big'" (visible under -gcflags=-m=2) and
//     has its per-callee inlining budget cut to a fraction — at which point
//     cache.Access and the cc-bit packers become real calls inside the hot
//     loop, and with no callee-saved registers in the Go ABI each call
//     spills the loop's whole hoisted state. run() stays under the budget
//     by construction: cold case bodies live in noinline helpers (winPush/
//     winPop/hookTail/fault/stop/exitNext), the eight side-exit sites share
//     one `goto hop` tail, and exit-only accounting lookups hide inside the
//     noinline callees. Any edit that grows run() should re-check -m=2.
//  2. Item footprint. ritem is exactly 32 bytes — two per cache line, never
//     straddling — with control items' settle pair packed into their unused
//     imm2 and a memory item's exit-only prefix left out entirely: faults
//     and patch exits recompute it with one scan of the stream (exitPrefix).
//     The dispatch loop streams items, so bytes per item is a first-order
//     cost (the 48-byte predecessor measured ~3% slower end to end).
//
// Batched-fetch accounting, the part that needs a proof: after any fetch the
// I-line tracker is live, and only a data access that aliases the I-line (or
// a store hook) can kill it — both sites repair the tracker eagerly,
// performing the next precounted fetch's probe at the kill site (the
// intervening work touches no cache state, so the probe order matches
// Step's exactly; the repair target is precomputed, and a line-crossing
// or control fetch bounds the scan because those probe dynamically anyway).
// Every same-line (nl-clear) body fetch is therefore a guaranteed hit
// counted at compile time into per-item prefix sums (hb), settled with ONE
// addition at each control op and corrected by an `adj` register on the
// rare kill/hook paths. A control op's own fetch never precounts (it may
// exit the trace with the batch unsettled); it keeps the compile-time proof
// as a "tracker live => hit" fast path, and its probe re-establishes the
// tracker for the next batch.
//
// The proof obligation: simulated instruction counts, cycles, cache
// statistics, event counters, and fault points bit-identical to Step.
// Patch safety is spans + textGen (a hooked store or load that patches text
// exits at the access boundary), and COW privatization copies the image's
// closures into this machine's own slots, where invalidateTraces nils every
// closure whose spans cover a patch.
package machine

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"unsafe"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// cfn is one threaded closure: execute (up to) a whole trace, return the
// next trace's closure (nil to return control to the dispatcher — s.npc and
// s.err say why). The hot per-pass state — both line trackers, the batched
// ifetch hits, and the CC byte — threads THROUGH the trampoline as explicit
// arguments and results: under Go's register ABI it rides in registers
// across every trace-to-trace link, where an earlier cst-resident version
// paid a spill in every exit and a reload in every prologue (~30k hops per
// eqntott run made that the single largest line item in the profile).
type cfn func(m *Machine, curIL, curDL uint32, ihits uint64, ccb uint8) (cfn, uint32, uint32, uint64, uint8)

// closProg is the compiled closure form of one trace, and all that is kept
// of it: immutable once published, so an image's closures may be shared
// across machines and read while another machine invalidates its own slots.
type closProg struct {
	entry cfn
	items []ritem // compiled item stream, 1:1 with the trace's ops
	// spans are the trace's sorted, disjoint [lo,hi) consumed text-index
	// ranges; PatchInstr drops any closure whose span covers the patched
	// index.
	spans      [][2]int32
	head       int32  // trace entry text index
	shift      uint32 // I-line shift the fetch codes were compiled under
	passInstrs int64  // one full pass's simulated instructions
	// cost constants resolved at compile time, so run() never touches costs
	taken, mul, div, spill, memx int64
}

// chainCap is the most budget execClosures gives one closure chain,
// bounding how long a stop request waits. Every trace's pass is far shorter
// (the builder stops near maxBlockLen instructions), so a chain the
// dispatcher entered still fits its first pass.
const chainCap = 4096

// declined is the closure a head's slot holds once the trace builder
// declined the head: its pass never fits a budget (fits), so the dispatcher
// runs the head as a block and trace links return to the dispatcher, and
// no machine compiles the head again. It is never entered, and one sentinel
// serves every slot of every machine and image.
var declined = &closProg{passInstrs: -1}

// fits reports whether a full pass fits a remaining budget of rem
// instructions. The compare is unsigned so that the declined sentinel's
// passInstrs of -1 exceeds every budget.
func (cp *closProg) fits(rem int64) bool { return uint64(rem) >= uint64(cp.passInstrs) }

// covers reports whether text index idx is part of the trace.
func (cp *closProg) covers(idx int32) bool {
	for _, s := range cp.spans {
		if idx >= s[0] && idx < s[1] {
			return true
		}
	}
	return false
}

// size is the host memory one published closure holds — header, item stream
// and spans — as Image.TraceBytes counts it.
func (cp *closProg) size() int {
	return int(unsafe.Sizeof(closProg{})) +
		len(cp.items)*int(unsafe.Sizeof(ritem{})) +
		len(cp.spans)*int(unsafe.Sizeof([2]int32{}))
}

// cst is the spill area of one execClosures call (the Machine's reusable
// scratch, so dispatch never allocates). The register-threaded hot state
// never touches it; everything here is read/written only on slow paths,
// commits, and exits.
type cst struct {
	m      *Machine
	traces []atomic.Pointer[closProg] // the machine's slots (Machine.traces)
	uops   []uop                      // the machine's block index, naming each head's slot
	imask  uint32
	gen    uint32 // textGen at entry; a mismatch after a hooked store exits
	drh    uint64 // batched known-hit data reads
	dwh    uint64 // batched known-hit data writes
	base   int64  // costs.Base + PerInstrPenalty
	inst   int64  // instructions committed this call
	cycs   int64  // cycles committed this call
	rem    int64  // remaining MaxInstrs budget
	npc    int32  // exit pc handed back to the dispatcher
	err    error
}

// ritem is one trace-op with its accounting pre-resolved. The stream maps
// 1:1 onto the trace's ops (fused pairs stay fused — dispatch density is
// what the loop's cost tracks) except that counted ops are preceded by a
// synthetic cCount item, keeping the counter test off the hot path entirely.
//
// The struct is exactly 32 bytes — half a cache line, so a streamed item
// never straddles two lines — and holds only what the loop touches between
// settles. A control item packs its batch's settle pair into its unused
// imm2 (see finish); a memory item's exit-only pair, read only on faults and
// patch exits, is recomputed there (exitPrefix); and fetch addresses are
// derived from fpc (TextBase + fpc<<2) at probe sites.
type ritem struct {
	kind topOp
	// f bits 0-1 dispatch this item's first ifetch:
	//   0 = precounted into the batch (nl-clear body op: guaranteed hit);
	//   1 = fast two-way (nl-clear control op: tracker live => hit, else
	//       probe — never precounted because the op may exit the trace);
	//   2 = full two-way line compare (the trace's first op: tracker state
	//       at entry is dynamic);
	//   3 = unconditional probe (line-crossing: a live tracker holds the
	//       previous fetch's line, which a crossing line can never match).
	// f bit 2: the fused second fetch crosses a line (probe); clear on a
	// fused op means the second fetch is precounted (body) or a direct
	// guaranteed hit (compare-and-branch). f bit 3: same for a fused
	// triple's third fetch (iaddr+8).
	f    uint8
	rd   uint8 // destination (source for stores)
	rs1  uint8
	s2r  uint8 // operand-2 register (%g0 slot for immediate forms)
	rd2  uint8 // fused second half's operands
	rs1b uint8
	s2rb uint8
	// cm: control item — branch condition mask; ALU-chain triple — the third
	// slot's rd3|rs1c<<8 (triples are never control ops, so the field is free;
	// set2+memop triples carry their memop in the rd2 slots instead).
	cm uint16
	// hb: precounted fetches earned through this item's FIRST fetch since
	// the last settle (a fused op's second precounted fetch lands in the
	// next item's hb); on a control item, the full batch to settle.
	hb  uint16
	imm int32
	// imm2: fused second half's immediate. Control items have no second
	// immediate, so they carry their settle pair here instead:
	// bits 0-15 the batch's static-cycle total, bits 16-30 the pass
	// instructions retired through the op's first instr (niW). Read via
	// ctlCyc/ctlNi; both fit 15 bits because maxBlockLen caps a trace.
	imm2 int32
	// c3: ALU-chain triple — the third slot's s2rc | uint16(imm3)<<16 (the
	// immediate is a 13-bit SPARC field, so the int16 round-trips exactly).
	// Free elsewhere: the first fetch's line is derived from fpc at the
	// probe site, like every other fetch address.
	c3 uint32
	// rx: memory item — the ifetch ADDRESS of the next precounted
	// first-fetch after this item, for eager kill repair (0 = none; its
	// line is rx>>shift; a fused op's own second fetch is repaired in-case
	// from the derived ia+4); control item — the link-target TEXT INDEX of
	// the exiting path, reinterpreted as int32.
	rx  uint32
	fpc int32 // this instruction's text index (probe address / fault / exit)
}

// ctlCyc and ctlNi unpack a control item's settle pair from imm2.
func ctlCyc(it *ritem) int64 { return int64(it.imm2 & 0xffff) }
func ctlNi(it *ritem) int64  { return int64(it.imm2 >> 16) }

// cCount is the synthetic counter-bump item kind; imm is the counter index.
// Placed before its op — both effects are pure counters invisible until the
// next flush, where both have completed.
const cCount = topOpEnd

// chainKinds marks the item kinds runOutlined retires itself: the outlined
// triples/double-words it is entered for, plus the cheap singles and pairs
// that sit between triples in straight-line runs (the glue the builder could
// not fuse). The chain loop keeps a call alive while the next item is one of
// these, so one call typically covers a whole straight-line run.
var chainKinds = [cCount + 1]bool{
	tLdSllAdd: true, tSllAddLd: true, tOrLdSll: true, tAddLdSll: true,
	tLdAddLd: true, tOrOrOr: true, tSet2Ld: true, tSet2St: true,
	tLdAddSt: true, tLdSubSt: true, tLdOrSt: true,
	tStI: true, tSllAdd: true, tOrAdd: true, tOrSub: true,
	tSet2: true, tSet: true, tAdd: true, tAddI: true, tSub: true,
	tSubI: true, tOr: true, tOrI: true, tSll: true, tSllI: true,
	// tBA is control but never side-exits (stitched unconditional branch:
	// taken cost, keep walking), so it chains like a straight-line op.
	tBA: true,
}

// dataSlowV is a memory item's full-probe data access (the known-hit fast
// path inlines into the loop: a line compare and a local increment). It
// eagerly repairs the I-line tracker when the access aliases it: the next
// precounted fetch (address ria, line ria>>shift) is probed at the kill
// site — nothing between them touches cache state, so the probe order
// matches Step's exactly — and the returned conv (-1) records the
// hit-to-probe conversion for the next settle.
//
//go:noinline
func dataSlowV(m *Machine, ea uint32, kind cache.Kind, line, curIL, curDL, imask, ria, shift uint32) (uint32, uint32, int64, int64) {
	cyc, conv := int64(0), int64(0)
	if !m.cache.Access(ea, kind) {
		cyc = m.costs.MissPenalty
	}
	kill := curIL != noLine && (line^curIL)&imask == 0
	curDL = line
	if kill {
		curIL = noLine
		if ria != 0 {
			rline := ria >> shift
			if !m.cache.Access(ria, cache.IFetch) {
				cyc += m.costs.MissPenalty
			}
			if (rline^curDL)&imask == 0 {
				curDL = noLine
			}
			curIL = rline
			conv = -1
		}
	}
	return curIL, curDL, cyc, conv
}

// dataSlow2V is the doubleword straddle slow path: ea and ea+4 fall on
// different D-lines (only possible with lines narrower than 8 bytes — Ldd/Std
// enforce 8-byte alignment), so both words probe, in program order, one
// reference each (see dataAccess2). Any I-tracker kill defers its eager
// repair until AFTER the second word's probe: Step probes the next fetch
// only once both data words are done, and the repair must keep that
// cache-probe order to stay bit-identical.
//
//go:noinline
func dataSlow2V(m *Machine, ea uint32, kind cache.Kind, line, curIL, curDL, imask, ria, shift uint32) (uint32, uint32, int64, int64) {
	cyc, conv := int64(0), int64(0)
	kill := false
	if line == curDL {
		if kind == cache.DRead {
			m.cstate.drh++
		} else {
			m.cstate.dwh++
		}
	} else {
		if !m.cache.Access(ea, kind) {
			cyc = m.costs.MissPenalty
		}
		if curIL != noLine && (line^curIL)&imask == 0 {
			curIL = noLine
			kill = true
		}
		curDL = line
	}
	// The second word's line differs from the first's by construction, and
	// curDL now holds the first word's line, so this is always a probe.
	line2 := (ea + 4) >> shift
	if !m.cache.Access(ea+4, kind) {
		cyc += m.costs.MissPenalty
	}
	if curIL != noLine && (line2^curIL)&imask == 0 {
		curIL = noLine
		kill = true
	}
	curDL = line2
	if kill && ria != 0 {
		rline := ria >> shift
		if !m.cache.Access(ria, cache.IFetch) {
			cyc += m.costs.MissPenalty
		}
		if (rline^curDL)&imask == 0 {
			curDL = noLine
		}
		curIL = rline
		conv = -1
	}
	return curIL, curDL, cyc, conv
}

// exitNext is the cold tail of a trace side exit: commit n instructions and
// resolve the closure in the slot of the head at npc (compiling it on the
// head's first entry) when a full pass fits the remaining budget. The
// caller hops to the returned closure in-function — the whole point of the
// closure tier: a linked exit is a pointer swap and a branch, never a
// call-frame round-trip. A nil return hands control back to the dispatcher
// at npc.
//
//go:noinline
func (s *cst) exitNext(cyc, n int64, npc int32) *closProg {
	s.inst += n
	s.cycs += cyc + s.base*n
	s.rem -= n
	if uint32(npc) < uint32(len(s.uops)) {
		if slot := s.uops[npc].slot; slot >= 0 {
			next := s.traces[slot].Load()
			if next == nil {
				next = s.m.compileHead(npc)
			}
			if next.fits(s.rem) {
				return next
			}
		}
	}
	s.npc = npc
	return nil
}

// hookFlush drains exact statistics — and the machine-visible CC byte — for
// a StoreHook observer, then runs the hook. The caller zeroes its local
// hit count and kills both trackers (the hook may invalidate any line).
//
//go:noinline
func (s *cst) hookFlush(ihits uint64, ccb uint8, ea uint32, size int32) int64 {
	s.m.ccb = ccb
	c := s.m.cache
	c.NoteHits(cache.IFetch, ihits)
	if s.drh != 0 {
		c.NoteHits(cache.DRead, s.drh)
		s.drh = 0
	}
	if s.dwh != 0 {
		c.NoteHits(cache.DWrite, s.dwh)
		s.dwh = 0
	}
	return s.m.StoreHook(ea, size)
}

// loadHookFlush is hookFlush's load twin: drain exact statistics for a
// LoadHook observer, then run the hook. Same caller contract — zero the
// local hit count and kill both trackers after the call.
//
//go:noinline
func (s *cst) loadHookFlush(ihits uint64, ccb uint8, ea uint32, size int32) int64 {
	s.m.ccb = ccb
	c := s.m.cache
	c.NoteHits(cache.IFetch, ihits)
	if s.drh != 0 {
		c.NoteHits(cache.DRead, s.drh)
		s.drh = 0
	}
	if s.dwh != 0 {
		c.NoteHits(cache.DWrite, s.dwh)
		s.dwh = 0
	}
	return s.m.LoadHook(ea, size)
}

// fault commits a fault at the item's text index (cyc arrives as the
// faulting pass's dynamic charges through the faulting instruction — its
// fetch and any dynamic cost charged, nothing past it; the item's static
// batch prefix and retired count are recomputed here, with dN/dPc adjusting
// for a fused op's later half) and stops the trampoline with the Fault.
// ihits arrives with the earned batch hits folded in and is flushed here
// (the returned batch is empty); the flushed statistics and error values
// match Step's bit for bit.
//
//go:noinline
func (s *cst) fault(curIL, curDL uint32, ihits uint64, ccb uint8, cyc int64, cp *closProg, it *ritem, dN, dPc int32, format string, args ...any) (cfn, uint32, uint32, uint64, uint8) {
	cycB, niW := cp.exitPrefix(it)
	n := niW + int64(dN)
	pc := it.fpc + dPc
	s.m.cache.NoteHits(cache.IFetch, ihits)
	s.inst += n
	s.cycs += cyc + cycB + s.base*n
	s.rem -= n
	s.npc = pc
	s.err = &Fault{PC: pc, Instr: s.m.text[pc], Reason: fmt.Sprintf(format, args...)}
	return nil, curIL, curDL, 0, ccb
}

// ccAddBits/ccSubBits/ccLogicBits compute the packed condition codes the
// machine's setCC* helpers write, but return them so closures can keep the
// CC byte hoisted in a local.
func ccAddBits(a, b, r int32) uint8 {
	var bits uint8
	if r < 0 {
		bits = ccN
	}
	if r == 0 {
		bits |= ccZ
	}
	if (a >= 0 && b >= 0 && r < 0) || (a < 0 && b < 0 && r >= 0) {
		bits |= ccV
	}
	if uint32(r) < uint32(a) {
		bits |= ccC
	}
	return bits
}

func ccSubBits(a, b, r int32) uint8 {
	var bits uint8
	if r < 0 {
		bits = ccN
	}
	if r == 0 {
		bits |= ccZ
	}
	if (a >= 0 && b < 0 && r < 0) || (a < 0 && b >= 0 && r >= 0) {
		bits |= ccV
	}
	if uint32(a) < uint32(b) {
		bits |= ccC
	}
	return bits
}

func ccLogicBits(r int32) uint8 {
	var bits uint8
	if r < 0 {
		bits = ccN
	}
	if r == 0 {
		bits |= ccZ
	}
	return bits
}

// isCtlOp reports whether a trace-op is a control transfer (settles the
// batch; its own fetch never precounts).
func isCtlOp(op topOp) bool {
	switch op {
	case tEnd, tBr, tBrT, tBrLoop, tBA, tBALoop, tJmpl, tCmpBr, tCmpBrT, tCmpBrLoop:
		return true
	}
	return false
}

// compileClosures threads tr into its single-closure form under cost model
// c. The result depends only on tr and c, never on the compiling machine,
// so a shared image can publish it to every machine attached with the
// image's geometry and cost model.
func compileClosures(tr *traceProg, c *Costs) *closProg {
	cp := &closProg{
		head:       tr.entry,
		shift:      tr.shift,
		passInstrs: tr.passInstrs,
		spans:      tr.spans,
		taken:      c.TakenBranch,
		mul:        c.Mul,
		div:        c.Div,
		spill:      c.WindowSpill,
		memx:       c.MemExtra,
	}
	// One item per op plus one counter item per counted op, stored at exact
	// size: closures live as long as their image.
	n := len(tr.ops)
	for i := range tr.ops {
		if tr.ops[i].op&topCount != 0 {
			n++
		}
	}
	items := make([]ritem, 0, n)
	for i := range tr.ops {
		items = appendItem(items, tr, &tr.ops[i], len(items) == 0)
	}
	cp.finish(items)
	cp.items = items
	// The entry closure is deliberately a thin thunk: the interpreting loop
	// lives in the regular method run() so the compiler optimizes it as a
	// method (helper inlining, bounds-check elision, jump-table dispatch) —
	// the same body compiled as a func literal kept small helpers
	// (pageCacheIdx, bigEndian.Uint32, the cc-bit packers) as real calls,
	// and with no callee-saved registers in the Go ABI every such call
	// spilled the loop's whole hot set around every memory item.
	cp.entry = func(m *Machine, curIL, curDL uint32, ihits uint64, ccb uint8) (cfn, uint32, uint32, uint64, uint8) {
		return cp.run(m, curIL, curDL, ihits, ccb)
	}
	return cp
}

// appendItem compiles trace-op u of tr into its item, preceded by a counter
// item when the op is counted. finish() fills in the batch bookkeeping.
func appendItem(items []ritem, tr *traceProg, u *top, first bool) []ritem {
	op := u.op &^ topCount
	if u.op&topCount != 0 {
		// The counter item fetches nothing, so the op after it keeps its
		// own dispatch code (including the entry compare when first).
		items = append(items, ritem{kind: cCount, imm: int32(u.cnt) - 1})
	}
	if op == tEnd {
		// Synthetic tail: settle, commit the whole pass, link to exitPC.
		return append(items, ritem{kind: tEnd, rx: uint32(tr.exitPC),
			imm2: int32(tr.passInstrs) << 16})
	}
	it := ritem{
		kind: op,
		rd:   u.rd, rs1: u.rs1, s2r: u.s2r,
		rd2: u.rd2, rs1b: u.rs1b, s2rb: u.s2rb,
		cm:  condMask[u.cond],
		imm: u.imm, imm2: u.imm2,
		fpc: int32((u.iaddr - TextBase) / 4),
	}
	if isCtlOp(op) {
		// finish() completes the settle pair around niW (see ritem.imm2).
		it.imm2 = (int32(u.ni) + 1) << 16
	}
	switch {
	case first:
		it.f = 2 // entry residency is dynamic: full two-way check
	case u.nl&1 != 0:
		it.f = 3 // line-crossing: unconditional probe
	case isCtlOp(op):
		it.f = 1 // tracker live => hit; never joins a batch
	default:
		it.f = 0 // precounted
	}
	if u.nl&2 != 0 {
		it.f |= 4 // fused second fetch crosses: unconditional probe
	}
	if u.nl&4 != 0 {
		it.f |= 8 // fused third fetch crosses: unconditional probe
	}
	switch op {
	case tLdSllAdd, tSllAddLd, tOrLdSll, tAddLdSll, tLdAddLd, tOrOrOr,
		tLdAddSt, tLdSubSt, tLdOrSt:
		// ALU-chain triple: the third slot rides in cm/c3 (see ritem).
		it.cm = uint16(u.rd3) | uint16(u.rs1c)<<8
		it.c3 = uint32(u.s2rc) | uint32(uint16(u.tgt))<<16
	case tCall:
		it.rd = uint8(sparc.O7)
		it.imm = int32(u.iaddr) + 4
	case tBr, tCmpBr:
		it.rx = uint32(u.tgt)
	case tBrT, tBrLoop:
		it.rx = uint32(it.fpc + 1)
	case tCmpBrT, tCmpBrLoop:
		it.rx = uint32(it.fpc + 2)
	}
	return append(items, it)
}

// ownStatic is one item's static-cycle contribution to its batch's prefix
// sums. Div stays a dynamic charge at its (rare) item so the
// charged-before-the-zero-check contract needs no special case; a branch's
// taken cost is dynamic by nature (tCall's is static: it always transfers,
// and its target is stitched into the trace).
func (cp *closProg) ownStatic(op topOp) int64 {
	switch op {
	case tLd, tLdI, tSt, tStI, tLdSll, tLdOr, tLdCmp, tAddLd, tOrLd, tAddSt, tSubSt,
		tLdSllAdd, tSllAddLd, tOrLdSll, tAddLdSll, tSet2Ld, tSet2St:
		return cp.memx
	case tLdd, tStd, tLdLd, tLdSt, tLdAddLd, tLdAddSt, tLdSubSt, tLdOrSt:
		return 2 * cp.memx
	case tSMul:
		return cp.mul
	case tCall:
		return cp.taken
	}
	return 0
}

// finish computes the batch bookkeeping over the item stream: per-item
// precounted-hit prefix sums and each control item's settle pair (a batch
// runs from one control op to the next — the control settles and resets
// it), and, for every memory item, the eager repair target: the next
// precounted first-fetch in instruction order. The scan bounds at any
// dynamically-fetching item (crossing, entry, control): its own probe
// re-establishes the tracker, so nothing past it needs repair.
func (cp *closProg) finish(items []ritem) {
	hb := uint16(0)
	cyc := int64(0)
	for i := range items {
		it := &items[i]
		if it.kind == cCount {
			continue
		}
		if isCtlOp(it.kind) {
			// Controls read their settle pair on every execution, so it
			// rides in the hot item: imm2 (free — no fused second half) is
			// cycB | niW<<16, with niW placed by appendItem. maxBlockLen
			// (1024) bounds both well under their 16/15-bit fields.
			it.hb = hb
			it.imm2 |= int32(cyc)
			hb, cyc = 0, 0
			continue
		}
		if it.f&3 == 0 {
			hb++
		}
		it.hb = hb // through the first fetch: first-half faults charge this
		if w := opWidth(it.kind, it.imm); it.kind == tNop {
			hb += uint16(w - 1) // a nop run's later fetches share its line
		} else if w >= 2 {
			if it.f&4 == 0 {
				hb++
			}
			if w == 3 && it.f&8 == 0 {
				hb++
			}
		}
		cyc += cp.ownStatic(it.kind)
	}
	for i := range items {
		switch items[i].kind {
		case tLd, tLdI, tLdd, tSt, tStI, tStd, tLdSll, tLdOr, tLdCmp, tAddLd, tOrLd, tLdLd, tLdSt, tAddSt, tSubSt,
			tLdSllAdd, tSllAddLd, tOrLdSll, tAddLdSll, tLdAddLd, tSet2Ld, tSet2St, tLdAddSt, tLdSubSt, tLdOrSt:
			for j := i + 1; j < len(items); j++ {
				jt := &items[j]
				if jt.kind == cCount {
					continue
				}
				if jt.f&3 != 0 || isCtlOp(jt.kind) {
					break // that fetch probes dynamically itself
				}
				items[i].rx = TextBase + uint32(jt.fpc)<<2
				break
			}
		}
	}
}

// exitPrefix recomputes what a fault or patch exit at item it commits
// beyond the dynamic charges: cycB, the static cycles of its batch's items
// before it, and niW, the pass instructions retired through its first
// instruction. A control item's batch is already settled and its niW sits
// in imm2; any other item's pair costs one scan of the stream, on these
// cold paths only, so the hot items need not carry it.
func (cp *closProg) exitPrefix(it *ritem) (cycB, niW int64) {
	if isCtlOp(it.kind) {
		return 0, ctlNi(it)
	}
	for i := range cp.items {
		x := &cp.items[i]
		switch {
		case x == it:
			return cycB, niW + 1
		case x.kind == cCount:
		case isCtlOp(x.kind):
			cycB = 0
			niW += int64(topWidth(x.kind))
		default:
			cycB += cp.ownStatic(x.kind)
			niW += int64(opWidth(x.kind, x.imm))
		}
	}
	panic("machine: exitPrefix: item outside its closure's stream")
}

// winPush is tSave's window push — cold relative to the dispatch loop, and
// kept out of line so run() stays under the inliner's big-function node
// budget (crossing it demotes every inlinable callee in the hot loop, most
// damagingly cache.Access, to a real call). Returns the spill charge.
//
//go:noinline
func (m *Machine) winPush(spillC int64) int64 {
	var parent winRegs
	parent.o = [8]int32(m.regs[8:16])
	parent.l = [8]int32(m.regs[16:24])
	parent.i = [8]int32(m.regs[24:32])
	m.win = append(m.win, parent)
	copy(m.regs[24:32], parent.o[:])
	clear(m.regs[8:24])
	m.resident++
	if m.resident > NWindows-1 {
		m.resident = NWindows - 1
		return spillC
	}
	return 0
}

// winPop is tRestore's window pop (the caller has already rejected the
// underflow fault). Out of line for the same node-budget reason as winPush.
//
//go:noinline
func (m *Machine) winPop(spillC int64) int64 {
	ins := [8]int32(m.regs[24:32])
	parent := &m.win[len(m.win)-1]
	copy(m.regs[8:16], ins[:])
	copy(m.regs[16:24], parent.l[:])
	copy(m.regs[24:32], parent.i[:])
	m.win = m.win[:len(m.win)-1]
	m.resident--
	if m.resident < 1 {
		m.resident = 1
		return spillC
	}
	return 0
}

// hookedAccess is the whole hooked-access slow path shared by every load and
// store item: flush-and-hook (hookFlush or loadHookFlush by kind), the word
// probes with both trackers dead (the kill leaves no known-hit or alias case
// to handle — every word is a plain probe, a straddled doubleword's second
// word its own reference, see dataAccess2), the architectural move through
// the generic ReadWord/storeWord path, then either the batch rebase and
// eager repair (rebased ihits wraps negative mod 2^64; every path to a flush
// first adds a batch prefix that covers it, and the repair performs the next
// precounted fetch's probe exactly as Step's next fetch would)
// or, on a text patch under the hook, the access-boundary commit (exit=true:
// the caller returns to the trampoline immediately). Keeping all of it out
// of line keeps the nine hook sites in run() from pushing the loop over the
// inliner's big-function node budget.
//
// ria is the eager-repair target: the next precounted first-fetch address
// (it.rx) — or, for a hooked FIRST half of a fused pair whose own second
// fetch is precounted, that second fetch's address. extra/dN/dPc locate the
// access boundary for the patch exit: the item's static share through the
// access, and the retired-count/pc deltas for a fused second half.
//
//go:noinline
func (s *cst) hookedAccess(cp *closProg, it *ritem, ihits0 uint64, ccb uint8, cyc0 int64, ea uint32, hb uint16, ria uint32, reg uint8, kind cache.Kind, dbl bool, extra int64, dN, dPc int32) (curIL, curDL uint32, ihits uint64, cyc int64, exit bool) {
	m := s.m
	size := int32(4)
	if dbl {
		size = 8
	}
	cyc = cyc0
	if kind == cache.DWrite {
		cyc += s.hookFlush(ihits0+uint64(hb), ccb, ea, size)
	} else {
		cyc += s.loadHookFlush(ihits0+uint64(hb), ccb, ea, size)
	}
	shift := cp.shift
	if !m.cache.Access(ea, kind) {
		cyc += m.costs.MissPenalty
	}
	curIL, curDL = noLine, ea>>shift
	if dbl {
		if l2 := (ea + 4) >> shift; l2 != curDL {
			if !m.cache.Access(ea+4, kind) {
				cyc += m.costs.MissPenalty
			}
			curDL = l2
		}
	}
	if kind == cache.DWrite {
		m.storeWord(ea, m.regs[reg])
		if dbl {
			m.storeWord(ea+4, m.regs[reg+1])
		}
	} else {
		m.regs[reg] = m.ReadWord(ea)
		if dbl {
			m.regs[reg+1] = m.ReadWord(ea + 4)
		}
	}
	if m.textGen != s.gen {
		cycB, niW := cp.exitPrefix(it)
		n := niW + int64(dN)
		s.inst += n
		s.cycs += cyc + cycB + extra + s.base*n
		s.rem -= n
		s.npc = it.fpc + dPc
		return curIL, curDL, 0, 0, true
	}
	ihits = -uint64(hb)
	if ria != 0 {
		var c int64
		curIL, curDL, c = fetchSlowV(m, ria>>shift, ria, curDL, s.imask)
		cyc += c
		ihits--
	}
	return curIL, curDL, ihits, cyc, false
}

// run interprets the trace's compiled item stream — the closure tier's whole
// hot loop. It keeps the register-threaded state in locals (arguments), and
// everything rarer (data-hit batches, the adj correction, committed totals)
// s-resident: a handful of L1 round-trips on slow paths beats spilling the
// dispatch loop itself.
func (cp *closProg) run(m *Machine, curIL, curDL uint32, ihits uint64, ccb uint8) (cfn, uint32, uint32, uint64, uint8) {
	items := cp.items
	shift := cp.shift
	// Loop-invariant hot fields, hoisted so the compiler keeps them in
	// registers instead of reloading through m after every real call.
	cs := &m.cstate
	cc := m.cache
	imask := cs.imask
	missP := m.costs.MissPenalty
	const itemSize = unsafe.Sizeof(ritem{})
	{
		var cyc int64
		// side-exit operands, set before goto hop (one shared exit tail
		// keeps eight hop sites out of the inliner's node budget)
		var xCyc, xN int64
		var xNpc int32
	pass:
		for {
			// Raw-pointer walk: tEnd terminates every trace, and every other
			// way out is an explicit return/continue, so no bound check.
			p := unsafe.Pointer(&items[0])
			for {
				it := (*ritem)(p)
				p = unsafe.Add(p, itemSize)
				// First ifetch, dispatched on the two-bit compile-time code
				// (0 = precounted: nothing to do here).
				if k := it.f & 3; k != 0 {
					ia := TextBase + uint32(it.fpc)<<2
					if line := ia >> shift; (k == 1 && curIL != noLine) || line == curIL {
						ihits++
					} else {
						if !cc.Access(ia, cache.IFetch) {
							cyc += missP
						}
						if (line^curDL)&imask == 0 {
							curDL = noLine
						}
						curIL = line
					}
				}
				switch it.kind {
				case tNop:
					// fetch only; a padding run's later fetches are
					// precounted (finish)

				case cCount:
					m.Counters[it.imm]++

				case tAdd:
					m.regs[it.rd] = m.regs[it.rs1] + m.regs[it.s2r] + it.imm
				case tAddI:
					m.regs[it.rd] = m.regs[it.rs1] + it.imm
				case tSub:
					m.regs[it.rd] = m.regs[it.rs1] - (m.regs[it.s2r] + it.imm)
				case tSubI:
					m.regs[it.rd] = m.regs[it.rs1] - it.imm
				case tAnd:
					m.regs[it.rd] = m.regs[it.rs1] & (m.regs[it.s2r] + it.imm)
				case tAndn:
					m.regs[it.rd] = m.regs[it.rs1] &^ (m.regs[it.s2r] + it.imm)
				case tOr:
					m.regs[it.rd] = m.regs[it.rs1] | (m.regs[it.s2r] + it.imm)
				case tOrI:
					m.regs[it.rd] = m.regs[it.rs1] | it.imm
				case tOrn:
					m.regs[it.rd] = m.regs[it.rs1] | ^(m.regs[it.s2r] + it.imm)
				case tXor:
					m.regs[it.rd] = m.regs[it.rs1] ^ (m.regs[it.s2r] + it.imm)
				case tXnor:
					m.regs[it.rd] = ^(m.regs[it.rs1] ^ (m.regs[it.s2r] + it.imm))
				case tSll:
					m.regs[it.rd] = m.regs[it.rs1] << (uint32(m.regs[it.s2r]+it.imm) & 31)
				case tSllI:
					m.regs[it.rd] = m.regs[it.rs1] << (uint32(it.imm) & 31)
				case tSrl:
					m.regs[it.rd] = int32(uint32(m.regs[it.rs1]) >> (uint32(m.regs[it.s2r]+it.imm) & 31))
				case tSrlI:
					m.regs[it.rd] = int32(uint32(m.regs[it.rs1]) >> (uint32(it.imm) & 31))
				case tSra:
					m.regs[it.rd] = m.regs[it.rs1] >> (uint32(m.regs[it.s2r]+it.imm) & 31)
				case tSMul:
					// cycles in the static batch
					m.regs[it.rd] = m.regs[it.rs1] * (m.regs[it.s2r] + it.imm)
				case tSDiv:
					cyc += cp.div // charged before the zero check, as in Step
					dv := m.regs[it.s2r] + it.imm
					if dv == 0 {
						return cs.fault(curIL, curDL, ihits+uint64(it.hb), ccb,
							cyc, cp, it, 0, 0, "division by zero")
					}
					m.regs[it.rd] = m.regs[it.rs1] / dv
				case tAddcc:
					a, c := m.regs[it.rs1], m.regs[it.s2r]+it.imm
					r := a + c
					ccb = ccAddBits(a, c, r)
					m.regs[it.rd] = r
				case tSubcc:
					a, c := m.regs[it.rs1], m.regs[it.s2r]+it.imm
					r := a - c
					ccb = ccSubBits(a, c, r)
					m.regs[it.rd] = r
				case tAndcc:
					r := m.regs[it.rs1] & (m.regs[it.s2r] + it.imm)
					ccb = ccLogicBits(r)
					m.regs[it.rd] = r
				case tAndncc:
					r := m.regs[it.rs1] &^ (m.regs[it.s2r] + it.imm)
					ccb = ccLogicBits(r)
					m.regs[it.rd] = r
				case tOrcc:
					r := m.regs[it.rs1] | (m.regs[it.s2r] + it.imm)
					ccb = ccLogicBits(r)
					m.regs[it.rd] = r
				case tXorcc:
					r := m.regs[it.rs1] ^ (m.regs[it.s2r] + it.imm)
					ccb = ccLogicBits(r)
					m.regs[it.rd] = r
				case tSet:
					m.regs[it.rd] = it.imm
				case tCall:
					m.regs[it.rd] = it.imm // precomputed return address; cp.taken cost is static

				case tLd, tLdI:
					var ea uint32
					if it.kind == tLd {
						ea = uint32(m.regs[it.rs1] + m.regs[it.s2r] + it.imm)
					} else {
						ea = uint32(m.regs[it.rs1] + it.imm)
					}
					if ea&3 != 0 {
						return cs.fault(curIL, curDL, ihits+uint64(it.hb), ccb,
							cyc, cp, it, 0, 0, "unaligned load at %#x", ea)
					}
					if m.LoadHook != nil {
						var ex bool
						curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
							ihits, ccb, cyc, ea, it.hb, it.rx, it.rd, cache.DRead, false, cp.memx, 0, 1)
						if ex {
							return nil, curIL, curDL, ihits, ccb
						}
						break
					}
					if line := ea >> shift; line == curDL {
						cs.drh++
					} else if curIL == noLine || (line^curIL)&imask != 0 {
						// Clean D-line change (no I-tracker alias) stays inline: probe
						// and retarget — the kill-and-repair path is the rare one.
						if !cc.Access(ea, cache.DRead) {
							cyc += missP
						}
						curDL = line
					} else {
						var c, cv int64
						curIL, curDL, c, cv = dataSlowV(m, ea, cache.DRead, line, curIL, curDL, imask, it.rx, shift)
						cyc += c
						ihits += uint64(cv)
					}
					pb := ea &^ (PageBytes - 1)
					pe := &m.pageCache[pageCacheIdx(ea)]
					pg := pe.p
					if pe.base != pb {
						pg = m.pageSlow(pb)
					}
					o := ea & (PageBytes - 4)
					m.regs[it.rd] = int32(binary.BigEndian.Uint32(pg[o : o+4]))

				case tSt, tStI:
					var ea uint32
					if it.kind == tSt {
						ea = uint32(m.regs[it.rs1] + m.regs[it.s2r] + it.imm)
					} else {
						ea = uint32(m.regs[it.rs1] + it.imm)
					}
					if ea&3 != 0 {
						return cs.fault(curIL, curDL, ihits+uint64(it.hb), ccb,
							cyc, cp, it, 0, 0, "unaligned store at %#x", ea)
					}
					if m.StoreHook != nil {
						// The whole hooked protocol — flush exact statistics,
						// run the hook, probe with dead trackers, store, then
						// rebase-and-repair or patch-exit — lives out of line.
						var ex bool
						curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
							ihits, ccb, cyc, ea, it.hb, it.rx, it.rd, cache.DWrite, false, cp.memx, 0, 1)
						if ex {
							return nil, curIL, curDL, ihits, ccb
						}
						break
					}
					if line := ea >> shift; line == curDL {
						cs.dwh++
					} else if curIL == noLine || (line^curIL)&imask != 0 {
						// Clean D-line change (no I-tracker alias) stays inline: probe
						// and retarget — the kill-and-repair path is the rare one.
						if !cc.Access(ea, cache.DWrite) {
							cyc += missP
						}
						curDL = line
					} else {
						var c, cv int64
						curIL, curDL, c, cv = dataSlowV(m, ea, cache.DWrite, line, curIL, curDL, imask, it.rx, shift)
						cyc += c
						ihits += uint64(cv)
					}
					pb := ea &^ (PageBytes - 1)
					pe := &m.pageCache[pageCacheIdx(ea)]
					pg := pe.p
					if pe.base != pb {
						pg = m.pageSlow(pb)
					}
					o := ea & (PageBytes - 4)
					binary.BigEndian.PutUint32(pg[o:o+4], uint32(m.regs[it.rd]))

				case tSave:
					// Mirrors Step: operand computed in the caller's window,
					// destination written in the new one.
					v := m.regs[it.rs1] + m.regs[it.s2r] + it.imm
					cyc += m.winPush(cp.spill)
					m.regs[it.rd] = v

				case tRestore:
					if len(m.win) < 1 {
						return cs.fault(curIL, curDL, ihits+uint64(it.hb), ccb,
							cyc, cp, it, 0, 0, "register window underflow at top frame")
					}
					v := m.regs[it.rs1] + m.regs[it.s2r] + it.imm
					cyc += m.winPop(cp.spill)
					m.regs[it.rd] = v

				// ---- fused pairs (two instructions, one item) ----

				case tSet2:
					// sethi half is a fetch-only nop here: the merged
					// constant commits in the or half, and the intermediate
					// register value is unobservable inside a trace. The
					// same-line second fetch is already in the batch.
					if it.f&4 != 0 {
						ia2 := TextBase + uint32(it.fpc)<<2 + 4
						if !cc.Access(ia2, cache.IFetch) {
							cyc += missP
						}
						curIL = ia2 >> shift
						if (curIL^curDL)&imask == 0 {
							curDL = noLine
						}
					}
					m.regs[it.rd] = it.imm

				case tSllAdd, tOrAdd, tOrSub:
					if it.kind == tSllAdd {
						m.regs[it.rd] = m.regs[it.rs1] << (uint32(m.regs[it.s2r]+it.imm) & 31)
					} else {
						m.regs[it.rd] = m.regs[it.rs1] | (m.regs[it.s2r] + it.imm)
					}
					if it.f&4 != 0 {
						ia2 := TextBase + uint32(it.fpc)<<2 + 4
						if !cc.Access(ia2, cache.IFetch) {
							cyc += missP
						}
						curIL = ia2 >> shift
						if (curIL^curDL)&imask == 0 {
							curDL = noLine
						}
					}
					if it.kind == tOrSub {
						m.regs[it.rd2] = m.regs[it.rs1b] - (m.regs[it.s2rb] + it.imm2)
					} else {
						m.regs[it.rd2] = m.regs[it.rs1b] + m.regs[it.s2rb] + it.imm2
					}

				case tLdSll, tLdOr, tLdCmp:
					ea := uint32(m.regs[it.rs1] + m.regs[it.s2r] + it.imm)
					if ea&3 != 0 {
						return cs.fault(curIL, curDL, ihits+uint64(it.hb), ccb,
							cyc, cp, it, 0, 0, "unaligned load at %#x", ea)
					}
					if m.LoadHook != nil {
						// Repair targets the op's own second fetch when it is
						// precounted (a crossing one probes for itself below),
						// exactly like the kill-repair path.
						var ra uint32
						if it.f&4 == 0 {
							ra = TextBase + uint32(it.fpc)<<2 + 4
						}
						var ex bool
						curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
							ihits, ccb, cyc, ea, it.hb, ra, it.rd, cache.DRead, false, cp.memx, 0, 1)
						if ex {
							return nil, curIL, curDL, ihits, ccb
						}
					} else {
						if line := ea >> shift; line == curDL {
							cs.drh++
						} else if curIL == noLine || (line^curIL)&imask != 0 {
							// Clean D-line change (no I-tracker alias) stays inline: probe
							// and retarget — the kill-and-repair path is the rare one.
							if !cc.Access(ea, cache.DRead) {
								cyc += missP
							}
							curDL = line
						} else {
							// Kill repair targets the op's own second fetch when
							// precounted; a crossing second fetch probes anyway.
							var ra uint32
							if it.f&4 == 0 {
								ra = TextBase + uint32(it.fpc)<<2 + 4
							}
							var c, cv int64
							curIL, curDL, c, cv = dataSlowV(m, ea, cache.DRead, line, curIL, curDL, imask, ra, shift)
							cyc += c
							ihits += uint64(cv)
						}
						pb := ea &^ (PageBytes - 1)
						pe := &m.pageCache[pageCacheIdx(ea)]
						pg := pe.p
						if pe.base != pb {
							pg = m.pageSlow(pb)
						}
						o := ea & (PageBytes - 4)
						m.regs[it.rd] = int32(binary.BigEndian.Uint32(pg[o : o+4]))
					}
					if it.f&4 != 0 {
						ia2 := TextBase + uint32(it.fpc)<<2 + 4
						if !cc.Access(ia2, cache.IFetch) {
							cyc += missP
						}
						curIL = ia2 >> shift
						if (curIL^curDL)&imask == 0 {
							curDL = noLine
						}
					}
					switch it.kind {
					case tLdSll:
						m.regs[it.rd2] = m.regs[it.rs1b] << (uint32(m.regs[it.s2rb]+it.imm2) & 31)
					case tLdOr:
						m.regs[it.rd2] = m.regs[it.rs1b] | (m.regs[it.s2rb] + it.imm2)
					default: // tLdCmp
						a, c2 := m.regs[it.rs1b], m.regs[it.s2rb]+it.imm2
						r := a - c2
						ccb = ccSubBits(a, c2, r)
						m.regs[it.rd2] = r
					}

				case tAddLd, tOrLd, tLdLd:
					var firstMemx int64
					lhooked := m.LoadHook != nil
					if it.kind == tLdLd {
						firstMemx = cp.memx
						ea := uint32(m.regs[it.rs1] + m.regs[it.s2r] + it.imm)
						if ea&3 != 0 {
							return cs.fault(curIL, curDL, ihits+uint64(it.hb), ccb,
								cyc, cp, it, 0, 0, "unaligned load at %#x", ea)
						}
						if lhooked {
							var ra uint32
							if it.f&4 == 0 {
								ra = TextBase + uint32(it.fpc)<<2 + 4
							}
							var ex bool
							curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
								ihits, ccb, cyc, ea, it.hb, ra, it.rd, cache.DRead, false, cp.memx, 0, 1)
							if ex {
								return nil, curIL, curDL, ihits, ccb
							}
						} else {
							if line := ea >> shift; line == curDL {
								cs.drh++
							} else if curIL == noLine || (line^curIL)&imask != 0 {
								// Clean D-line change (no I-tracker alias) stays inline: probe
								// and retarget — the kill-and-repair path is the rare one.
								if !cc.Access(ea, cache.DRead) {
									cyc += missP
								}
								curDL = line
							} else {
								var ra uint32
								if it.f&4 == 0 {
									ra = TextBase + uint32(it.fpc)<<2 + 4
								}
								var c, cv int64
								curIL, curDL, c, cv = dataSlowV(m, ea, cache.DRead, line, curIL, curDL, imask, ra, shift)
								cyc += c
								ihits += uint64(cv)
							}
							pb := ea &^ (PageBytes - 1)
							pe := &m.pageCache[pageCacheIdx(ea)]
							pg := pe.p
							if pe.base != pb {
								pg = m.pageSlow(pb)
							}
							o := ea & (PageBytes - 4)
							m.regs[it.rd] = int32(binary.BigEndian.Uint32(pg[o : o+4]))
						}
					} else if it.kind == tAddLd {
						m.regs[it.rd] = m.regs[it.rs1] + m.regs[it.s2r] + it.imm
					} else {
						m.regs[it.rd] = m.regs[it.rs1] | (m.regs[it.s2r] + it.imm)
					}
					hb2 := int64(it.hb)
					if it.f&4 == 0 {
						hb2++ // the batched second fetch has now executed
					} else {
						ia2 := TextBase + uint32(it.fpc)<<2 + 4
						if !cc.Access(ia2, cache.IFetch) {
							cyc += missP
						}
						curIL = ia2 >> shift
						if (curIL^curDL)&imask == 0 {
							curDL = noLine
						}
					}
					ea := uint32(m.regs[it.rs1b] + m.regs[it.s2rb] + it.imm2)
					if ea&3 != 0 {
						return cs.fault(curIL, curDL, ihits+uint64(uint16(hb2)), ccb,
							cyc+firstMemx, cp, it, 1, 1, "unaligned load at %#x", ea)
					}
					if lhooked {
						var ex bool
						curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
							ihits, ccb, cyc, ea, uint16(hb2), it.rx, it.rd2, cache.DRead, false, firstMemx+cp.memx, 1, 2)
						if ex {
							return nil, curIL, curDL, ihits, ccb
						}
						break
					}
					if line := ea >> shift; line == curDL {
						cs.drh++
					} else if curIL == noLine || (line^curIL)&imask != 0 {
						// Clean D-line change (no I-tracker alias) stays inline: probe
						// and retarget — the kill-and-repair path is the rare one.
						if !cc.Access(ea, cache.DRead) {
							cyc += missP
						}
						curDL = line
					} else {
						var c, cv int64
						curIL, curDL, c, cv = dataSlowV(m, ea, cache.DRead, line, curIL, curDL, imask, it.rx, shift)
						cyc += c
						ihits += uint64(cv)
					}
					pb := ea &^ (PageBytes - 1)
					pe := &m.pageCache[pageCacheIdx(ea)]
					pg := pe.p
					if pe.base != pb {
						pg = m.pageSlow(pb)
					}
					o := ea & (PageBytes - 4)
					m.regs[it.rd2] = int32(binary.BigEndian.Uint32(pg[o : o+4]))

				case tLdSt, tAddSt, tSubSt:
					var firstMemx int64
					if it.kind == tLdSt {
						firstMemx = cp.memx
						ea := uint32(m.regs[it.rs1] + m.regs[it.s2r] + it.imm)
						if ea&3 != 0 {
							return cs.fault(curIL, curDL, ihits+uint64(it.hb), ccb,
								cyc, cp, it, 0, 0, "unaligned load at %#x", ea)
						}
						if m.LoadHook != nil {
							var ra uint32
							if it.f&4 == 0 {
								ra = TextBase + uint32(it.fpc)<<2 + 4
							}
							var ex bool
							curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
								ihits, ccb, cyc, ea, it.hb, ra, it.rd, cache.DRead, false, cp.memx, 0, 1)
							if ex {
								return nil, curIL, curDL, ihits, ccb
							}
						} else {
							if line := ea >> shift; line == curDL {
								cs.drh++
							} else if curIL == noLine || (line^curIL)&imask != 0 {
								// Clean D-line change (no I-tracker alias) stays inline: probe
								// and retarget — the kill-and-repair path is the rare one.
								if !cc.Access(ea, cache.DRead) {
									cyc += missP
								}
								curDL = line
							} else {
								var ra uint32
								if it.f&4 == 0 {
									ra = TextBase + uint32(it.fpc)<<2 + 4
								}
								var c, cv int64
								curIL, curDL, c, cv = dataSlowV(m, ea, cache.DRead, line, curIL, curDL, imask, ra, shift)
								cyc += c
								ihits += uint64(cv)
							}
							pb := ea &^ (PageBytes - 1)
							pe := &m.pageCache[pageCacheIdx(ea)]
							pg := pe.p
							if pe.base != pb {
								pg = m.pageSlow(pb)
							}
							o := ea & (PageBytes - 4)
							m.regs[it.rd] = int32(binary.BigEndian.Uint32(pg[o : o+4]))
						}
					} else if it.kind == tAddSt {
						m.regs[it.rd] = m.regs[it.rs1] + m.regs[it.s2r] + it.imm
					} else {
						m.regs[it.rd] = m.regs[it.rs1] - (m.regs[it.s2r] + it.imm)
					}
					hb2 := int64(it.hb)
					if it.f&4 == 0 {
						hb2++ // the batched second fetch has now executed
					} else {
						ia2 := TextBase + uint32(it.fpc)<<2 + 4
						if !cc.Access(ia2, cache.IFetch) {
							cyc += missP
						}
						curIL = ia2 >> shift
						if (curIL^curDL)&imask == 0 {
							curDL = noLine
						}
					}
					ea := uint32(m.regs[it.rs1b] + m.regs[it.s2rb] + it.imm2)
					if ea&3 != 0 {
						return cs.fault(curIL, curDL, ihits+uint64(uint16(hb2)), ccb,
							cyc+firstMemx, cp, it, 1, 1, "unaligned store at %#x", ea)
					}
					if m.StoreHook != nil {
						var ex bool
						curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
							ihits, ccb, cyc, ea, uint16(hb2), it.rx, it.rd2, cache.DWrite, false, firstMemx+cp.memx, 1, 2)
						if ex {
							return nil, curIL, curDL, ihits, ccb
						}
						break
					}
					if line := ea >> shift; line == curDL {
						cs.dwh++
					} else if curIL == noLine || (line^curIL)&imask != 0 {
						// Clean D-line change (no I-tracker alias) stays inline: probe
						// and retarget — the kill-and-repair path is the rare one.
						if !cc.Access(ea, cache.DWrite) {
							cyc += missP
						}
						curDL = line
					} else {
						var c, cv int64
						curIL, curDL, c, cv = dataSlowV(m, ea, cache.DWrite, line, curIL, curDL, imask, it.rx, shift)
						cyc += c
						ihits += uint64(cv)
					}
					pb := ea &^ (PageBytes - 1)
					pe := &m.pageCache[pageCacheIdx(ea)]
					pg := pe.p
					if pe.base != pb {
						pg = m.pageSlow(pb)
					}
					o := ea & (PageBytes - 4)
					binary.BigEndian.PutUint32(pg[o:o+4], uint32(m.regs[it.rd2]))

					// ---- fused triples (three instructions, one item; the third
					// slot's operands unpack from cm/c3, see ritem) ----

				case tLdd, tStd:
					// Double-word pairs: rare path (see runOutlinedDW).
					fn, nIL, nDL, nih, nccb, ncyc, done := cp.runOutlinedDW(m, it, curIL, curDL, ihits, ccb, cyc)
					if done {
						return fn, nIL, nDL, nih, nccb
					}
					curIL, curDL, ihits, ccb, cyc = nIL, nDL, nih, nccb, ncyc

				case tLdSllAdd, tSllAddLd, tOrLdSll, tAddLdSll, tLdAddLd, tOrOrOr,
					tSet2Ld, tSet2St, tLdAddSt, tLdSubSt, tLdOrSt:
					// Fused triples and double-word pairs retire out of line.
					// runOutlined chains through consecutive outlined items
					// before coming back (triples cluster in straight-line code,
					// so one call retires a whole run); done means fault or hook
					// exit, with the results forwarded verbatim.
					var fn cfn
					var done bool
					p, fn, curIL, curDL, ihits, ccb, cyc, done = cp.runOutlined(m, p, it, curIL, curDL, ihits, ccb, cyc)
					if done {
						return fn, curIL, curDL, ihits, ccb
					}

				// ---- control transfers (settle, then the op) ----

				case tBr: // predicted not cp.taken: the cp.taken edge exits
					ihits += uint64(it.hb)
					cyc += ctlCyc(it)
					if it.cm>>uint32(ccb)&1 != 0 {
						n := ctlNi(it)
						xCyc, xN, xNpc = cyc+cp.taken, n, int32(it.rx)
						goto hop
					}

				case tBrT: // predicted cp.taken (stitched): the not-cp.taken edge exits
					ihits += uint64(it.hb)
					cyc += ctlCyc(it)
					if it.cm>>uint32(ccb)&1 == 0 {
						n := ctlNi(it)
						xCyc, xN, xNpc = cyc, n, int32(it.rx)
						goto hop
					}
					cyc += cp.taken

				case tBrLoop:
					ihits += uint64(it.hb)
					cyc += ctlCyc(it)
					if it.cm>>uint32(ccb)&1 != 0 {
						n := ctlNi(it)
						cs.inst += n
						cs.cycs += cyc + cp.taken + cs.base*n
						cs.rem -= n
						cyc = 0
						if cs.rem < cp.passInstrs {
							// dispatcher clamps the tail exactly
							return cs.stop(curIL, curDL, ihits, ccb, 0, 0, cp.head)
						}
						continue pass
					}
					n := ctlNi(it)
					xCyc, xN, xNpc = cyc, n, int32(it.rx)
					goto hop

				case tBA:
					ihits += uint64(it.hb)
					cyc += ctlCyc(it) + cp.taken

				case tBALoop:
					ihits += uint64(it.hb)
					n := ctlNi(it)
					cs.inst += n
					cs.cycs += cyc + ctlCyc(it) + cp.taken + cs.base*n
					cs.rem -= n
					cyc = 0
					if cs.rem < cp.passInstrs {
						return cs.stop(curIL, curDL, ihits, ccb, 0, 0, cp.head)
					}
					continue pass

				case tJmpl:
					ihits += uint64(it.hb)
					cyc += ctlCyc(it)
					dest := uint32(m.regs[it.rs1] + m.regs[it.s2r] + it.imm)
					idx := int32((dest - TextBase) / 4)
					if dest < TextBase || dest&3 != 0 || int(idx) >= len(m.uops) {
						return cs.jmplFault(curIL, curDL, ihits, ccb, cyc, cp, it, dest)
					}
					m.regs[it.rd] = int32(TextBase) + it.fpc<<2 + 4
					n := ctlNi(it)
					xCyc, xN, xNpc = cyc+cp.taken, n, idx
					goto hop

				case tCmpBr, tCmpBrT, tCmpBrLoop:
					// Fused subcc+branch: settle, second fetch (a guaranteed
					// hit when same-line: the first fetch just ran), compare,
					// then the branch with the usual prediction split.
					ihits += uint64(it.hb)
					cyc += ctlCyc(it)
					if it.f&4 == 0 {
						ihits++
					} else {
						ia2 := TextBase + uint32(it.fpc)<<2 + 4
						if !cc.Access(ia2, cache.IFetch) {
							cyc += missP
						}
						curIL = ia2 >> shift
						if (curIL^curDL)&imask == 0 {
							curDL = noLine
						}
					}
					a, c2 := m.regs[it.rs1], m.regs[it.s2r]+it.imm
					r := a - c2
					ccb = ccSubBits(a, c2, r)
					m.regs[it.rd] = r
					br := it.cm>>uint32(ccb)&1 != 0
					if it.kind == tCmpBrLoop {
						n := ctlNi(it) + 1
						if br {
							cs.inst += n
							cs.cycs += cyc + cp.taken + cs.base*n
							cs.rem -= n
							cyc = 0
							if cs.rem < cp.passInstrs {
								return cs.stop(curIL, curDL, ihits, ccb, 0, 0, cp.head)
							}
							continue pass
						}
						xCyc, xN, xNpc = cyc, n, int32(it.rx)
						goto hop
					}
					if it.kind == tCmpBr {
						if br {
							n := ctlNi(it) + 1
							xCyc, xN, xNpc = cyc+cp.taken, n, int32(it.rx)
							goto hop
						}
					} else { // tCmpBrT
						if !br {
							n := ctlNi(it) + 1
							xCyc, xN, xNpc = cyc, n, int32(it.rx)
							goto hop
						}
						cyc += cp.taken
					}

				case tEnd:
					ihits += uint64(it.hb)
					xCyc, xN, xNpc = cyc+ctlCyc(it), ctlNi(it), int32(it.rx)
					goto hop

				default:
					panic(fmt.Sprintf("machine: compiled trace: unhandled item kind %d", it.kind))
				}
			}
		hop:
			if np := cs.exitNext(xCyc, xN, xNpc); np != nil {
				cp = np
				items = cp.items
				shift = cp.shift
				cyc = 0
				continue pass
			}
			return nil, curIL, curDL, ihits, ccb
		}
	}
}

// jmplFault faults a settled jmpl item whose target leaves the text: the
// jmpl has been fetched and counted, so it commits as Step does, the rd
// write and then the fault.
//
//go:noinline
func (s *cst) jmplFault(curIL, curDL uint32, ihits uint64, ccb uint8, cyc int64, cp *closProg, it *ritem, dest uint32) (cfn, uint32, uint32, uint64, uint8) {
	s.m.regs[it.rd] = int32(TextBase) + it.fpc<<2 + 4
	return s.fault(curIL, curDL, ihits, ccb, cyc, cp, it, 0, 0, badJumpFormat(dest), dest)
}

// fetchSlowV is the full-probe ifetch path for second (fused) fetches and
// hook repairs, value-threaded so the hoisted trackers stay in registers at
// the call site. Returns the new I-line, the (possibly alias-killed)
// D-line, and the cycle charge. It sits below run with run's other cold
// tails because the functions laid out ahead of run set the hot loop's
// address mod 64 (EXPERIMENTS.md, "Stop requests").
//
//go:noinline
func fetchSlowV(m *Machine, line, iaddr, curDL, imask uint32) (uint32, uint32, int64) {
	cyc := int64(0)
	if !m.cache.Access(iaddr, cache.IFetch) {
		cyc = m.costs.MissPenalty
	}
	if (line^curDL)&imask == 0 {
		curDL = noLine
	}
	return line, curDL, cyc
}

// execClosures runs a compiled closure, and the closures it links to, until
// a side exit, a fault, a mid-trace patch, or the MaxInstrs budget. The
// known-hit line trackers and the batched ifetch-hit count are threaded in
// from the dispatcher and back out, so residency knowledge survives the
// block→closure→block transitions and the combined engine issues exactly
// the probes Step would. Accounting protocol (mirrors execBlocks):
//   - Base+PerInstrPenalty cycles fold into one multiply per commit:
//     base*passInstrs when a pass completes (tail or back-edge), base*n at
//     side exits, faults and patch exits.
//   - Static cycles (MemExtra, Mul, a stitched call's taken cost) are
//     compile-time batch sums settled at control items; dynamic ones (miss
//     penalties, Div, taken branches, hook charges) accumulate in cyc.
//   - ihits counts only ACTUAL known-hit fetches; it is flushed via
//     cache.NoteHits before anything that can observe the cache (a hook, a
//     fault) and returned to the dispatcher otherwise. Known data hits
//     batch in the cst and flush with the same discipline.
//   - The caller guarantees MaxInstrs-instrs >= passInstrs on entry;
//     back-edges and links re-check against s.rem, which is at most
//     chainCap, so the chain returns to the dispatcher, where a stop
//     request is seen, at a trace head: a looping trace at its own head, a
//     link at its target's. The dispatcher re-enters the closure there.
func (m *Machine) execClosures(cp *closProg, imask, ciLine, cdLine uint32, ihits0 uint64) (uint32, uint32, uint64, error) {
	s := &m.cstate
	*s = cst{
		m:      m,
		traces: m.traces,
		uops:   m.uops,
		imask:  imask,
		gen:    m.textGen,
		base:   m.costs.Base + m.PerInstrPenalty,
		rem:    min(m.MaxInstrs-m.instrs, chainCap),
	}
	f, curIL, curDL, ihits, ccb := cp.entry, ciLine, cdLine, ihits0, m.ccb
	for f != nil {
		f, curIL, curDL, ihits, ccb = f(m, curIL, curDL, ihits, ccb)
	}
	m.ccb = ccb
	m.instrs += s.inst
	m.cycles += s.cycs
	m.pc = s.npc
	if s.drh != 0 {
		m.cache.NoteHits(cache.DRead, s.drh)
	}
	if s.dwh != 0 {
		m.cache.NoteHits(cache.DWrite, s.dwh)
	}
	return curIL, curDL, ihits, s.err
}

// runOutlined retires the item kinds run keeps out of its own body: every
// fused triple (the double-word pairs tLdd/tStd take their own rare path,
// runOutlinedDW). These bodies would push run past the compiler's
// big-function node budget and demote every cache probe on the hot
// pair/single path to a real call — one extra call per outlined item is far
// cheaper than uninlining the whole dispatch loop. To amortize even that
// call, runOutlined keeps retiring as long as the NEXT item is also an
// outlined kind — triples cluster in the straight-line address chains minic
// emits, so one call often covers a whole run — and hands the advanced
// stream pointer back to the caller.
// done reports that the dispatch must return (a fault or a hook exit, with
// the non-pointer results forwarded verbatim); otherwise the caller resumes
// its walk at the returned pointer with the returned threaded state.
func (cp *closProg) runOutlined(m *Machine, p unsafe.Pointer, it *ritem, curIL, curDL uint32, ihits uint64, ccb uint8, cyc int64) (unsafe.Pointer, cfn, uint32, uint32, uint64, uint8, int64, bool) {
	shift := cp.shift
	// Loop-invariant hot fields, hoisted so the compiler keeps them in
	// registers instead of reloading through m after every real call.
	cs := &m.cstate
	cc := m.cache
	imask := cs.imask
	missP := m.costs.MissPenalty
	const itemSize = unsafe.Sizeof(ritem{})
	for {
		switch it.kind {
		case tLdSllAdd:
			// ld+sll+add: the load is slot A with tLdSll's exact
			// protocol (hook/fault/kill-repair against the own second
			// fetch), then the two ALU slots with their fetches.
			ea := uint32(m.regs[it.rs1] + m.regs[it.s2r] + it.imm)
			if ea&3 != 0 {
				fn, fIL, fDL, fih, fcb := cs.fault(curIL, curDL, ihits+uint64(it.hb), ccb,
					cyc, cp, it, 0, 0, "unaligned load at %#x", ea)
				return p, fn, fIL, fDL, fih, fcb, 0, true
			}
			if m.LoadHook != nil {
				var ra uint32
				if it.f&4 == 0 {
					ra = TextBase + uint32(it.fpc)<<2 + 4
				}
				var ex bool
				curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
					ihits, ccb, cyc, ea, it.hb, ra, it.rd, cache.DRead, false, cp.memx, 0, 1)
				if ex {
					return p, nil, curIL, curDL, ihits, ccb, 0, true
				}
			} else {
				if line := ea >> shift; line == curDL {
					cs.drh++
				} else if curIL == noLine || (line^curIL)&imask != 0 {
					if !cc.Access(ea, cache.DRead) {
						cyc += missP
					}
					curDL = line
				} else {
					var ra uint32
					if it.f&4 == 0 {
						ra = TextBase + uint32(it.fpc)<<2 + 4
					}
					var c, cv int64
					curIL, curDL, c, cv = dataSlowV(m, ea, cache.DRead, line, curIL, curDL, imask, ra, shift)
					cyc += c
					ihits += uint64(cv)
				}
				pb := ea &^ (PageBytes - 1)
				pe := &m.pageCache[pageCacheIdx(ea)]
				pg := pe.p
				if pe.base != pb {
					pg = m.pageSlow(pb)
				}
				o := ea & (PageBytes - 4)
				m.regs[it.rd] = int32(binary.BigEndian.Uint32(pg[o : o+4]))
			}
			if it.f&4 != 0 {
				ia2 := TextBase + uint32(it.fpc)<<2 + 4
				if !cc.Access(ia2, cache.IFetch) {
					cyc += missP
				}
				curIL = ia2 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			m.regs[it.rd2] = m.regs[it.rs1b] << (uint32(m.regs[it.s2rb]+it.imm2) & 31)
			if it.f&8 != 0 {
				ia3 := TextBase + uint32(it.fpc)<<2 + 8
				if !cc.Access(ia3, cache.IFetch) {
					cyc += missP
				}
				curIL = ia3 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			m.regs[uint8(it.cm)] = m.regs[uint8(it.cm>>8)] + m.regs[it.c3&0xff] + int32(int16(it.c3>>16))

		case tSllAddLd:
			// sll+add+ld: two ALU slots, then a slot-C load that
			// faults with both earlier slots retired (dN/dPc 2) and
			// kill-repairs against the next item's precounted fetch.
			m.regs[it.rd] = m.regs[it.rs1] << (uint32(m.regs[it.s2r]+it.imm) & 31)
			hb3 := int64(it.hb)
			if it.f&4 == 0 {
				hb3++ // the batched second fetch has now executed
			} else {
				ia2 := TextBase + uint32(it.fpc)<<2 + 4
				if !cc.Access(ia2, cache.IFetch) {
					cyc += missP
				}
				curIL = ia2 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			m.regs[it.rd2] = m.regs[it.rs1b] + m.regs[it.s2rb] + it.imm2
			if it.f&8 == 0 {
				hb3++
			} else {
				ia3 := TextBase + uint32(it.fpc)<<2 + 8
				if !cc.Access(ia3, cache.IFetch) {
					cyc += missP
				}
				curIL = ia3 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			ea := uint32(m.regs[uint8(it.cm>>8)] + m.regs[it.c3&0xff] + int32(int16(it.c3>>16)))
			if ea&3 != 0 {
				fn, fIL, fDL, fih, fcb := cs.fault(curIL, curDL, ihits+uint64(uint16(hb3)), ccb,
					cyc, cp, it, 2, 2, "unaligned load at %#x", ea)
				return p, fn, fIL, fDL, fih, fcb, 0, true
			}
			if m.LoadHook != nil {
				var ex bool
				curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
					ihits, ccb, cyc, ea, uint16(hb3), it.rx, uint8(it.cm), cache.DRead, false, cp.memx, 2, 3)
				if ex {
					return p, nil, curIL, curDL, ihits, ccb, 0, true
				}
				break
			}
			if line := ea >> shift; line == curDL {
				cs.drh++
			} else if curIL == noLine || (line^curIL)&imask != 0 {
				if !cc.Access(ea, cache.DRead) {
					cyc += missP
				}
				curDL = line
			} else {
				var c, cv int64
				curIL, curDL, c, cv = dataSlowV(m, ea, cache.DRead, line, curIL, curDL, imask, it.rx, shift)
				cyc += c
				ihits += uint64(cv)
			}
			pb := ea &^ (PageBytes - 1)
			pe := &m.pageCache[pageCacheIdx(ea)]
			pg := pe.p
			if pe.base != pb {
				pg = m.pageSlow(pb)
			}
			o := ea & (PageBytes - 4)
			m.regs[uint8(it.cm)] = int32(binary.BigEndian.Uint32(pg[o : o+4]))

		case tOrLdSll, tAddLdSll:
			// alu+ld+sll: the slot-B load faults with one slot retired
			// (dN/dPc 1) and kill-repairs against the op's own third
			// fetch when precounted (a crossing one probes below).
			if it.kind == tOrLdSll {
				m.regs[it.rd] = m.regs[it.rs1] | (m.regs[it.s2r] + it.imm)
			} else {
				m.regs[it.rd] = m.regs[it.rs1] + m.regs[it.s2r] + it.imm
			}
			hb2 := int64(it.hb)
			if it.f&4 == 0 {
				hb2++ // the batched second fetch has now executed
			} else {
				ia2 := TextBase + uint32(it.fpc)<<2 + 4
				if !cc.Access(ia2, cache.IFetch) {
					cyc += missP
				}
				curIL = ia2 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			ea := uint32(m.regs[it.rs1b] + m.regs[it.s2rb] + it.imm2)
			if ea&3 != 0 {
				fn, fIL, fDL, fih, fcb := cs.fault(curIL, curDL, ihits+uint64(uint16(hb2)), ccb,
					cyc, cp, it, 1, 1, "unaligned load at %#x", ea)
				return p, fn, fIL, fDL, fih, fcb, 0, true
			}
			if m.LoadHook != nil {
				var ra uint32
				if it.f&8 == 0 {
					ra = TextBase + uint32(it.fpc)<<2 + 8
				}
				var ex bool
				curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
					ihits, ccb, cyc, ea, uint16(hb2), ra, it.rd2, cache.DRead, false, cp.memx, 1, 2)
				if ex {
					return p, nil, curIL, curDL, ihits, ccb, 0, true
				}
			} else {
				if line := ea >> shift; line == curDL {
					cs.drh++
				} else if curIL == noLine || (line^curIL)&imask != 0 {
					if !cc.Access(ea, cache.DRead) {
						cyc += missP
					}
					curDL = line
				} else {
					var ra uint32
					if it.f&8 == 0 {
						ra = TextBase + uint32(it.fpc)<<2 + 8
					}
					var c, cv int64
					curIL, curDL, c, cv = dataSlowV(m, ea, cache.DRead, line, curIL, curDL, imask, ra, shift)
					cyc += c
					ihits += uint64(cv)
				}
				pb := ea &^ (PageBytes - 1)
				pe := &m.pageCache[pageCacheIdx(ea)]
				pg := pe.p
				if pe.base != pb {
					pg = m.pageSlow(pb)
				}
				o := ea & (PageBytes - 4)
				m.regs[it.rd2] = int32(binary.BigEndian.Uint32(pg[o : o+4]))
			}
			if it.f&8 != 0 {
				ia3 := TextBase + uint32(it.fpc)<<2 + 8
				if !cc.Access(ia3, cache.IFetch) {
					cyc += missP
				}
				curIL = ia3 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			m.regs[uint8(it.cm)] = m.regs[uint8(it.cm>>8)] << (uint32(m.regs[it.c3&0xff]+int32(int16(it.c3>>16))) & 31)

		case tLdAddLd:
			// ld+add+ld pointer chase: slot A is tLdLd's first half,
			// slot C reads the registers as they stand after A and B —
			// program order, even when the add clobbers an address
			// register the slot-C load names.
			{
				ea := uint32(m.regs[it.rs1] + m.regs[it.s2r] + it.imm)
				if ea&3 != 0 {
					fn, fIL, fDL, fih, fcb := cs.fault(curIL, curDL, ihits+uint64(it.hb), ccb,
						cyc, cp, it, 0, 0, "unaligned load at %#x", ea)
					return p, fn, fIL, fDL, fih, fcb, 0, true
				}
				if m.LoadHook != nil {
					var ra uint32
					if it.f&4 == 0 {
						ra = TextBase + uint32(it.fpc)<<2 + 4
					}
					var ex bool
					curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
						ihits, ccb, cyc, ea, it.hb, ra, it.rd, cache.DRead, false, cp.memx, 0, 1)
					if ex {
						return p, nil, curIL, curDL, ihits, ccb, 0, true
					}
				} else {
					if line := ea >> shift; line == curDL {
						cs.drh++
					} else if curIL == noLine || (line^curIL)&imask != 0 {
						if !cc.Access(ea, cache.DRead) {
							cyc += missP
						}
						curDL = line
					} else {
						var ra uint32
						if it.f&4 == 0 {
							ra = TextBase + uint32(it.fpc)<<2 + 4
						}
						var c, cv int64
						curIL, curDL, c, cv = dataSlowV(m, ea, cache.DRead, line, curIL, curDL, imask, ra, shift)
						cyc += c
						ihits += uint64(cv)
					}
					pb := ea &^ (PageBytes - 1)
					pe := &m.pageCache[pageCacheIdx(ea)]
					pg := pe.p
					if pe.base != pb {
						pg = m.pageSlow(pb)
					}
					o := ea & (PageBytes - 4)
					m.regs[it.rd] = int32(binary.BigEndian.Uint32(pg[o : o+4]))
				}
			}
			hb3 := int64(it.hb)
			if it.f&4 == 0 {
				hb3++ // the batched second fetch has now executed
			} else {
				ia2 := TextBase + uint32(it.fpc)<<2 + 4
				if !cc.Access(ia2, cache.IFetch) {
					cyc += missP
				}
				curIL = ia2 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			m.regs[it.rd2] = m.regs[it.rs1b] + m.regs[it.s2rb] + it.imm2
			if it.f&8 == 0 {
				hb3++
			} else {
				ia3 := TextBase + uint32(it.fpc)<<2 + 8
				if !cc.Access(ia3, cache.IFetch) {
					cyc += missP
				}
				curIL = ia3 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			ea := uint32(m.regs[uint8(it.cm>>8)] + m.regs[it.c3&0xff] + int32(int16(it.c3>>16)))
			if ea&3 != 0 {
				fn, fIL, fDL, fih, fcb := cs.fault(curIL, curDL, ihits+uint64(uint16(hb3)), ccb,
					cyc+cp.memx, cp, it, 2, 2, "unaligned load at %#x", ea)
				return p, fn, fIL, fDL, fih, fcb, 0, true
			}
			if m.LoadHook != nil {
				var ex bool
				curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
					ihits, ccb, cyc, ea, uint16(hb3), it.rx, uint8(it.cm), cache.DRead, false, 2*cp.memx, 2, 3)
				if ex {
					return p, nil, curIL, curDL, ihits, ccb, 0, true
				}
				break
			}
			if line := ea >> shift; line == curDL {
				cs.drh++
			} else if curIL == noLine || (line^curIL)&imask != 0 {
				if !cc.Access(ea, cache.DRead) {
					cyc += missP
				}
				curDL = line
			} else {
				var c, cv int64
				curIL, curDL, c, cv = dataSlowV(m, ea, cache.DRead, line, curIL, curDL, imask, it.rx, shift)
				cyc += c
				ihits += uint64(cv)
			}
			pb := ea &^ (PageBytes - 1)
			pe := &m.pageCache[pageCacheIdx(ea)]
			pg := pe.p
			if pe.base != pb {
				pg = m.pageSlow(pb)
			}
			o := ea & (PageBytes - 4)
			m.regs[uint8(it.cm)] = int32(binary.BigEndian.Uint32(pg[o : o+4]))

		case tSet2Ld:
			// sethi+or+ld: the merged constant commits after the or's
			// fetch, before the slot-C load that typically uses rd as
			// its address base. The memop rides in the rd2 slots but
			// is the THIRD instruction: faults and patch exits land
			// at +2/+3.
			hb3 := int64(it.hb)
			if it.f&4 == 0 {
				hb3++
			} else {
				ia2 := TextBase + uint32(it.fpc)<<2 + 4
				if !cc.Access(ia2, cache.IFetch) {
					cyc += missP
				}
				curIL = ia2 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			m.regs[it.rd] = it.imm
			if it.f&8 == 0 {
				hb3++
			} else {
				ia3 := TextBase + uint32(it.fpc)<<2 + 8
				if !cc.Access(ia3, cache.IFetch) {
					cyc += missP
				}
				curIL = ia3 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			ea := uint32(m.regs[it.rs1b] + m.regs[it.s2rb] + it.imm2)
			if ea&3 != 0 {
				fn, fIL, fDL, fih, fcb := cs.fault(curIL, curDL, ihits+uint64(uint16(hb3)), ccb,
					cyc, cp, it, 2, 2, "unaligned load at %#x", ea)
				return p, fn, fIL, fDL, fih, fcb, 0, true
			}
			if m.LoadHook != nil {
				var ex bool
				curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
					ihits, ccb, cyc, ea, uint16(hb3), it.rx, it.rd2, cache.DRead, false, cp.memx, 2, 3)
				if ex {
					return p, nil, curIL, curDL, ihits, ccb, 0, true
				}
				break
			}
			if line := ea >> shift; line == curDL {
				cs.drh++
			} else if curIL == noLine || (line^curIL)&imask != 0 {
				if !cc.Access(ea, cache.DRead) {
					cyc += missP
				}
				curDL = line
			} else {
				var c, cv int64
				curIL, curDL, c, cv = dataSlowV(m, ea, cache.DRead, line, curIL, curDL, imask, it.rx, shift)
				cyc += c
				ihits += uint64(cv)
			}
			pb := ea &^ (PageBytes - 1)
			pe := &m.pageCache[pageCacheIdx(ea)]
			pg := pe.p
			if pe.base != pb {
				pg = m.pageSlow(pb)
			}
			o := ea & (PageBytes - 4)
			m.regs[it.rd2] = int32(binary.BigEndian.Uint32(pg[o : o+4]))

		case tSet2St:
			// tSet2Ld with a store in slot C: tSt's full protocol.
			hb3 := int64(it.hb)
			if it.f&4 == 0 {
				hb3++
			} else {
				ia2 := TextBase + uint32(it.fpc)<<2 + 4
				if !cc.Access(ia2, cache.IFetch) {
					cyc += missP
				}
				curIL = ia2 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			m.regs[it.rd] = it.imm
			if it.f&8 == 0 {
				hb3++
			} else {
				ia3 := TextBase + uint32(it.fpc)<<2 + 8
				if !cc.Access(ia3, cache.IFetch) {
					cyc += missP
				}
				curIL = ia3 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			ea := uint32(m.regs[it.rs1b] + m.regs[it.s2rb] + it.imm2)
			if ea&3 != 0 {
				fn, fIL, fDL, fih, fcb := cs.fault(curIL, curDL, ihits+uint64(uint16(hb3)), ccb,
					cyc, cp, it, 2, 2, "unaligned store at %#x", ea)
				return p, fn, fIL, fDL, fih, fcb, 0, true
			}
			if m.StoreHook != nil {
				var ex bool
				curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
					ihits, ccb, cyc, ea, uint16(hb3), it.rx, it.rd2, cache.DWrite, false, cp.memx, 2, 3)
				if ex {
					return p, nil, curIL, curDL, ihits, ccb, 0, true
				}
				break
			}
			if line := ea >> shift; line == curDL {
				cs.dwh++
			} else if curIL == noLine || (line^curIL)&imask != 0 {
				if !cc.Access(ea, cache.DWrite) {
					cyc += missP
				}
				curDL = line
			} else {
				var c, cv int64
				curIL, curDL, c, cv = dataSlowV(m, ea, cache.DWrite, line, curIL, curDL, imask, it.rx, shift)
				cyc += c
				ihits += uint64(cv)
			}
			pb := ea &^ (PageBytes - 1)
			pe := &m.pageCache[pageCacheIdx(ea)]
			pg := pe.p
			if pe.base != pb {
				pg = m.pageSlow(pb)
			}
			o := ea & (PageBytes - 4)
			binary.BigEndian.PutUint32(pg[o:o+4], uint32(m.regs[it.rd2]))

		case tLdAddSt, tLdSubSt, tLdOrSt:
			// Canonical read-modify-write: the slot-A load follows
			// tLdSt's first half, and the slot-C store recomputes its
			// address from the live registers (sameAddr guarantees its
			// fields equal the load's) — program-order exact even when
			// the op clobbers the address register. Load hooks exit at
			// +1, store hooks at +3.
			{
				ea := uint32(m.regs[it.rs1] + m.regs[it.s2r] + it.imm)
				if ea&3 != 0 {
					fn, fIL, fDL, fih, fcb := cs.fault(curIL, curDL, ihits+uint64(it.hb), ccb,
						cyc, cp, it, 0, 0, "unaligned load at %#x", ea)
					return p, fn, fIL, fDL, fih, fcb, 0, true
				}
				if m.LoadHook != nil {
					var ra uint32
					if it.f&4 == 0 {
						ra = TextBase + uint32(it.fpc)<<2 + 4
					}
					var ex bool
					curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
						ihits, ccb, cyc, ea, it.hb, ra, it.rd, cache.DRead, false, cp.memx, 0, 1)
					if ex {
						return p, nil, curIL, curDL, ihits, ccb, 0, true
					}
				} else {
					if line := ea >> shift; line == curDL {
						cs.drh++
					} else if curIL == noLine || (line^curIL)&imask != 0 {
						if !cc.Access(ea, cache.DRead) {
							cyc += missP
						}
						curDL = line
					} else {
						var ra uint32
						if it.f&4 == 0 {
							ra = TextBase + uint32(it.fpc)<<2 + 4
						}
						var c, cv int64
						curIL, curDL, c, cv = dataSlowV(m, ea, cache.DRead, line, curIL, curDL, imask, ra, shift)
						cyc += c
						ihits += uint64(cv)
					}
					pb := ea &^ (PageBytes - 1)
					pe := &m.pageCache[pageCacheIdx(ea)]
					pg := pe.p
					if pe.base != pb {
						pg = m.pageSlow(pb)
					}
					o := ea & (PageBytes - 4)
					m.regs[it.rd] = int32(binary.BigEndian.Uint32(pg[o : o+4]))
				}
			}
			hb3 := int64(it.hb)
			if it.f&4 == 0 {
				hb3++ // the batched second fetch has now executed
			} else {
				ia2 := TextBase + uint32(it.fpc)<<2 + 4
				if !cc.Access(ia2, cache.IFetch) {
					cyc += missP
				}
				curIL = ia2 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			switch it.kind {
			case tLdAddSt:
				m.regs[it.rd2] = m.regs[it.rs1b] + m.regs[it.s2rb] + it.imm2
			case tLdSubSt:
				m.regs[it.rd2] = m.regs[it.rs1b] - (m.regs[it.s2rb] + it.imm2)
			default: // tLdOrSt
				m.regs[it.rd2] = m.regs[it.rs1b] | (m.regs[it.s2rb] + it.imm2)
			}
			if it.f&8 == 0 {
				hb3++
			} else {
				ia3 := TextBase + uint32(it.fpc)<<2 + 8
				if !cc.Access(ia3, cache.IFetch) {
					cyc += missP
				}
				curIL = ia3 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			ea := uint32(m.regs[uint8(it.cm>>8)] + m.regs[it.c3&0xff] + int32(int16(it.c3>>16)))
			if ea&3 != 0 {
				fn, fIL, fDL, fih, fcb := cs.fault(curIL, curDL, ihits+uint64(uint16(hb3)), ccb,
					cyc+cp.memx, cp, it, 2, 2, "unaligned store at %#x", ea)
				return p, fn, fIL, fDL, fih, fcb, 0, true
			}
			if m.StoreHook != nil {
				var ex bool
				curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
					ihits, ccb, cyc, ea, uint16(hb3), it.rx, uint8(it.cm), cache.DWrite, false, 2*cp.memx, 2, 3)
				if ex {
					return p, nil, curIL, curDL, ihits, ccb, 0, true
				}
				break
			}
			if line := ea >> shift; line == curDL {
				cs.dwh++
			} else if curIL == noLine || (line^curIL)&imask != 0 {
				if !cc.Access(ea, cache.DWrite) {
					cyc += missP
				}
				curDL = line
			} else {
				var c, cv int64
				curIL, curDL, c, cv = dataSlowV(m, ea, cache.DWrite, line, curIL, curDL, imask, it.rx, shift)
				cyc += c
				ihits += uint64(cv)
			}
			pb := ea &^ (PageBytes - 1)
			pe := &m.pageCache[pageCacheIdx(ea)]
			pg := pe.p
			if pe.base != pb {
				pg = m.pageSlow(pb)
			}
			o := ea & (PageBytes - 4)
			binary.BigEndian.PutUint32(pg[o:o+4], uint32(m.regs[uint8(it.cm)]))

		case tOrOrOr:
			// Three ALU slots: only the interior fetches touch cache
			// state.
			m.regs[it.rd] = m.regs[it.rs1] | (m.regs[it.s2r] + it.imm)
			if it.f&4 != 0 {
				ia2 := TextBase + uint32(it.fpc)<<2 + 4
				if !cc.Access(ia2, cache.IFetch) {
					cyc += missP
				}
				curIL = ia2 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			m.regs[it.rd2] = m.regs[it.rs1b] | (m.regs[it.s2rb] + it.imm2)
			if it.f&8 != 0 {
				ia3 := TextBase + uint32(it.fpc)<<2 + 8
				if !cc.Access(ia3, cache.IFetch) {
					cyc += missP
				}
				curIL = ia3 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			m.regs[uint8(it.cm)] = m.regs[uint8(it.cm>>8)] | (m.regs[it.c3&0xff] + int32(int16(it.c3>>16)))

		// ---- chain-extension kinds: the cheap singles and pairs that sit
		// between triples in straight-line runs. run()'s dispatch never
		// enters here with one of these — only the chain step below reaches
		// them — they just keep a run alive across the glue items. Bodies
		// are verbatim copies of run()'s. ----

		case tAdd:
			m.regs[it.rd] = m.regs[it.rs1] + m.regs[it.s2r] + it.imm
		case tAddI:
			m.regs[it.rd] = m.regs[it.rs1] + it.imm
		case tSub:
			m.regs[it.rd] = m.regs[it.rs1] - (m.regs[it.s2r] + it.imm)
		case tSubI:
			m.regs[it.rd] = m.regs[it.rs1] - it.imm
		case tOr:
			m.regs[it.rd] = m.regs[it.rs1] | (m.regs[it.s2r] + it.imm)
		case tOrI:
			m.regs[it.rd] = m.regs[it.rs1] | it.imm
		case tSll:
			m.regs[it.rd] = m.regs[it.rs1] << (uint32(m.regs[it.s2r]+it.imm) & 31)
		case tSllI:
			m.regs[it.rd] = m.regs[it.rs1] << (uint32(it.imm) & 31)
		case tSet:
			m.regs[it.rd] = it.imm

		case tSet2:
			if it.f&4 != 0 {
				ia2 := TextBase + uint32(it.fpc)<<2 + 4
				if !cc.Access(ia2, cache.IFetch) {
					cyc += missP
				}
				curIL = ia2 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			m.regs[it.rd] = it.imm

		case tSllAdd, tOrAdd, tOrSub:
			if it.kind == tSllAdd {
				m.regs[it.rd] = m.regs[it.rs1] << (uint32(m.regs[it.s2r]+it.imm) & 31)
			} else {
				m.regs[it.rd] = m.regs[it.rs1] | (m.regs[it.s2r] + it.imm)
			}
			if it.f&4 != 0 {
				ia2 := TextBase + uint32(it.fpc)<<2 + 4
				if !cc.Access(ia2, cache.IFetch) {
					cyc += missP
				}
				curIL = ia2 >> shift
				if (curIL^curDL)&imask == 0 {
					curDL = noLine
				}
			}
			if it.kind == tOrSub {
				m.regs[it.rd2] = m.regs[it.rs1b] - (m.regs[it.s2rb] + it.imm2)
			} else {
				m.regs[it.rd2] = m.regs[it.rs1b] + m.regs[it.s2rb] + it.imm2
			}

		case tStI:
			ea := uint32(m.regs[it.rs1] + it.imm)
			if ea&3 != 0 {
				fn, fIL, fDL, fih, fcb := cs.fault(curIL, curDL, ihits+uint64(it.hb), ccb,
					cyc, cp, it, 0, 0, "unaligned store at %#x", ea)
				return p, fn, fIL, fDL, fih, fcb, 0, true
			}
			if m.StoreHook != nil {
				var ex bool
				curIL, curDL, ihits, cyc, ex = cs.hookedAccess(cp, it,
					ihits, ccb, cyc, ea, it.hb, it.rx, it.rd, cache.DWrite, false, cp.memx, 0, 1)
				if ex {
					return p, nil, curIL, curDL, ihits, ccb, 0, true
				}
				break
			}
			if line := ea >> shift; line == curDL {
				cs.dwh++
			} else if curIL == noLine || (line^curIL)&imask != 0 {
				if !cc.Access(ea, cache.DWrite) {
					cyc += missP
				}
				curDL = line
			} else {
				var c, cv int64
				curIL, curDL, c, cv = dataSlowV(m, ea, cache.DWrite, line, curIL, curDL, imask, it.rx, shift)
				cyc += c
				ihits += uint64(cv)
			}
			pb := ea &^ (PageBytes - 1)
			pe := &m.pageCache[pageCacheIdx(ea)]
			pg := pe.p
			if pe.base != pb {
				pg = m.pageSlow(pb)
			}
			o := ea & (PageBytes - 4)
			binary.BigEndian.PutUint32(pg[o:o+4], uint32(m.regs[it.rd]))

		case tBA:
			ihits += uint64(it.hb)
			cyc += ctlCyc(it) + cp.taken
		}
		// Chain: if the next item is also an outlined kind, retire it here
		// instead of bouncing back through the caller's dispatch. The walk is
		// safe unbounded: tEnd terminates every trace and is never outlined.
		// (Chaining conditional branches on their predicted edge was tried —
		// peek the decision, bail to run's hop tail on exits — and measured
		// ~7% SLOWER: the peek double-evaluates the compare and the extra
		// cases grow the hottest loop past what the saved bounce buys.)
		nx := (*ritem)(p)
		if !chainKinds[nx.kind] {
			return p, nil, curIL, curDL, ihits, ccb, cyc, false
		}
		it = nx
		p = unsafe.Add(p, itemSize)
		// First ifetch, same protocol as the caller's per-item prologue.
		if k := it.f & 3; k != 0 {
			ia := TextBase + uint32(it.fpc)<<2
			if line := ia >> shift; (k == 1 && curIL != noLine) || line == curIL {
				ihits++
			} else {
				if !cc.Access(ia, cache.IFetch) {
					cyc += missP
				}
				if (line^curDL)&imask == 0 {
					curDL = noLine
				}
				curIL = line
			}
		}
	}
}

// runOutlinedDW retires the double-word pairs tLdd/tStd. No compiled
// workload emits them (minic never generates ldd/std), so they live on
// their own rare path rather than spending runOutlined's node budget —
// keeping that function under the big-function threshold is what keeps the
// cache probes on the chained triple path inlined. Results follow
// runOutlined's contract minus the stream pointer: done means fault or hook
// exit.
func (cp *closProg) runOutlinedDW(m *Machine, it *ritem, curIL, curDL uint32, ihits uint64, ccb uint8, cyc int64) (cfn, uint32, uint32, uint64, uint8, int64, bool) {
	shift := cp.shift
	switch it.kind {
	case tLdd:
		ea := uint32(m.regs[it.rs1] + m.regs[it.s2r] + it.imm)
		if ea&7 != 0 {
			fn, fIL, fDL, fih, fcb := m.cstate.fault(curIL, curDL, ihits+uint64(it.hb), ccb,
				cyc, cp, it, 0, 0, "unaligned ldd at %#x", ea)
			return fn, fIL, fDL, fih, fcb, 0, true
		}
		if m.LoadHook != nil {
			var ex bool
			curIL, curDL, ihits, cyc, ex = m.cstate.hookedAccess(cp, it,
				ihits, ccb, cyc, ea, it.hb, it.rx, it.rd, cache.DRead, true, 2*cp.memx, 0, 1)
			if ex {
				return nil, curIL, curDL, ihits, ccb, 0, true
			}
			break
		}
		if line := ea >> shift; (ea+4)>>shift != line {
			// Straddle (lines narrower than 8 bytes): both words
			// probe, repair deferred — see dataSlow2V.
			var c, cv int64
			curIL, curDL, c, cv = dataSlow2V(m, ea, cache.DRead, line, curIL, curDL, m.cstate.imask, it.rx, shift)
			cyc += c
			ihits += uint64(cv)
		} else if line == curDL {
			m.cstate.drh++
		} else if curIL == noLine || (line^curIL)&m.cstate.imask != 0 {
			// Clean D-line change (no I-tracker alias) stays inline: probe
			// and retarget — the kill-and-repair path is the rare one.
			if !m.cache.Access(ea, cache.DRead) {
				cyc += m.costs.MissPenalty
			}
			curDL = line
		} else {
			var c, cv int64
			curIL, curDL, c, cv = dataSlowV(m, ea, cache.DRead, line, curIL, curDL, m.cstate.imask, it.rx, shift)
			cyc += c
			ihits += uint64(cv)
		}
		m.regs[it.rd] = m.ReadWord(ea)
		m.regs[it.rd+1] = m.ReadWord(ea + 4)

	case tStd:
		ea := uint32(m.regs[it.rs1] + m.regs[it.s2r] + it.imm)
		if ea&7 != 0 {
			fn, fIL, fDL, fih, fcb := m.cstate.fault(curIL, curDL, ihits+uint64(it.hb), ccb,
				cyc, cp, it, 0, 0, "unaligned std at %#x", ea)
			return fn, fIL, fDL, fih, fcb, 0, true
		}
		if m.StoreHook != nil {
			var ex bool
			curIL, curDL, ihits, cyc, ex = m.cstate.hookedAccess(cp, it,
				ihits, ccb, cyc, ea, it.hb, it.rx, it.rd, cache.DWrite, true, 2*cp.memx, 0, 1)
			if ex {
				return nil, curIL, curDL, ihits, ccb, 0, true
			}
			break
		}
		if line := ea >> shift; (ea+4)>>shift != line {
			// Straddle (lines narrower than 8 bytes): both words
			// probe, repair deferred — see dataSlow2V.
			var c, cv int64
			curIL, curDL, c, cv = dataSlow2V(m, ea, cache.DWrite, line, curIL, curDL, m.cstate.imask, it.rx, shift)
			cyc += c
			ihits += uint64(cv)
		} else if line == curDL {
			m.cstate.dwh++
		} else if curIL == noLine || (line^curIL)&m.cstate.imask != 0 {
			// Clean D-line change (no I-tracker alias) stays inline: probe
			// and retarget — the kill-and-repair path is the rare one.
			if !m.cache.Access(ea, cache.DWrite) {
				cyc += m.costs.MissPenalty
			}
			curDL = line
		} else {
			var c, cv int64
			curIL, curDL, c, cv = dataSlowV(m, ea, cache.DWrite, line, curIL, curDL, m.cstate.imask, it.rx, shift)
			cyc += c
			ihits += uint64(cv)
		}
		m.storeWord(ea, m.regs[it.rd])
		m.storeWord(ea+4, m.regs[it.rd+1])
	}
	return nil, curIL, curDL, ihits, ccb, cyc, false
}

// stop commits n instructions (cyc dynamic cycles plus the folded base) and
// returns control to the dispatcher at npc — budget exhaustion and
// store-boundary patch exits. It sits last because the functions laid out
// ahead of runOutlined set its address mod 64.
//
//go:noinline
func (s *cst) stop(curIL, curDL uint32, ihits uint64, ccb uint8, cyc, n int64, npc int32) (cfn, uint32, uint32, uint64, uint8) {
	s.inst += n
	s.cycs += cyc + s.base*n
	s.rem -= n
	s.npc = npc
	return nil, curIL, curDL, ihits, ccb
}
