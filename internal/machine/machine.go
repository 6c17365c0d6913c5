// Package machine executes programs for the SPARC-subset ISA with a cycle
// cost model and a direct-mapped combined cache, reproducing the performance
// envelope of the workstation used in "Practical Data Breakpoints" (PLDI
// 1993).
//
// The machine is deliberately observable: the debugger side of the monitored
// region service reads and writes simulated memory directly, patches
// instructions at run time (Kessler-style fast breakpoints), and receives
// callbacks on monitor hits, range-check hits, and control-flow-check
// violations, all without perturbing the cycle count of the program being
// debugged except where the paper's design says it must.
package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// Address-space layout. These are conventions shared with the assembler.
const (
	TextBase  uint32 = 0x0001_0000 // instruction addresses (4 bytes each)
	DataBase  uint32 = 0x2000_0000 // .data and .bss
	HeapBase  uint32 = 0x4000_0000 // trap-based allocator arena
	StackTop  uint32 = 0xEFFF_FFF0 // initial %sp (grows down)
	MonBase   uint32 = 0x8000_0000 // monitor library data structures
	PageBytes        = 1 << 12
)

// Trap numbers for the ta instruction.
const (
	TrapExit     int32 = iota // halt; exit code in %o0
	TrapPrintInt              // print %o0 as signed decimal + newline
	TrapPrintCh               // print %o0 as a byte
	TrapPrintStr              // print bytes at [%o0], length %o1
	TrapAlloc                 // %o0 = size in bytes -> %o0 = pointer
	TrapFree                  // free pointer in %o0
	TrapMonHit4               // monitor hit, 1 word,  address in %g5
	TrapMonHit8               // monitor hit, 2 words, address in %g5
	TrapRangeHit              // pre-header range check hit; site id in %o0
	TrapCtlCheck              // control-flow check violation; detail in %o0
	TrapMonRead4              // monitor hit on a 1-word READ, address in %g5
	TrapMonRead8              // monitor hit on a 2-word READ, address in %g5
)

// NWindows is the number of physical register windows. Deeper call chains
// trigger overflow spills, as on a real SPARC.
const NWindows = 8

// Costs parameterizes the cycle model. Zero value is not useful; use
// DefaultCosts.
type Costs struct {
	Base        int64 // every instruction
	MemExtra    int64 // extra cycles for a load/store that hits the cache
	MissPenalty int64 // additional cycles on any cache miss (ifetch or data)
	TakenBranch int64 // extra cycles for a taken branch/call/jmpl
	Mul         int64 // extra cycles for smul
	Div         int64 // extra cycles for sdiv
	Trap        int64 // extra cycles for ta (OS service entry/exit)
	WindowSpill int64 // extra cycles for window overflow or underflow
}

// DefaultCosts approximates the SPARCstation generation the paper measured:
// single-issue, 1-cycle register ops, loads 2 cycles on a hit, a handful of
// cycles on a miss (the paper's break-even analysis assumes loads take 2-8
// cycles), multi-cycle multiply/divide, and expensive traps.
var DefaultCosts = Costs{
	Base:        1,
	MemExtra:    1,
	MissPenalty: 8,
	TakenBranch: 1,
	Mul:         4,
	Div:         18,
	Trap:        40, // library-call cost: the trap services model libc routines
	WindowSpill: 64,
}

// Fault describes a runtime error in the simulated program.
type Fault struct {
	PC     int32
	Instr  sparc.Instr
	Reason string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("machine fault at pc=%d (%s): %s", f.PC, f.Instr, f.Reason)
}

type winRegs struct {
	o, l, i [8]int32
}

// Counters records dynamic event counts declared via sparc.Instr.Count.
type Counters []uint64

// Machine is a simulated processor plus memory. Create with New, load a
// program with LoadText/LoadData (usually via the asm package), then Run.
//
// A Machine is NOT safe for concurrent use: every method — execution (Run,
// RunFor, Step), debugger accesses (ReadWord, WriteWord, Reg, SetReg), and
// text patching (PatchInstr) — must be externally serialized, except
// RequestStop and WithdrawStop, which any goroutine may call while Run or
// RunFor runs. The intended multiplexing point is monitor.Session, whose
// per-machine mutex serializes control operations against execution and
// which stops a running RunFor before taking it; see DESIGN.md §7. Distinct
// Machines share nothing and may run on any number of goroutines.
type Machine struct {
	text []sparc.Instr
	// uops is the block-dispatch index derived from text; see blocks.go.
	// uops[i] is text[i] predecoded, and uops[i].bl counts the straight-line
	// instructions starting at i (0 when text[i] is a block terminator).
	// textGen increments on every text mutation so an in-flight block can
	// detect a patch landing under it.
	uops    []uop
	textGen uint32
	// heads counts the block heads, which buildUops numbers densely in
	// text order (uop.slot) and PatchInstr extends: the number of closure
	// slots the compiled tier holds for this text.
	heads int32
	// imgShared marks text/uops as views into a shared Image (LoadImage):
	// they are read-only until PatchInstr privatizes both (copy-on-write,
	// see image.go). LoadText always installs private arrays. img retains
	// the attached image so the compiled tier can reach its closures.
	imgShared bool
	img       *Image
	// engine selects the Run/RunFor execution strategy; the compiled-tier
	// state below is maintained by syncTraceState (trace.go). traces[s],
	// when non-nil, is the closure (closure.go) compiled at the head whose
	// uop.slot is s, or the declined sentinel — the image's shared slots
	// when the machine shares them (sharesTraces), which any attached
	// machine may fill on first entry of a head (hence atomic), the
	// machine's own slots otherwise, filled the same way. Non-nil exactly
	// when EngineClosure is active over non-empty text.
	engine Engine
	// stops counts the pending stop requests (RequestStop minus
	// WithdrawStop); RunFor returns at its next dispatch boundary while it
	// is nonzero. It sits in engine's padding, so the interpreter's hot
	// fields keep their offsets.
	stops  atomic.Int32
	traces []atomic.Pointer[closProg]
	// cstate is execClosures' reusable spill area (closure.go): dispatching
	// a compiled closure chain must not allocate, and the pointer handed to
	// the closures would otherwise force a fresh heap cst per dispatch.
	cstate cst
	pc     int32
	// regs is the architecturally visible register file of the CURRENT
	// window, flat: %g0-%g7, %o0-%o7, %l0-%l7, %i0-%i7, plus one scratch
	// slot (index 32) that absorbs block-engine writes destined for %g0.
	// Keeping one flat view makes every register access a single index —
	// the interpreter's hottest operation — at the price of copying 24
	// words on the (rare) save/restore. regs[0] (%g0) and the scratch slot
	// are never read-visible, so reads need no guard. The array is sized
	// 256 so that any uint8 register index is provably in range: the block
	// engine's register accesses then compile without bounds checks.
	regs     [256]int32
	win      []winRegs // caller frames; win[len-1] is the direct parent
	resident int       // windows currently held in the register file
	// ccb is the condition-code register packed into the condMask bit
	// index (see blocks.go): N=8, Z=4, V=2, C=1. Branch evaluation is then
	// one table lookup; ccFromBits rebuilds the sparc.CC view on demand.
	ccb   uint8
	pages map[uint32]*[PageBytes]byte
	// pageCache short-circuits the pages map on the interpreter's
	// load/store path: direct-mapped by page number, so the stack page and
	// the globals page (which real programs alternate between every few
	// instructions) occupy distinct slots instead of evicting each other.
	// base 1 marks an empty slot (bases are always page aligned). Pages are
	// never removed from the map, so cached pointers never go stale.
	pageCache [nPageCache]pageCacheEnt

	cache *cache.Cache
	costs Costs

	cycles   int64
	instrs   int64
	halted   bool
	exitCode int32

	output bytes.Buffer

	heapNext uint32
	freeList map[uint32][]uint32 // size -> free pointers

	// MaxInstrs bounds execution (guard against runaway programs).
	MaxInstrs int64

	// PerInstrPenalty adds a fixed cycle cost to every instruction; the
	// trap-per-instruction (dbx-style) baseline strategy sets this.
	PerInstrPenalty int64

	// StoreHook, if non-nil, is consulted on every store with the effective
	// address and size; it returns extra cycles to charge. The page
	// protection and hardware watchpoint baselines use it.
	StoreHook func(addr uint32, size int32) int64

	// LoadHook, if non-nil, is consulted on every load with the effective
	// address and size; it returns extra cycles to charge. It is the load
	// mirror of StoreHook — the hardware-watchpoint baseline for read
	// watchpoints uses it — and it obeys the same contract in every engine:
	// the hook fires BEFORE the load's data access, observes exact simulated
	// counts, and may patch text (the block and closure engines exit the
	// compiled region cleanly when it does).
	LoadHook func(addr uint32, size int32) int64

	// OnMonHit is invoked when check code raises TrapMonHit: a store touched
	// a monitored region. addr is the store's target, size 4 or 8.
	OnMonHit func(addr uint32, size int32)

	// OnMonRead is invoked for TrapMonRead: a load touched a monitored
	// region (the read-monitoring extension of §5).
	OnMonRead func(addr uint32, size int32)

	// OnRangeHit is invoked when a loop pre-header range check intersects a
	// monitored region; id identifies the pre-header site so the MRS can
	// re-insert the eliminated in-loop checks.
	OnRangeHit func(id int32)

	// OnCtlViolation is invoked when a control-flow integrity check fails
	// (indirect jump to an illegitimate target, or a corrupted %fp).
	OnCtlViolation func(detail int32)

	// Counters holds event counts; sized on demand by SetCounterCount.
	Counters Counters

	// tb is the scratch this machine compiles traces with, reused across
	// its first-entry compiles (compileHead, trace.go). Last, so the
	// interpreter's hot fields keep their offsets.
	tb traceBuilder
}

// New returns a machine with the given cache geometry and cost model.
func New(cfg cache.Config, costs Costs) *Machine {
	m := &Machine{
		pages: make(map[uint32]*[PageBytes]byte),
		// Pre-size the window stack so deep call chains do not reallocate
		// it mid-run (the fault-free path stays allocation-free).
		win:       make([]winRegs, 0, 64),
		cache:     cache.New(cfg),
		costs:     costs,
		heapNext:  HeapBase,
		freeList:  make(map[uint32][]uint32),
		MaxInstrs: 4_000_000_000,
	}
	for i := range m.pageCache {
		m.pageCache[i].base = 1 // never matches a page-aligned base
	}
	m.Reset()
	return m
}

// Reset restores registers, windows, cycle counts, heap, and cache to their
// initial state. Loaded text and data are preserved.
func (m *Machine) Reset() {
	m.regs = [256]int32{}
	m.win = m.win[:0]
	m.resident = 1
	m.ccb = 0
	m.pc = 0
	m.cycles = 0
	m.instrs = 0
	m.halted = false
	m.exitCode = 0
	m.output.Reset()
	m.heapNext = HeapBase
	m.freeList = make(map[uint32][]uint32)
	m.cache.Flush()
	m.cache.ResetStats()
	top := StackTop
	m.regs[sparc.O6] = int32(top)
	m.regs[sparc.I6] = int32(top)
	for i := range m.Counters {
		m.Counters[i] = 0
	}
}

// LoadText installs the program text, (re)builds the block-dispatch index
// and gives its block heads slots, whose traces compile on first entry as
// an image's do. PC starts at entry (a text index). After LoadText the text
// slice is owned by the machine: all further mutation must go through
// PatchInstr so the block index stays coherent.
func (m *Machine) LoadText(text []sparc.Instr, entry int32) {
	if m.imgShared {
		// Drop the shared view before buildUops reuses uops capacity:
		// the old slice belongs to an Image other machines may be executing.
		m.uops = nil
		m.imgShared = false
	}
	m.text = text
	m.img = nil
	m.pc = entry
	m.uops, m.heads = buildUops(m.text, m.uops, entry)
	m.textGen++
	m.syncTraceState()
}

// InstrAt returns the instruction at text index idx. ok is false when idx is
// outside the loaded text (the debugger asked for an address that is not
// code); no fault is raised, since this is a debugger-side read.
func (m *Machine) InstrAt(idx int32) (in sparc.Instr, ok bool) {
	if uint32(idx) >= uint32(len(m.text)) {
		return sparc.Instr{}, false
	}
	return m.text[idx], true
}

// PatchInstr replaces the instruction at text index idx, invalidating the
// corresponding I-cache line (as the real system's patching must), the
// block-dispatch index entries covering idx and every compiled trace whose
// spans cover idx, and making the block heads the new instruction creates
// (its target, its successor when it ends a block) compile on their next
// entry. It is the ONLY supported way to mutate loaded text:
// bypassing it would leave the block engine executing stale predecoded
// instructions. An out-of-range idx returns an error and changes nothing — a
// bad patch address from the debugger must not crash the simulator.
//
// When the text came from a shared Image (LoadImage), the first patch
// privatizes the text and block-index arrays (copy-on-write), so the patch
// is visible only to this machine; siblings sharing the image are untouched.
func (m *Machine) PatchInstr(idx int32, in sparc.Instr) error {
	if uint32(idx) >= uint32(len(m.text)) {
		return fmt.Errorf("machine: patch index %d outside text (%d instructions)", idx, len(m.text))
	}
	m.privatize()
	m.text[idx] = in
	m.cache.Invalidate(TextBase + uint32(idx)*4)
	m.invalidateBlock(idx)
	m.invalidateTraces(idx)
	for _, h := range createdHeads(m.text, m.uops, idx) {
		switch {
		case uint32(h) >= uint32(len(m.uops)):
		case m.uops[h].slot < 0:
			// A new head takes the next slot number. No closure runs over
			// the old slots: a hooked access that patches exits its closure
			// on the textGen check, and the dispatcher re-reads m.traces.
			m.uops[h].slot = m.heads
			m.heads++
			if m.traces != nil {
				m.traces = append(m.traces, atomic.Pointer[closProg]{})
			}
		case m.traces != nil:
			// A declined sentinel goes: the patch may have made the head
			// compilable.
			m.traces[m.uops[h].slot].CompareAndSwap(declined, nil)
		}
	}
	return nil
}

// LoadData copies raw bytes into memory at addr without cache traffic or
// cycle cost (loader action). Copies page-at-a-time, so loading a large
// data snapshot is one page lookup per 4 KiB, not per byte.
func (m *Machine) LoadData(addr uint32, data []byte) {
	for len(data) > 0 {
		p := m.page(addr)
		o := addr & (PageBytes - 1)
		n := copy(p[o:], data)
		data = data[n:]
		addr += uint32(n)
	}
}

// SetCounterCount sizes the event counter vector.
func (m *Machine) SetCounterCount(n int) {
	m.Counters = make(Counters, n)
}

// Cycles returns the accumulated cycle count.
func (m *Machine) Cycles() int64 { return m.cycles }

// Instrs returns the number of instructions executed.
func (m *Machine) Instrs() int64 { return m.instrs }

// Output returns everything the program printed.
func (m *Machine) Output() string { return m.output.String() }

// ExitCode returns the value passed to TrapExit.
func (m *Machine) ExitCode() int32 { return m.exitCode }

// Halted reports whether the program has exited.
func (m *Machine) Halted() bool { return m.halted }

// CacheStats returns the cache statistics so far.
func (m *Machine) CacheStats() cache.Stats { return m.cache.Stats() }

// Reg reads a register in the current window (debugger view).
func (m *Machine) Reg(r sparc.Reg) int32 { return m.readReg(r) }

// SetReg writes a register in the current window (debugger view). Writes to
// %g0 are ignored.
func (m *Machine) SetReg(r sparc.Reg, v int32) { m.writeReg(r, v) }

// PC returns the current text index.
func (m *Machine) PC() int32 { return m.pc }

const nPageCache = 64

type pageCacheEnt struct {
	base uint32
	p    *[PageBytes]byte
}

// pageCacheIdx maps an address to its page-cache slot. The page numbers the
// harness actually alternates between — globals (DataBase), heap (HeapBase),
// monitor structures (MonBase), segment-table entries, and the stack — are
// all offsets from power-of-two bases, so indexing by the LOW page-number
// bits alone (the old (addr>>12)&mask) made them systematically collide and
// thrash the cache into the pages map on every monitored store. Folding the
// high page-number bits in spreads those bases across distinct slots while
// keeping consecutive pages in consecutive slots.
func pageCacheIdx(addr uint32) uint32 {
	return ((addr >> 12) ^ (addr >> 20) ^ (addr >> 28)) & (nPageCache - 1)
}

// page returns the backing page for addr. The fast path — a direct-mapped
// page-cache hit — is one compare, small enough to inline into every load
// and store of the interpreter loop.
func (m *Machine) page(addr uint32) *[PageBytes]byte {
	base := addr &^ (PageBytes - 1)
	e := &m.pageCache[pageCacheIdx(addr)]
	if e.base == base {
		return e.p
	}
	return m.pageSlow(base)
}

// pageSlow is kept out of page's inlining budget so page itself stays small
// enough to inline into every load and store of the engine hot loops.
//
//go:noinline
func (m *Machine) pageSlow(base uint32) *[PageBytes]byte {
	p, ok := m.pages[base]
	if !ok {
		p = new([PageBytes]byte)
		m.pages[base] = p
	}
	m.pageCache[pageCacheIdx(base)] = pageCacheEnt{base: base, p: p}
	return p
}

func (m *Machine) pokeByte(addr uint32, b byte) {
	m.page(addr)[addr&(PageBytes-1)] = b
}

func (m *Machine) peekByte(addr uint32) byte {
	return m.page(addr)[addr&(PageBytes-1)]
}

// ReadWord reads a 32-bit big-endian word without cache traffic or cycle
// cost (debugger access).
func (m *Machine) ReadWord(addr uint32) int32 {
	p := m.page(addr)
	o := addr & (PageBytes - 1)
	if o+4 <= PageBytes {
		return int32(binary.BigEndian.Uint32(p[o : o+4]))
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v = v<<8 | uint32(m.peekByte(addr+i))
	}
	return int32(v)
}

// WriteWord writes a 32-bit big-endian word without cache traffic or cycle
// cost, invalidating any cached copy (debugger access).
func (m *Machine) WriteWord(addr uint32, v int32) {
	p := m.page(addr)
	o := addr & (PageBytes - 1)
	u := uint32(v)
	if o+4 <= PageBytes {
		binary.BigEndian.PutUint32(p[o:o+4], u)
	} else {
		for i := uint32(0); i < 4; i++ {
			m.pokeByte(addr+i, byte(u>>(24-8*i)))
		}
	}
	m.cache.Invalidate(addr)
}

// readReg needs no %g0 special case: regs[0] is never written, so it stays
// zero.
func (m *Machine) readReg(r sparc.Reg) int32 {
	return m.regs[r]
}

func (m *Machine) writeReg(r sparc.Reg, v int32) {
	if r != sparc.G0 {
		m.regs[r] = v
	}
}

func (m *Machine) operand2(in *sparc.Instr) int32 {
	if in.UseImm {
		return in.Imm
	}
	return m.readReg(in.Rs2)
}

func (m *Machine) setCCAdd(a, b, r int32) {
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
	m.ccb = bits
}

func (m *Machine) setCCSub(a, b, r int32) {
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
	m.ccb = bits
}

func (m *Machine) setCCLogic(r int32) {
	var bits uint8
	if r < 0 {
		bits = ccN
	}
	if r == 0 {
		bits |= ccZ
	}
	m.ccb = bits
}

// dataAccess charges cache+cycle cost for an n-byte data access.
//
// Doubleword accesses (Ldd/Std) are one cache reference plus a MemExtra
// cycle for the second word, matching the paper's cost model of a doubleword
// as a single memory operation. That is exact, not an approximation, for any
// line size >= 8 bytes: Ldd/Std fault on addresses not 8-byte aligned, so
// ea and ea+4 always share a line and the second word's probe would be a
// guaranteed hit. dataAccess2 preserves the accounting when lines are
// narrower than a doubleword (then the second word always has its own line
// and IS probed). All three engines implement the same split.
func (m *Machine) dataAccess(addr uint32, kind cache.Kind) {
	m.cycles += m.costs.MemExtra
	if !m.cache.Access(addr, kind) {
		m.cycles += m.costs.MissPenalty
	}
}

// dataAccess2 charges the second word of a doubleword access at addr: a free
// ride on addr's line when the line covers both words (see dataAccess), a
// full probe of its own line otherwise.
func (m *Machine) dataAccess2(addr uint32, kind cache.Kind) {
	if second := addr + 4; m.cache.Line(second) != m.cache.Line(addr) {
		m.dataAccess(second, kind)
		return
	}
	m.cycles += m.costs.MemExtra
}

func (m *Machine) fault(in sparc.Instr, format string, args ...any) error {
	return &Fault{PC: m.pc, Instr: in, Reason: fmt.Sprintf(format, args...)}
}

// Step executes one instruction. It returns an error on a machine fault.
func (m *Machine) Step() error {
	if m.halted {
		return nil
	}
	// One unsigned compare covers both pc < 0 and pc >= len(text).
	if uint32(m.pc) >= uint32(len(m.text)) {
		return &Fault{PC: m.pc, Reason: "pc outside text"}
	}
	in := &m.text[m.pc]
	m.instrs++
	m.cycles += m.costs.Base + m.PerInstrPenalty
	if !m.cache.Access(TextBase+uint32(m.pc)*4, cache.IFetch) {
		m.cycles += m.costs.MissPenalty
	}
	if in.Count != 0 {
		m.Counters[in.Count-1]++
	}
	next := m.pc + 1

	switch in.Op {
	case sparc.Nop:
		// nothing

	case sparc.Ld:
		ea := uint32(m.readReg(in.Rs1) + m.operand2(in))
		if ea&3 != 0 {
			return m.fault(*in, "unaligned load at %#x", ea)
		}
		if m.LoadHook != nil {
			m.cycles += m.LoadHook(ea, 4)
		}
		m.dataAccess(ea, cache.DRead)
		m.writeReg(in.Rd, m.ReadWord(ea))

	case sparc.Ldd:
		ea := uint32(m.readReg(in.Rs1) + m.operand2(in))
		if ea&7 != 0 {
			return m.fault(*in, "unaligned ldd at %#x", ea)
		}
		if in.Rd&1 != 0 {
			return m.fault(*in, "ldd destination must be even")
		}
		if m.LoadHook != nil {
			m.cycles += m.LoadHook(ea, 8)
		}
		m.dataAccess(ea, cache.DRead)
		m.dataAccess2(ea, cache.DRead)
		m.writeReg(in.Rd, m.ReadWord(ea))
		m.writeReg(in.Rd+1, m.ReadWord(ea+4))

	case sparc.St:
		ea := uint32(m.readReg(in.Rs1) + m.operand2(in))
		if ea&3 != 0 {
			return m.fault(*in, "unaligned store at %#x", ea)
		}
		if m.StoreHook != nil {
			m.cycles += m.StoreHook(ea, 4)
		}
		m.dataAccess(ea, cache.DWrite)
		m.storeWord(ea, m.readReg(in.Rd))

	case sparc.Std:
		ea := uint32(m.readReg(in.Rs1) + m.operand2(in))
		if ea&7 != 0 {
			return m.fault(*in, "unaligned std at %#x", ea)
		}
		if in.Rd&1 != 0 {
			return m.fault(*in, "std source must be even")
		}
		if m.StoreHook != nil {
			m.cycles += m.StoreHook(ea, 8)
		}
		m.dataAccess(ea, cache.DWrite)
		m.dataAccess2(ea, cache.DWrite)
		m.storeWord(ea, m.readReg(in.Rd))
		m.storeWord(ea+4, m.readReg(in.Rd+1))

	case sparc.Add:
		m.writeReg(in.Rd, m.readReg(in.Rs1)+m.operand2(in))
	case sparc.Sub:
		m.writeReg(in.Rd, m.readReg(in.Rs1)-m.operand2(in))
	case sparc.And:
		m.writeReg(in.Rd, m.readReg(in.Rs1)&m.operand2(in))
	case sparc.Andn:
		m.writeReg(in.Rd, m.readReg(in.Rs1)&^m.operand2(in))
	case sparc.Or:
		m.writeReg(in.Rd, m.readReg(in.Rs1)|m.operand2(in))
	case sparc.Orn:
		m.writeReg(in.Rd, m.readReg(in.Rs1)|^m.operand2(in))
	case sparc.Xor:
		m.writeReg(in.Rd, m.readReg(in.Rs1)^m.operand2(in))
	case sparc.Xnor:
		m.writeReg(in.Rd, ^(m.readReg(in.Rs1) ^ m.operand2(in)))
	case sparc.Sll:
		m.writeReg(in.Rd, m.readReg(in.Rs1)<<(uint32(m.operand2(in))&31))
	case sparc.Srl:
		m.writeReg(in.Rd, int32(uint32(m.readReg(in.Rs1))>>(uint32(m.operand2(in))&31)))
	case sparc.Sra:
		m.writeReg(in.Rd, m.readReg(in.Rs1)>>(uint32(m.operand2(in))&31))
	case sparc.SMul:
		m.cycles += m.costs.Mul
		m.writeReg(in.Rd, m.readReg(in.Rs1)*m.operand2(in))
	case sparc.SDiv:
		m.cycles += m.costs.Div
		d := m.operand2(in)
		if d == 0 {
			return m.fault(*in, "division by zero")
		}
		m.writeReg(in.Rd, m.readReg(in.Rs1)/d)

	case sparc.Addcc:
		a, b := m.readReg(in.Rs1), m.operand2(in)
		r := a + b
		m.setCCAdd(a, b, r)
		m.writeReg(in.Rd, r)
	case sparc.Subcc:
		a, b := m.readReg(in.Rs1), m.operand2(in)
		r := a - b
		m.setCCSub(a, b, r)
		m.writeReg(in.Rd, r)
	case sparc.Andcc:
		r := m.readReg(in.Rs1) & m.operand2(in)
		m.setCCLogic(r)
		m.writeReg(in.Rd, r)
	case sparc.Andncc:
		r := m.readReg(in.Rs1) &^ m.operand2(in)
		m.setCCLogic(r)
		m.writeReg(in.Rd, r)
	case sparc.Orcc:
		r := m.readReg(in.Rs1) | m.operand2(in)
		m.setCCLogic(r)
		m.writeReg(in.Rd, r)
	case sparc.Xorcc:
		r := m.readReg(in.Rs1) ^ m.operand2(in)
		m.setCCLogic(r)
		m.writeReg(in.Rd, r)

	case sparc.Sethi:
		m.writeReg(in.Rd, in.Imm<<10)

	case sparc.Br:
		if condMask[in.Cond&15]>>uint32(m.ccb)&1 != 0 {
			m.cycles += m.costs.TakenBranch
			next = in.Target
		}

	case sparc.Call:
		m.writeReg(sparc.O7, int32(TextBase)+(m.pc+1)*4)
		m.cycles += m.costs.TakenBranch
		next = in.Target

	case sparc.Jmpl:
		dest := uint32(m.readReg(in.Rs1) + m.operand2(in))
		m.writeReg(in.Rd, int32(TextBase)+(m.pc+1)*4)
		if dest < TextBase || dest&3 != 0 {
			return m.fault(*in, "indirect jump to bad address %#x", dest)
		}
		idx := int32((dest - TextBase) / 4)
		if int(idx) >= len(m.text) {
			return m.fault(*in, "indirect jump outside text %#x", dest)
		}
		m.cycles += m.costs.TakenBranch
		next = idx

	case sparc.Save:
		v := m.readReg(in.Rs1) + m.operand2(in)
		// Push the caller's window; the new window sees the caller's %o
		// registers as its %i, with fresh %l and %o.
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
			m.cycles += m.costs.WindowSpill
		}
		m.writeReg(in.Rd, v)

	case sparc.Restore:
		if len(m.win) < 1 {
			return m.fault(*in, "register window underflow at top frame")
		}
		v := m.readReg(in.Rs1) + m.operand2(in)
		// This window's %i become the caller's %o; %l and %i reload from
		// the popped frame.
		ins := [8]int32(m.regs[24:32])
		parent := &m.win[len(m.win)-1]
		copy(m.regs[8:16], ins[:])
		copy(m.regs[16:24], parent.l[:])
		copy(m.regs[24:32], parent.i[:])
		m.win = m.win[:len(m.win)-1]
		m.resident--
		if m.resident < 1 {
			m.resident = 1
			m.cycles += m.costs.WindowSpill
		}
		m.writeReg(in.Rd, v)

	case sparc.Ta:
		if err := m.trap(in); err != nil {
			return err
		}

	case sparc.Unimp:
		return m.fault(*in, "unimplemented instruction executed")

	default:
		return m.fault(*in, "unknown opcode")
	}

	if !m.halted {
		m.pc = next
	}
	return nil
}

func (m *Machine) storeWord(addr uint32, v int32) {
	p := m.page(addr)
	o := addr & (PageBytes - 1)
	binary.BigEndian.PutUint32(p[o:o+4], uint32(v))
}

func (m *Machine) trap(in *sparc.Instr) error {
	switch in.Imm {
	case TrapExit:
		m.halted = true
		m.exitCode = m.readReg(sparc.O0)
	case TrapPrintInt:
		m.cycles += m.costs.Trap
		fmt.Fprintf(&m.output, "%d\n", m.readReg(sparc.O0))
	case TrapPrintCh:
		m.cycles += m.costs.Trap
		m.output.WriteByte(byte(m.readReg(sparc.O0)))
	case TrapPrintStr:
		m.cycles += m.costs.Trap
		addr := uint32(m.readReg(sparc.O0))
		n := m.readReg(sparc.O1)
		for i := int32(0); i < n; i++ {
			m.output.WriteByte(m.peekByte(addr + uint32(i)))
		}
	case TrapAlloc:
		m.cycles += m.costs.Trap
		size := uint32(m.readReg(sparc.O0))
		m.writeReg(sparc.O0, int32(m.alloc(size)))
	case TrapFree:
		m.cycles += m.costs.Trap
		// The allocator records block size in a hidden header word.
		ptr := uint32(m.readReg(sparc.O0))
		if ptr != 0 {
			size := uint32(m.ReadWord(ptr - 4))
			m.freeList[size] = append(m.freeList[size], ptr)
		}
	case TrapMonHit4, TrapMonHit8:
		m.cycles += m.costs.Trap
		size := int32(4)
		if in.Imm == TrapMonHit8 {
			size = 8
		}
		if m.OnMonHit != nil {
			m.OnMonHit(uint32(m.readReg(sparc.G5)), size)
		}
	case TrapMonRead4, TrapMonRead8:
		m.cycles += m.costs.Trap
		size := int32(4)
		if in.Imm == TrapMonRead8 {
			size = 8
		}
		if m.OnMonRead != nil {
			m.OnMonRead(uint32(m.readReg(sparc.G5)), size)
		}
	case TrapRangeHit:
		m.cycles += m.costs.Trap
		if m.OnRangeHit != nil {
			m.OnRangeHit(m.readReg(sparc.O0))
		}
	case TrapCtlCheck:
		m.cycles += m.costs.Trap
		if m.OnCtlViolation != nil {
			m.OnCtlViolation(m.readReg(sparc.O0))
		} else {
			return m.fault(*in, "control-flow check violation %d", m.readReg(sparc.O0))
		}
	default:
		return m.fault(*in, "unknown trap %d", in.Imm)
	}
	return nil
}

// alloc implements the trap allocator: size-segregated free lists over a
// bump arena, with a hidden size header so free can recycle exactly.
func (m *Machine) alloc(size uint32) uint32 {
	size = (size + 7) &^ 7
	if size == 0 {
		size = 8
	}
	if lst := m.freeList[size]; len(lst) > 0 {
		ptr := lst[len(lst)-1]
		m.freeList[size] = lst[:len(lst)-1]
		return ptr
	}
	// Header word + payload, 8-byte aligned payloads.
	m.heapNext = (m.heapNext + 7) &^ 7
	ptr := m.heapNext + 8
	m.WriteWord(ptr-4, int32(size))
	m.heapNext = ptr + size
	return ptr
}

// Run executes until the program exits, faults, or exceeds MaxInstrs, and
// returns the exit code. It never returns on a stop request (RequestStop):
// while one is pending, it advances one Step per dispatch.
//
// Under the default closure engine it dispatches a block at a time
// (blocks.go) and enters compiled closures at block heads (closure.go);
// EngineBlock skips the compiled tier; EngineStep runs the reference
// one-instruction loop. Simulated cycle and instruction counts are
// bit-identical across all three; only host time changes.
func (m *Machine) Run() (int32, error) {
	if err := m.run(math.MaxInt64, false); err != nil {
		return 0, err
	}
	return m.exitCode, nil
}

// RunFor executes at most n further instructions, then returns with the
// machine ready to continue: exactly n unless the program exits or faults
// first, or a stop is requested (RequestStop), which makes it return
// (0, false, nil) at its next dispatch boundary. A session scheduler runs
// the whole remaining budget this way and stops it to interleave debugger
// control operations (region create/delete, PatchInstr) without holding a
// lock across a whole run.
//
// Simulated cycle and instruction counts over a sequence of RunFor calls,
// however each ends, are bit-identical to one uninterrupted Run: execBlocks
// clamps blocks exactly at the budget and its per-call line caches are
// conservative (a cold re-entry re-probes the cache with identical hit/miss
// statistics). Calls that end only on stops also compile exactly Run's
// closures, as a stop lands only at a boundary Run dispatches; an n that
// ends mid-trace does not.
//
// RunFor returns halted=true when the program exited (exit code in code).
// Exceeding the machine-wide MaxInstrs budget is an error, exactly as in
// Run; exhausting only n is a normal return.
func (m *Machine) RunFor(n int64) (code int32, halted bool, err error) {
	if err := m.run(n, true); err != nil || !m.halted {
		return 0, false, err
	}
	return m.exitCode, true, nil
}

// run is the one loop behind Run and RunFor, under every engine. It
// executes until the program halts or faults, n more instructions retire
// or, when stoppable, a stop is requested. Each pass lets execBlocks
// (skipped under EngineStep) run as far as it can, then applies the budget,
// stop and pc-bounds checks, in that order, and executes one instruction
// through Step. MaxInstrs holds the limit meanwhile, so execBlocks clamps
// blocks exactly at it; reaching the machine-wide MaxInstrs is an error,
// retiring n is not.
//
// Stops land between blocks, at closure heads (execClosures caps a chain at
// chainCap instructions, so a looping trace returns to the dispatcher at
// its own head), or under EngineStep between instructions.
func (m *Machine) run(n int64, stoppable bool) error {
	saved := m.MaxInstrs
	defer func() { m.MaxInstrs = saved }()
	if n < saved-m.instrs { // compared before the addition, which cannot wrap
		m.MaxInstrs = m.instrs + n
	}
	for !m.halted {
		if m.engine != EngineStep {
			if err := m.execBlocks(); err != nil {
				return err
			}
		}
		if m.instrs >= m.MaxInstrs {
			break
		}
		if stoppable && m.stops.Load() != 0 {
			return nil
		}
		if uint32(m.pc) >= uint32(len(m.text)) {
			return &Fault{PC: m.pc, Reason: "pc outside text"}
		}
		if err := m.Step(); err != nil {
			return err
		}
	}
	if !m.halted && m.instrs >= saved {
		return fmt.Errorf("machine: exceeded MaxInstrs=%d at pc=%d", saved, m.pc)
	}
	return nil
}

// RequestStop asks a running RunFor to return at its next dispatch
// boundary; a RunFor that starts while a request is pending returns at
// once. Requests count: RunFor keeps stopping until each has been withdrawn
// with WithdrawStop. Run does not return on a request (see Run). Safe to
// call from any goroutine.
func (m *Machine) RequestStop() { m.stops.Add(1) }

// WithdrawStop withdraws one RequestStop. Safe to call from any goroutine.
func (m *Machine) WithdrawStop() { m.stops.Add(-1) }
