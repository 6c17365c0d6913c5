package asm

import (
	"fmt"
	"sync"

	"databreak/internal/machine"
	"databreak/internal/sparc"
)

// Program is fully resolved machine code plus its data image and debugging
// symbols, ready to load.
type Program struct {
	Text       []sparc.Instr
	TextLabels map[string]int32 // label -> text index
	DataLabels map[string]uint32
	DataSize   uint32
	dataInit   []initWord
	Syms       []Sym
	Entry      int32

	// CounterNames maps event-counter index -> name; CounterIDs the reverse.
	CounterNames []string
	CounterIDs   map[string]int

	// Shared-load artifacts, built lazily on first use and then reused by
	// every LoadShared: the predecoded machine.Image and a flat big-endian
	// snapshot of the initialized data segment. Both are immutable once
	// built, so a single *Program may back any number of machines on any
	// number of goroutines (the artifact cache and the stress harness do
	// exactly that). Guarded by onces, not a mutex: Program must not be
	// copied after first LoadShared (go vet's copylocks enforces this).
	imgOnce  sync.Once
	img      *machine.Image
	dataOnce sync.Once
	dataSnap []byte
}

type initWord struct {
	addr   uint32
	val    int32
	isByte bool
}

// startupUnit calls main and exits with its return value. Assemble only
// reads it, so every program shares the one parse.
var startupUnit = MustParse("__startup", `
__start:
	call main
	ta 0
`)

// Options controls assembly.
type Options struct {
	// AddStartup prepends a stub that calls main and exits with its result.
	AddStartup bool
}

// Assemble resolves one or more units into a Program. Units are concatenated
// in order; labels are a single global namespace. The units are only read.
func Assemble(opts Options, units ...*Unit) (*Program, error) {
	all := units
	if opts.AddStartup {
		all = append([]*Unit{startupUnit}, units...)
	}

	p := &Program{
		TextLabels: make(map[string]int32),
		DataLabels: make(map[string]uint32),
		CounterIDs: make(map[string]int),
	}

	// Pass 1: assign text indices and data offsets, collect labels.
	textIdx := int32(0)
	dataOff := uint32(0)
	for _, u := range all {
		for i := range u.Items {
			it := &u.Items[i]
			switch it.Kind {
			case ItemLabel:
				if it.Section == SectionText {
					if _, dup := p.TextLabels[it.Label]; dup {
						return nil, fmt.Errorf("%s:%d: duplicate label %q", u.Name, it.Line, it.Label)
					}
					p.TextLabels[it.Label] = textIdx
				} else {
					if _, dup := p.DataLabels[it.Label]; dup {
						return nil, fmt.Errorf("%s:%d: duplicate label %q", u.Name, it.Line, it.Label)
					}
					p.DataLabels[it.Label] = machine.DataBase + dataOff
				}
			case ItemInstr:
				if it.Section != SectionText {
					return nil, fmt.Errorf("%s:%d: instruction outside .text", u.Name, it.Line)
				}
				textIdx++
			case ItemWord:
				dataOff += 4
			case ItemSpace:
				dataOff += uint32(it.N)
			case ItemAscii:
				dataOff += uint32(len(it.Bytes()))
			case ItemAlign:
				n := uint32(it.N)
				dataOff = (dataOff + n - 1) &^ (n - 1)
			case ItemSymRec:
				// handled in pass 2
			}
		}
	}
	p.DataSize = dataOff

	resolve := func(sym string) (uint32, bool) {
		if a, ok := p.DataLabels[sym]; ok {
			return a, true
		}
		if idx, ok := p.TextLabels[sym]; ok {
			return machine.TextBase + uint32(idx)*4, true
		}
		return 0, false
	}

	// Pass 2: emit instructions and data with resolved operands.
	p.Text = make([]sparc.Instr, 0, textIdx)
	dataOff = 0
	for _, u := range all {
		for i := range u.Items {
			it := &u.Items[i]
			switch it.Kind {
			case ItemInstr:
				in := it.Instr
				if it.TargetSym != "" {
					tgt, ok := p.TextLabels[it.TargetSym]
					if !ok {
						return nil, fmt.Errorf("%s:%d: undefined text label %q", u.Name, it.Line, it.TargetSym)
					}
					in.Target = tgt
				}
				if it.ImmSym != "" {
					addr, ok := resolve(it.ImmSym)
					if !ok {
						return nil, fmt.Errorf("%s:%d: undefined symbol %q", u.Name, it.Line, it.ImmSym)
					}
					switch it.ImmSel {
					case ImmHi:
						in.Imm = int32(addr >> 10)
					case ImmLo:
						in.Imm = int32(addr & 0x3ff)
					default:
						if addr > 4095 {
							return nil, fmt.Errorf("%s:%d: symbol %q does not fit in 13 bits", u.Name, it.Line, it.ImmSym)
						}
						in.Imm = int32(addr)
					}
				}
				if it.CountName != "" {
					id, ok := p.CounterIDs[it.CountName]
					if !ok {
						id = len(p.CounterNames)
						p.CounterIDs[it.CountName] = id
						p.CounterNames = append(p.CounterNames, it.CountName)
					}
					in.Count = int32(id) + 1
				}
				p.Text = append(p.Text, in)
			case ItemWord:
				v := it.Word
				if it.WordSym != "" {
					addr, ok := resolve(it.WordSym)
					if !ok {
						return nil, fmt.Errorf("%s:%d: undefined symbol %q", u.Name, it.Line, it.WordSym)
					}
					v = int32(addr)
				}
				p.dataInit = append(p.dataInit, initWord{addr: machine.DataBase + dataOff, val: v})
				dataOff += 4
			case ItemSpace:
				dataOff += uint32(it.N)
			case ItemAscii:
				lit := it.Bytes()
				for j, b := range lit {
					p.dataInit = append(p.dataInit, initWord{addr: machine.DataBase + dataOff + uint32(j), val: int32(b), isByte: true})
				}
				dataOff += uint32(len(lit))
			case ItemAlign:
				n := uint32(it.N)
				dataOff = (dataOff + n - 1) &^ (n - 1)
			case ItemSymRec:
				sym := it.Sym()
				if sym.Kind == SymGlobal || sym.Kind == SymFunc {
					addr, ok := resolve(sym.Label)
					if !ok {
						return nil, fmt.Errorf("%s:%d: .stabs names undefined symbol %q", u.Name, it.Line, sym.Label)
					}
					sym.Addr = addr
				}
				p.Syms = append(p.Syms, sym)
			}
		}
	}

	entry, ok := p.TextLabels["__start"]
	if !ok {
		entry, ok = p.TextLabels["main"]
	}
	if !ok && len(p.Text) > 0 {
		entry = 0
		ok = true
	}
	if !ok {
		return nil, fmt.Errorf("no entry point (no __start or main)")
	}
	p.Entry = entry
	return p, nil
}

// Load installs the program into a machine: text, initialized data, entry
// point, and the event-counter vector. The machine gets a private copy of
// the text; for the compile-once, run-many path that shares one predecoded
// image across machines, use LoadShared.
func (p *Program) Load(m *machine.Machine) {
	text := make([]sparc.Instr, len(p.Text))
	copy(text, p.Text)
	m.LoadText(text, p.Entry)
	for _, iw := range p.dataInit {
		if iw.isByte {
			m.LoadData(iw.addr, []byte{byte(iw.val)})
		} else {
			m.WriteWord(iw.addr, iw.val)
		}
	}
	m.SetCounterCount(len(p.CounterNames))
}

// Image returns the program's predecoded machine image, building it on
// first call and reusing it afterwards. The image executes p.Text itself,
// which is never written after linking. It is safe to attach to any number
// of machines concurrently: its code is immutable (machine.LoadImage's
// copy-on-write patching keeps per-machine patches private), and its
// compiled closures fill in as the machines first enter heads.
func (p *Program) Image() *machine.Image {
	p.imgOnce.Do(func() {
		p.img = machine.BuildImage(p.Text, p.Entry)
	})
	return p.img
}

// dataSnapshot flattens the initialized data segment into one big-endian
// byte image at machine.DataBase, built once. It extends only to the last
// initialized byte — uninitialized .space beyond it is already zero on a
// fresh machine. Loading it with machine.LoadData on a fresh machine is
// equivalent to replaying the per-word initializer list (both are loader
// actions with no cache traffic or cycle cost), so re-running a cached
// artifact only resets memory instead of re-linking.
func (p *Program) dataSnapshot() []byte {
	p.dataOnce.Do(func() {
		var end uint32
		for _, iw := range p.dataInit {
			n := iw.addr - machine.DataBase + 4
			if iw.isByte {
				n -= 3
			}
			if n > end {
				end = n
			}
		}
		snap := make([]byte, end)
		for _, iw := range p.dataInit {
			off := iw.addr - machine.DataBase
			if iw.isByte {
				snap[off] = byte(iw.val)
			} else {
				u := uint32(iw.val)
				snap[off] = byte(u >> 24)
				snap[off+1] = byte(u >> 16)
				snap[off+2] = byte(u >> 8)
				snap[off+3] = byte(u)
			}
		}
		p.dataSnap = snap
	})
	return p.dataSnap
}

// LoadShared installs the program into a fresh (or Reset) machine via the
// shared image: no text copy, no predecode, and the data segment lands as
// one snapshot write. Simulated counts are bit-identical to Load; the only
// difference is host time and that the machine's first PatchInstr pays a
// copy-on-write privatization instead of mutating in place.
func (p *Program) LoadShared(m *machine.Machine) {
	m.LoadImage(p.Image())
	if snap := p.dataSnapshot(); len(snap) > 0 {
		m.LoadData(machine.DataBase, snap)
	}
	m.SetCounterCount(len(p.CounterNames))
}

// SizeBytes estimates the host memory a cached Program retains: the shared
// image, which holds the program's Text as its one copy of the code, plus
// the data snapshot. Used for artifact-cache accounting; it grows as
// machines running the program first enter the image's heads.
func (p *Program) SizeBytes() int {
	return p.Image().SizeBytes() + len(p.dataSnapshot())
}

// TraceBytes is the portion of SizeBytes held by the image's compiled
// closures, reported separately (ArtifactStats.TraceBytes) so the cache's
// retained-bytes number distinguishes program code from compiled footprint.
// It is zero until a machine runs the program.
func (p *Program) TraceBytes() int {
	return p.Image().TraceBytes()
}

// Counter returns the machine's value for the named event counter, or zero
// if the counter does not exist.
func (p *Program) Counter(m *machine.Machine, name string) uint64 {
	id, ok := p.CounterIDs[name]
	if !ok {
		return 0
	}
	return m.Counters[id]
}

// LookupSym finds the first symbol record with the given name, optionally
// scoped to a function (pass "" for any scope).
func (p *Program) LookupSym(name, fn string) (Sym, bool) {
	for _, s := range p.Syms {
		if s.Name == name && (fn == "" || s.Func == fn || s.Func == "") {
			return s, true
		}
	}
	return Sym{}, false
}
