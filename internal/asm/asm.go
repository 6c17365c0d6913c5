// Package asm implements a two-pass assembler for the SPARC-subset ISA.
//
// The assembler is the substrate the paper's analysis tool plugs into: it
// parses textual assembly into a symbolic item list (labels, instructions
// with unresolved operands, data directives, STAB-style symbol records), lets
// tools such as internal/patch and internal/elim rewrite that list, and then
// resolves everything into a loadable Program.
//
// Supported syntax (one statement per line, `!` starts a comment):
//
//	label:  st %o0, [%fp-20]
//	        set counter, %o1
//	        ld [%o1], %o2
//	        inc %o2
//	        st %o2, [%o1]
//	        cmp %o2, 10
//	        bl loop
//	        ret
//	        .data
//	counter: .word 0
//	        .stabs "counter", global, counter, 4
//
// Directives: .text .data .bss .global .word .space .ascii .align .stabs
// .count. Synthetic instructions: set mov cmp tst clr inc dec neg not nop
// ret retl jmp b<cond> call. %hi(sym) and %lo(sym) are supported where an
// immediate may appear.
//
// Memory. Item lists are the largest thing a build keeps, so an Item is
// packed to 128 bytes: one-byte kind, section and immediate selector, an
// int32 line, and the payloads only .stabs and .ascii items use kept out of
// line behind one pointer (Item.Sym, Item.Bytes). Units are read-only once
// built: the rewriters and Assemble read their input units and build new
// ones, so a parsed unit, the monitor library parse and the startup stub
// are each shared by every build that uses them. A Program keeps none of
// its units; it retains its resolved text, data initializers, symbols and
// counter names, plus the machine image and data snapshot it builds on
// first shared load.
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"databreak/internal/sparc"
)

// SymKind classifies a debugging symbol record.
type SymKind uint8

const (
	SymGlobal SymKind = iota // static data at an absolute address
	SymLocal                 // stack slot at %fp+Off
	SymParam                 // incoming parameter spilled to %fp+Off
	SymFunc                  // function entry
)

func (k SymKind) String() string {
	switch k {
	case SymGlobal:
		return "global"
	case SymLocal:
		return "local"
	case SymParam:
		return "param"
	case SymFunc:
		return "func"
	}
	return "sym?"
}

// Sym is a STAB-style debugging symbol record. The symbol-table pattern
// matcher (internal/symtab) matches write target addresses against these.
type Sym struct {
	Name string
	Kind SymKind
	// For SymGlobal: the data label whose resolved address locates the
	// symbol. For SymFunc: the text label.
	Label string
	// For SymLocal/SymParam: frame-pointer offset of the slot.
	FpOff int32
	// Size of the object in bytes.
	Size int32
	// Enclosing function name for locals and params.
	Func string
	// Addr is filled in during assembly for globals.
	Addr uint32
}

// ItemKind discriminates Item variants.
type ItemKind uint8

const (
	ItemInstr ItemKind = iota
	ItemLabel
	ItemWord   // .word: one initialized data word
	ItemSpace  // .space: N zero bytes
	ItemAscii  // .ascii: literal bytes
	ItemAlign  // .align: pad data to a multiple of N
	ItemSymRec // .stabs record
)

// ImmSel selects how a symbolic immediate is folded into Instr.Imm.
type ImmSel uint8

const (
	ImmFull ImmSel = iota // whole value (must fit signed 13 bits)
	ImmHi                 // high 22 bits (for sethi)
	ImmLo                 // low 10 bits
)

// Section is the assembler section an item belongs to. The zero value is
// SectionText, the section a source starts in.
type Section uint8

const (
	SectionText Section = iota
	SectionData
	SectionBSS
)

func (s Section) String() string {
	switch s {
	case SectionText:
		return "text"
	case SectionData:
		return "data"
	case SectionBSS:
		return "bss"
	}
	return "section?"
}

// Item is one statement in a parsed unit. Instructions may carry symbolic
// references that the assembler resolves: TargetSym for branches and calls,
// ImmSym (+ImmSel) for immediates naming data labels. The layout is packed
// to 128 bytes (TestItemSize): the small fields share the first word, and
// the .stabs record and .ascii bytes sit behind one pointer, read through
// Sym and Bytes and shared by copies of the item.
type Item struct {
	Kind    ItemKind
	Section Section // section the item was parsed in
	ImmSel  ImmSel  // ItemInstr: how ImmSym folds into Instr.Imm
	Line    int32   // line number in the source, for diagnostics

	Instr sparc.Instr // ItemInstr
	Word  int32       // ItemWord: the initialized value, when WordSym is empty
	N     int32       // ItemSpace / ItemAlign: byte count or alignment

	TargetSym string // ItemInstr: branch/call target label
	ImmSym    string // ItemInstr: symbolic immediate (data or text label)
	CountName string // ItemInstr: event counter attached to the instruction
	Label     string // ItemLabel
	WordSym   string // ItemWord: a label whose address becomes the value

	rare *rarePayload // ItemSymRec, ItemAscii; nil for every other kind
}

// rarePayload holds what an ItemSymRec or ItemAscii item carries.
type rarePayload struct {
	sym   Sym
	bytes []byte
}

// SymRecItem returns a .stabs item holding s.
func SymRecItem(s Sym) Item {
	return Item{Kind: ItemSymRec, rare: &rarePayload{sym: s}}
}

// AsciiItem returns an .ascii item holding b. The item keeps b; neither the
// caller nor any reader may modify it afterwards.
func AsciiItem(b []byte) Item {
	return Item{Kind: ItemAscii, rare: &rarePayload{bytes: b}}
}

// Sym returns an ItemSymRec item's record, or the zero Sym for any other
// kind.
func (it *Item) Sym() Sym {
	if it.rare == nil {
		return Sym{}
	}
	return it.rare.sym
}

// Bytes returns an ItemAscii item's bytes, or nil for any other kind. The
// slice is shared by every copy of the item and must not be modified.
func (it *Item) Bytes() []byte {
	if it.rare == nil {
		return nil
	}
	return it.rare.bytes
}

// Unit is a parsed assembly file: an ordered list of items. Units are
// read-only once built: patch.Apply, elim.Apply and Assemble read their
// input units and build new ones, so one unit may feed any number of builds
// on any number of goroutines, and results may share units (every patch and
// elim result ends with the one parse of its monitor library).
type Unit struct {
	Name  string
	Items []Item
}

// Clone returns a copy of u for a caller that wants to rewrite items in
// place. Items are copied at exact size; their out-of-line payloads are
// shared, since they are immutable.
func (u *Unit) Clone() *Unit {
	nu := &Unit{Name: u.Name, Items: make([]Item, len(u.Items))}
	copy(nu.Items, u.Items)
	return nu
}

type parser struct {
	unit         *Unit
	sect         Section
	line         int32
	pendingCount string // set by .count, consumed by the next instruction
}

// Parse parses one assembly source file into a Unit.
func Parse(name, src string) (*Unit, error) {
	p := &parser{unit: &Unit{Name: name}}
	for i, raw := range strings.Split(src, "\n") {
		p.line = int32(i + 1)
		if err := p.parseLine(raw); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", name, p.line, err)
		}
	}
	return p.unit, nil
}

// MustParse is Parse for trusted EMBEDDED sources only (the startup shim,
// test fixtures): a parse failure there is a programmer error, so it panics.
// Generated or user-influenced source — monitor.LibrarySource output, check
// sequences from patch.CheckText — must go through Parse with the error
// propagated; see patch.Library and patch.NewCheck for the pattern.
func MustParse(name, src string) *Unit {
	u, err := Parse(name, src)
	if err != nil {
		panic(err)
	}
	return u
}

func (p *parser) emit(it Item) {
	it.Section = p.sect
	it.Line = p.line
	p.unit.Items = append(p.unit.Items, it)
}

func (p *parser) parseLine(raw string) error {
	if i := strings.IndexByte(raw, '!'); i >= 0 {
		// Keep '!' inside string literals.
		if q := strings.IndexByte(raw, '"'); q < 0 || q > i {
			raw = raw[:i]
		} else if e := strings.IndexByte(raw[q+1:], '"'); e >= 0 {
			rest := raw[q+1+e+1:]
			if j := strings.IndexByte(rest, '!'); j >= 0 {
				raw = raw[:q+1+e+1+j]
			}
		}
	}
	s := strings.TrimSpace(raw)
	for s != "" {
		// Leading labels.
		if i := strings.IndexByte(s, ':'); i >= 0 && isIdent(s[:i]) {
			p.emit(Item{Kind: ItemLabel, Label: s[:i]})
			s = strings.TrimSpace(s[i+1:])
			continue
		}
		break
	}
	if s == "" {
		return nil
	}
	if s[0] == '.' {
		return p.parseDirective(s)
	}
	return p.parseInstr(s)
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c == '_' || c == '.' || c == '$':
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func splitOperands(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	if len(out) == 1 && out[0] == "" {
		return nil
	}
	return out
}

func (p *parser) parseDirective(s string) error {
	name, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	ops := splitOperands(rest)
	switch name {
	case ".text":
		p.sect = SectionText
	case ".data":
		p.sect = SectionData
	case ".bss":
		p.sect = SectionBSS
	case ".global":
		// Visibility is not modelled; accepted for compatibility.
	case ".word":
		if len(ops) == 0 {
			return fmt.Errorf(".word needs at least one operand")
		}
		for _, op := range ops {
			if v, err := parseInt(op); err == nil {
				p.emit(Item{Kind: ItemWord, Word: int32(v)})
			} else if isIdent(op) {
				p.emit(Item{Kind: ItemWord, WordSym: op})
			} else {
				return fmt.Errorf("bad .word operand %q", op)
			}
		}
	case ".space":
		if len(ops) != 1 {
			return fmt.Errorf(".space needs one operand")
		}
		v, err := parseInt(ops[0])
		if err != nil || v < 0 {
			return fmt.Errorf("bad .space size %q", ops[0])
		}
		p.emit(Item{Kind: ItemSpace, N: int32(v)})
	case ".align":
		if len(ops) != 1 {
			return fmt.Errorf(".align needs one operand")
		}
		v, err := parseInt(ops[0])
		if err != nil || v <= 0 || v&(v-1) != 0 {
			return fmt.Errorf("bad .align %q", ops[0])
		}
		p.emit(Item{Kind: ItemAlign, N: int32(v)})
	case ".ascii":
		lit, err := strconv.Unquote(rest)
		if err != nil {
			return fmt.Errorf("bad .ascii literal: %v", err)
		}
		p.emit(AsciiItem([]byte(lit)))
	case ".stabs":
		return p.parseStabs(ops)
	case ".count":
		if len(ops) != 1 {
			return fmt.Errorf(".count needs one quoted name")
		}
		nm, err := strconv.Unquote(ops[0])
		if err != nil {
			return fmt.Errorf("bad .count name: %v", err)
		}
		// Attach to the next instruction via a pending marker: emit a
		// zero-width item is avoided by storing on the parser; simplest is
		// to emit a label-like record the resolver folds forward. Instead we
		// stash it and apply on the next instruction.
		p.pendingCount = nm
	default:
		return fmt.Errorf("unknown directive %s", name)
	}
	return nil
}

func (p *parser) parseStabs(ops []string) error {
	if len(ops) < 4 {
		return fmt.Errorf(".stabs needs name, kind, where, size")
	}
	nm, err := strconv.Unquote(ops[0])
	if err != nil {
		return fmt.Errorf("bad .stabs name: %v", err)
	}
	var sym Sym
	sym.Name = nm
	switch ops[1] {
	case "global":
		sym.Kind = SymGlobal
	case "local":
		sym.Kind = SymLocal
	case "param":
		sym.Kind = SymParam
	case "func":
		sym.Kind = SymFunc
	default:
		return fmt.Errorf("bad .stabs kind %q", ops[1])
	}
	where := ops[2]
	switch sym.Kind {
	case SymGlobal, SymFunc:
		if !isIdent(where) {
			return fmt.Errorf("bad .stabs location %q", where)
		}
		sym.Label = where
	default:
		off, ok := parseFpOff(where)
		if !ok {
			return fmt.Errorf("bad .stabs frame offset %q", where)
		}
		sym.FpOff = off
	}
	size, err := parseInt(ops[3])
	if err != nil || size < 0 {
		return fmt.Errorf("bad .stabs size %q", ops[3])
	}
	sym.Size = int32(size)
	if len(ops) >= 5 {
		fn, err := strconv.Unquote(ops[4])
		if err != nil {
			return fmt.Errorf("bad .stabs function: %v", err)
		}
		sym.Func = fn
	}
	p.emit(SymRecItem(sym))
	return nil
}

// parseFpOff parses "%fp-20" / "%fp+68" / "%fp".
func parseFpOff(s string) (int32, bool) {
	if !strings.HasPrefix(s, "%fp") {
		return 0, false
	}
	rest := s[3:]
	if rest == "" {
		return 0, true
	}
	v, err := parseInt(rest)
	if err != nil {
		return 0, false
	}
	return int32(v), true
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "+") {
		s = s[1:]
	} else if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var v uint64
	var err error
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		v, err = strconv.ParseUint(s[2:], 16, 64)
	} else {
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, err
	}
	if v > 1<<32 {
		return 0, fmt.Errorf("integer %s out of range", s)
	}
	n := int64(v)
	if neg {
		n = -n
	}
	return n, nil
}

var regByName = func() map[string]sparc.Reg {
	m := make(map[string]sparc.Reg)
	for r := sparc.Reg(0); r < sparc.NumRegs; r++ {
		m[r.String()] = r
	}
	// Alternate names for the conventional aliases.
	m["%o6"] = sparc.SP
	m["%i6"] = sparc.FP
	m["%r0"] = sparc.G0
	return m
}()

// ParseReg parses a register name like %o0 or %fp.
func ParseReg(s string) (sparc.Reg, bool) {
	r, ok := regByName[strings.ToLower(strings.TrimSpace(s))]
	return r, ok
}
