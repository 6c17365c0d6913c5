package asm

import (
	"fmt"
	"strings"

	"databreak/internal/sparc"
)

// Format renders a unit back to parseable assembly text. Parse(Format(u))
// yields a unit that assembles to the same program — the round-trip property
// the tests verify. Tools (cmd/mrspatch) use it to emit patched assembly.
func Format(u *Unit) string {
	var b strings.Builder
	var sect Section
	started := false
	for i := range u.Items {
		it := &u.Items[i]
		if (!started || it.Section != sect) && it.Kind != ItemSymRec {
			sect, started = it.Section, true
			fmt.Fprintf(&b, "\t.%s\n", sect)
		}
		switch it.Kind {
		case ItemLabel:
			fmt.Fprintf(&b, "%s:\n", it.Label)
		case ItemInstr:
			if it.CountName != "" {
				fmt.Fprintf(&b, "\t.count %q\n", it.CountName)
			}
			fmt.Fprintf(&b, "\t%s\n", FormatInstr(*it))
		case ItemWord:
			if it.WordSym != "" {
				fmt.Fprintf(&b, "\t.word %s\n", it.WordSym)
			} else {
				fmt.Fprintf(&b, "\t.word %d\n", it.Word)
			}
		case ItemSpace:
			fmt.Fprintf(&b, "\t.space %d\n", it.N)
		case ItemAscii:
			fmt.Fprintf(&b, "\t.ascii %q\n", string(it.Bytes()))
		case ItemAlign:
			fmt.Fprintf(&b, "\t.align %d\n", it.N)
		case ItemSymRec:
			s := it.Sym()
			switch s.Kind {
			case SymGlobal, SymFunc:
				fmt.Fprintf(&b, "\t.stabs %q, %s, %s, %d\n", s.Name, s.Kind, s.Label, s.Size)
			default:
				where := fmt.Sprintf("%%fp%+d", s.FpOff)
				if s.FpOff == 0 {
					where = "%fp"
				}
				fmt.Fprintf(&b, "\t.stabs %q, %s, %s, %d, %q\n", s.Name, s.Kind, where, s.Size, s.Func)
			}
		}
	}
	return b.String()
}

// FormatInstr renders one instruction item with its symbolic operands
// restored (branch targets, %hi/%lo relocations).
func FormatInstr(it Item) string {
	in := it.Instr
	if it.TargetSym != "" {
		switch in.Op {
		case sparc.Br:
			return fmt.Sprintf("%s %s", in.Cond, it.TargetSym)
		case sparc.Call:
			return fmt.Sprintf("call %s", it.TargetSym)
		}
	}
	if it.ImmSym != "" {
		switch {
		case in.Op == sparc.Sethi && it.ImmSel == ImmHi:
			return fmt.Sprintf("sethi %%hi(%s), %s", it.ImmSym, in.Rd)
		case it.ImmSel == ImmLo && in.Op.IsALU():
			return fmt.Sprintf("%s %s, %%lo(%s), %s", in.Op, in.Rs1, it.ImmSym, in.Rd)
		case it.ImmSel == ImmLo && (in.Op == sparc.Ld || in.Op == sparc.Ldd):
			return fmt.Sprintf("%s [%s+%%lo(%s)], %s", in.Op, in.Rs1, it.ImmSym, in.Rd)
		case it.ImmSel == ImmLo && in.Op.IsStore():
			return fmt.Sprintf("%s %s, [%s+%%lo(%s)]", in.Op, in.Rd, in.Rs1, it.ImmSym)
		}
	}
	// Branch targets without symbols cannot round-trip through text; the
	// assembler resolves all targets from TargetSym, so synthesize a label
	// reference only when available. Otherwise fall back to Instr.String.
	return in.String()
}
