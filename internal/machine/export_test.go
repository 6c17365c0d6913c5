package machine

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync/atomic"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// CompileImageHeads publishes the closure of every uncompiled head of img
// through the first-entry compile machines run, as if each head had been
// entered once.
func CompileImageHeads(img *Image) {
	m := New(cache.DefaultConfig, DefaultCosts)
	m.LoadImage(img)
	for pc, u := range img.uops {
		if u.slot >= 0 && img.traces[u.slot].Load() == nil {
			m.compileHead(int32(pc))
		}
	}
}

// slotAt returns what the slot of head pc holds — a closure, the declined
// sentinel, or nil before the head's first entry — and nil when pc is no
// head.
func slotAt(traces []atomic.Pointer[closProg], uops []uop, pc int32) *closProg {
	if s := uops[pc].slot; s >= 0 {
		return traces[s].Load()
	}
	return nil
}

// published returns the closure compiled at head pc, or nil when pc is no
// head, is not compiled yet, or was declined.
func published(traces []atomic.Pointer[closProg], uops []uop, pc int32) *closProg {
	if cp := slotAt(traces, uops, pc); cp != declined {
		return cp
	}
	return nil
}

// isHead reports whether text index pc of uops is a block head.
func isHead(uops []uop, pc int32) bool { return uops[pc].slot >= 0 }

// ImageTraceCount reports how many closures img has published.
func ImageTraceCount(img *Image) int { return traceCount(img.traces) }

// ImageHeadCount reports how many closure slots img holds: one per head.
func ImageHeadCount(img *Image) int { return len(img.traces) }

// ImageSharesText reports whether img executes text itself, not a copy.
func ImageSharesText(img *Image, text []sparc.Instr) bool {
	return len(text) > 0 && &img.text[0] == &text[0]
}

// ImageTraceMismatch compares every closure img has published against a
// fresh compile of its head with a fresh builder, the image's line shift
// and DefaultCosts, and describes the first difference ("" when all match).
func ImageTraceMismatch(img *Image) string {
	return traceMismatch(img.text, img.uops, img.traces, img.traceShift, &DefaultCosts)
}

// MachineTraceMismatch is ImageTraceMismatch for the closures a machine
// holds, against fresh compiles of its own, possibly patched, text.
func MachineTraceMismatch(m *Machine) string {
	return traceMismatch(m.text, m.uops, m.traces, m.cache.LineShift(), &m.costs)
}

// traceMismatch compares every filled slot against a fresh compile of its
// head: a closure must equal it, and the declined sentinel stands for a
// head the fresh builder declines too.
func traceMismatch(text []sparc.Instr, uops []uop, traces []atomic.Pointer[closProg], shift uint32, c *Costs) string {
	for pc := range uops {
		cp := slotAt(traces, uops, int32(pc))
		if cp == nil {
			continue
		}
		if cp == declined {
			cp = nil
		}
		if want := freshClosure(text, uops, int32(pc), shift, c); !sameClosure(cp, want) {
			return fmt.Sprintf("closure at %d differs from a fresh compile", pc)
		}
	}
	return ""
}

// freshClosure compiles the closure at head with a fresh builder, or
// returns nil when the builder declines the head.
func freshClosure(text []sparc.Instr, uops []uop, head int32, shift uint32, c *Costs) *closProg {
	var b traceBuilder
	return b.compile(text, uops, head, shift, c)
}

// sameClosure reports whether two closures hold the same compiled form.
func sameClosure(a, b *closProg) bool {
	if a == nil || b == nil {
		return a == b
	}
	return reflect.DeepEqual(*a, *b)
}

// ImageTraceSpan returns the first [lo,hi) span of the closure img has
// published at head.
func ImageTraceSpan(img *Image, head int32) (lo, hi int32) {
	s := published(img.traces, img.uops, head).spans[0]
	return s[0], s[1]
}

// ImageTraceHeads lists the heads at which img has published a closure, in
// text-index order, and for each whether its spans cover text index idx.
func ImageTraceHeads(img *Image, idx int32) (heads []int32, covers []bool) {
	for pc := range img.uops {
		if cp := published(img.traces, img.uops, int32(pc)); cp != nil {
			heads = append(heads, int32(pc))
			covers = append(covers, cp.covers(idx))
		}
	}
	return heads, covers
}

// InheritsImageTrace reports whether m's slot at head pc holds img's own
// published closure.
func InheritsImageTrace(m *Machine, img *Image, pc int32) bool {
	cp := published(m.traces, m.uops, pc)
	return cp != nil && cp == published(img.traces, img.uops, pc)
}

// MachineHasTrace reports whether m holds a compiled closure at head pc.
func MachineHasTrace(m *Machine, pc int32) bool { return published(m.traces, m.uops, pc) != nil }

// ImageSlots snapshots every slot of img, so a test can check that no slot
// changed.
func ImageSlots(img *Image) []any {
	var s []any
	for i := range img.traces {
		s = append(s, img.traces[i].Load())
	}
	return s
}

// AppendImageClosures appends a fixed binary encoding of every closure img
// has published, in text-index order, to dst: the head, passInstrs, every
// span, and every field of every item.
func AppendImageClosures(dst []byte, img *Image) []byte {
	for i := range img.traces {
		if cp := img.traces[i].Load(); cp != nil && cp != declined {
			dst = appendClosure(dst, cp.head, cp.passInstrs, cp.spans, cp.items)
		}
	}
	return dst
}

// RitemFieldCount reports how many fields ritem has, so a test can catch a
// field appendClosure does not encode.
func RitemFieldCount() int { return reflect.TypeOf(ritem{}).NumField() }

func appendClosure(dst []byte, head int32, passInstrs int64, spans [][2]int32, items []ritem) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(head))
	dst = le.AppendUint64(dst, uint64(passInstrs))
	dst = le.AppendUint32(dst, uint32(len(spans)))
	for _, s := range spans {
		dst = le.AppendUint32(dst, uint32(s[0]))
		dst = le.AppendUint32(dst, uint32(s[1]))
	}
	dst = le.AppendUint32(dst, uint32(len(items)))
	for _, it := range items {
		dst = append(dst, byte(it.kind), it.f, it.rd, it.rs1, it.s2r, it.rd2, it.rs1b, it.s2rb)
		dst = le.AppendUint16(dst, it.cm)
		dst = le.AppendUint16(dst, it.hb)
		dst = le.AppendUint32(dst, uint32(it.imm))
		dst = le.AppendUint32(dst, uint32(it.imm2))
		dst = le.AppendUint32(dst, it.rx)
		dst = le.AppendUint32(dst, uint32(it.fpc))
	}
	return dst
}

// ImageTraceSlack describes the first closure img has published whose item
// stream or spans slice has capacity beyond its length, or returns "" when
// every closure is stored at exact size.
func ImageTraceSlack(img *Image) string { return traceSlack(img.traces) }

// MachineTraceSlack is ImageTraceSlack for the closures a machine holds,
// including the ones it compiled over private text.
func MachineTraceSlack(m *Machine) string { return traceSlack(m.traces) }

// MachineTraceCount reports how many closures a machine currently holds.
func MachineTraceCount(m *Machine) int { return traceCount(m.traces) }

// ImagePublishedBytes sums the bytes of every closure img has published,
// counted from the closures themselves: header, items and spans.
func ImagePublishedBytes(img *Image) int {
	n := 0
	for i := range img.traces {
		if cp := img.traces[i].Load(); cp != nil && cp != declined {
			n += int(reflect.TypeOf(*cp).Size()) +
				len(cp.items)*int(reflect.TypeOf(ritem{}).Size()) +
				len(cp.spans)*int(reflect.TypeOf([2]int32{}).Size())
		}
	}
	return n
}

func traceCount(traces []atomic.Pointer[closProg]) int {
	n := 0
	for i := range traces {
		if cp := traces[i].Load(); cp != nil && cp != declined {
			n++
		}
	}
	return n
}

func traceSlack(traces []atomic.Pointer[closProg]) string {
	for i := range traces {
		cp := traces[i].Load()
		if cp == nil {
			continue
		}
		if cap(cp.items) != len(cp.items) || cap(cp.spans) != len(cp.spans) {
			return fmt.Sprintf("closure at %d: items len %d cap %d, spans len %d cap %d",
				i, len(cp.items), cap(cp.items), len(cp.spans), cap(cp.spans))
		}
	}
	return ""
}
