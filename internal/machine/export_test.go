package machine

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync/atomic"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// CompileImageHeads publishes the closure of every still-marked, uncompiled
// head of img through the first-entry compile machines run, as if each head
// had been entered once.
func CompileImageHeads(img *Image) {
	m := New(cache.DefaultConfig, DefaultCosts)
	m.LoadImage(img)
	for i := range img.traces {
		if pc := int32(i); img.traces[i].Load() == nil && img.heads.has(pc) {
			m.compileHead(pc)
		}
	}
}

// ImageTraceCount reports how many closures img has published.
func ImageTraceCount(img *Image) int { return traceCount(img.traces) }

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

func traceMismatch(text []sparc.Instr, uops []uop, traces []atomic.Pointer[closProg], shift uint32, c *Costs) string {
	for i := range traces {
		cp := traces[i].Load()
		if cp == nil {
			continue
		}
		if want := freshClosure(text, uops, int32(i), shift, c); !sameClosure(cp, want) {
			return fmt.Sprintf("closure at %d differs from a fresh compile", i)
		}
	}
	return ""
}

// freshClosure compiles and threads the trace at head with a fresh builder,
// or returns nil when the builder declines the head.
func freshClosure(text []sparc.Instr, uops []uop, head int32, shift uint32, c *Costs) *closProg {
	var b traceBuilder
	tr := b.compile(text, uops, head, shift)
	if tr == nil {
		return nil
	}
	return compileClosures(tr, c)
}

// sameClosure reports whether two closures hold the same compiled form:
// every field but the entry thunk, which is a distinct func value per
// closure.
func sameClosure(a, b *closProg) bool {
	if a == nil || b == nil {
		return a == b
	}
	x, y := *a, *b
	x.entry, y.entry = nil, nil
	return reflect.DeepEqual(x, y)
}

// ImageTraceSpan returns the first [lo,hi) span of the closure img has
// published at head.
func ImageTraceSpan(img *Image, head int32) (lo, hi int32) {
	s := img.traces[head].Load().spans[0]
	return s[0], s[1]
}

// ImageTraceHeads lists the heads at which img has published a closure, in
// text-index order, and for each whether its spans cover text index idx.
func ImageTraceHeads(img *Image, idx int32) (heads []int32, covers []bool) {
	for i := range img.traces {
		if cp := img.traces[i].Load(); cp != nil {
			heads = append(heads, int32(i))
			covers = append(covers, cp.covers(idx))
		}
	}
	return heads, covers
}

// InheritsImageTrace reports whether m's slot at pc holds img's own
// published closure.
func InheritsImageTrace(m *Machine, img *Image, pc int32) bool {
	cp := m.traces[pc].Load()
	return cp != nil && cp == img.traces[pc].Load()
}

// MachineHasTrace reports whether m holds a compiled closure at pc.
func MachineHasTrace(m *Machine, pc int32) bool { return m.traces[pc].Load() != nil }

// ImageSlots snapshots every slot of img, so a test can check that no slot
// changed.
func ImageSlots(img *Image) []any {
	var s []any
	for i := range img.traces {
		s = append(s, img.traces[i].Load())
	}
	return s
}

// AppendImageTraces appends a fixed binary encoding of the trace behind
// every closure img has published, in text-index order, to dst: the head
// index, entry, exitPC, shift, passInstrs, every field of every op, and
// every span. Closures keep no op stream, so each trace is a fresh builder
// compile of its head, which the published closure was threaded from. Two
// builders that produce the same encoding for an image produce traces that
// execute identically.
func AppendImageTraces(dst []byte, img *Image) []byte {
	le := binary.LittleEndian
	var b traceBuilder
	for i := range img.traces {
		if img.traces[i].Load() == nil {
			continue
		}
		tr := b.compile(img.text, img.uops, int32(i), img.traceShift)
		dst = le.AppendUint32(dst, uint32(i))
		dst = le.AppendUint32(dst, uint32(tr.entry))
		dst = le.AppendUint32(dst, uint32(tr.exitPC))
		dst = le.AppendUint32(dst, tr.shift)
		dst = le.AppendUint64(dst, uint64(tr.passInstrs))
		dst = le.AppendUint32(dst, uint32(len(tr.ops)))
		for _, u := range tr.ops {
			dst = append(dst, byte(u.op), u.rd, u.rs1, u.s2r, u.cond,
				u.rd2, u.rs1b, u.s2rb, u.nl, u.rd3, u.rs1c, u.s2rc)
			dst = le.AppendUint16(dst, u.ni)
			dst = le.AppendUint16(dst, u.cnt)
			dst = le.AppendUint32(dst, uint32(u.imm))
			dst = le.AppendUint32(dst, uint32(u.imm2))
			dst = le.AppendUint32(dst, uint32(u.tgt))
			dst = le.AppendUint32(dst, u.iaddr)
		}
		dst = le.AppendUint32(dst, uint32(len(tr.spans)))
		for _, s := range tr.spans {
			dst = le.AppendUint32(dst, uint32(s[0]))
			dst = le.AppendUint32(dst, uint32(s[1]))
		}
	}
	return dst
}

// AppendImageClosures appends a fixed binary encoding of every closure img
// has published, in text-index order, to dst: the head, passInstrs, every
// span, and every field of every item.
func AppendImageClosures(dst []byte, img *Image) []byte {
	for i := range img.traces {
		if cp := img.traces[i].Load(); cp != nil {
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
		dst = le.AppendUint32(dst, it.c3)
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
		if cp := img.traces[i].Load(); cp != nil {
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
		if traces[i].Load() != nil {
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
