package machine

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync/atomic"

	"databreak/internal/cache"
	"databreak/internal/sparc"
)

// CompileImageHeads publishes the trace of every still-marked, uncompiled
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

// ImageTraceCount reports how many traces img has published.
func ImageTraceCount(img *Image) int { return traceCount(img.traces) }

// ImageTraceMismatch compares every trace img has published against a fresh
// compile of its head with a fresh builder and the image's line shift, and
// describes the first difference ("" when all match).
func ImageTraceMismatch(img *Image) string {
	return traceMismatch(img.text, img.uops, img.traces, img.traceShift)
}

// MachineTraceMismatch is ImageTraceMismatch for the traces a machine
// holds, against fresh compiles of its own, possibly patched, text.
func MachineTraceMismatch(m *Machine) string {
	return traceMismatch(m.text, m.uops, m.traces, m.cache.LineShift())
}

func traceMismatch(text []sparc.Instr, uops []uop, traces []atomic.Pointer[traceProg], shift uint32) string {
	for i := range traces {
		tr := traces[i].Load()
		if tr == nil {
			continue
		}
		var b traceBuilder
		if want := b.compile(text, uops, int32(i), shift); !reflect.DeepEqual(tr, want) {
			return fmt.Sprintf("trace at %d differs from a fresh compile", i)
		}
	}
	return ""
}

// ImageTraceSpan returns the first [lo,hi) span of the trace img has
// published at head.
func ImageTraceSpan(img *Image, head int32) (lo, hi int32) {
	s := img.traces[head].Load().spans[0]
	return s[0], s[1]
}

// ImageTraceHeads lists the heads at which img has published a trace, in
// text-index order, and for each whether its spans cover text index idx.
func ImageTraceHeads(img *Image, idx int32) (heads []int32, covers []bool) {
	for i := range img.traces {
		if tr := img.traces[i].Load(); tr != nil {
			heads = append(heads, int32(i))
			covers = append(covers, tr.covers(idx))
		}
	}
	return heads, covers
}

// ImageHasClosure reports whether img holds a published closure at pc for
// cost model c.
func ImageHasClosure(img *Image, c Costs, pc int32) bool {
	img.clsMu.Lock()
	defer img.clsMu.Unlock()
	cls := img.cls[c]
	return cls != nil && cls[pc].Load() != nil
}

// InheritsImageTrace reports whether m's trace slot at pc holds img's own
// published trace and, under the closure engine, its closure slot img's own
// closure for m's cost model.
func InheritsImageTrace(m *Machine, img *Image, pc int32) bool {
	tr := m.traces[pc].Load()
	if tr == nil || tr != img.traces[pc].Load() {
		return false
	}
	if m.cls == nil {
		return true
	}
	img.clsMu.Lock()
	defer img.clsMu.Unlock()
	cp := m.cls[pc].Load()
	return cp != nil && cp == img.cls[m.costs][pc].Load()
}

// MachineHasTrace reports whether m holds a compiled trace at pc.
func MachineHasTrace(m *Machine, pc int32) bool { return m.traces[pc].Load() != nil }

// ImageSlots snapshots every trace slot of img and every closure slot for
// cost model c, so a test can check that no slot changed.
func ImageSlots(img *Image, c Costs) []any {
	var s []any
	for i := range img.traces {
		s = append(s, img.traces[i].Load())
	}
	img.clsMu.Lock()
	defer img.clsMu.Unlock()
	for i := range img.cls[c] {
		s = append(s, img.cls[c][i].Load())
	}
	return s
}

// AppendImageTraces appends a fixed binary encoding of every compiled trace
// of img, in text-index order, to dst: the head index, entry, exitPC,
// shift, passInstrs, every field of every op, and every span. Two builders
// that produce the same encoding for an image produce traces that execute
// identically.
func AppendImageTraces(dst []byte, img *Image) []byte {
	le := binary.LittleEndian
	for i := range img.traces {
		tr := img.traces[i].Load()
		if tr == nil {
			continue
		}
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

// ImageTraceSlack describes the first compiled trace of img whose ops or
// spans slice has capacity beyond its length, or returns "" when every
// trace is stored at exact size.
func ImageTraceSlack(img *Image) string { return traceSlack(img.traces) }

// ImageClosureSlack is ImageTraceSlack for the closures img has published
// under any cost model: it describes the first whose item stream or cold
// array has capacity beyond its length. n counts the closures checked.
func ImageClosureSlack(img *Image) (n int, slack string) {
	img.clsMu.Lock()
	defer img.clsMu.Unlock()
	for _, cls := range img.cls {
		for i := range cls {
			cp := cls[i].Load()
			if cp == nil {
				continue
			}
			n++
			if slack == "" && (cap(cp.items) != len(cp.items) || cap(cp.cold) != len(cp.cold)) {
				slack = fmt.Sprintf("closure at %d: items len %d cap %d, cold len %d cap %d",
					i, len(cp.items), cap(cp.items), len(cp.cold), cap(cp.cold))
			}
		}
	}
	return n, slack
}

// MachineTraceSlack is ImageTraceSlack for the traces a machine holds,
// including the ones it compiled over private text.
func MachineTraceSlack(m *Machine) string { return traceSlack(m.traces) }

// MachineTraceCount reports how many traces a machine currently holds.
func MachineTraceCount(m *Machine) int { return traceCount(m.traces) }

func traceCount(traces []atomic.Pointer[traceProg]) int {
	n := 0
	for i := range traces {
		if traces[i].Load() != nil {
			n++
		}
	}
	return n
}

func traceSlack(traces []atomic.Pointer[traceProg]) string {
	for i := range traces {
		tr := traces[i].Load()
		if tr == nil {
			continue
		}
		if cap(tr.ops) != len(tr.ops) || cap(tr.spans) != len(tr.spans) {
			return fmt.Sprintf("trace at %d: ops len %d cap %d, spans len %d cap %d",
				i, len(tr.ops), cap(tr.ops), len(tr.spans), cap(tr.spans))
		}
	}
	return ""
}
