package machine

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync/atomic"
)

// CompileImageHeads publishes the trace of every still-marked, uncompiled
// head of img through the first-entry path machines take, as if each head
// had been entered once.
func CompileImageHeads(img *Image) {
	var b traceBuilder
	for i := range img.traces {
		if pc := int32(i); img.traces[i].Load() == nil && img.heads.has(pc) {
			img.compileHead(&b, pc)
		}
	}
}

// ImageTraceCount reports how many traces img has published.
func ImageTraceCount(img *Image) int { return traceCount(img.traces) }

// ImageTraceMismatch compares every trace img has published against a fresh
// compile of its head with a fresh builder and the arguments image traces
// are compiled with, and describes the first difference ("" when all
// match).
func ImageTraceMismatch(img *Image) string {
	for i := range img.traces {
		tr := img.traces[i].Load()
		if tr == nil {
			continue
		}
		var b traceBuilder
		if want := b.compile(img.text, img.uops, int32(i), nil, brProfMin, img.traceShift); !reflect.DeepEqual(tr, want) {
			return fmt.Sprintf("published trace at %d differs from a fresh compile", i)
		}
	}
	return ""
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

// MachineTraceSlack is ImageTraceSlack for the traces a machine holds,
// including the ones it compiled lazily over private text.
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
