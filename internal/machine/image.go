// Compile-once, run-many program images.
//
// An Image is the shareable form of a loaded program's text: the decoded
// sparc.Instr slice plus the predecoded µop/block index from blocks.go,
// built once by BuildImage and attached to any number of Machines with
// LoadImage. Sharing is safe because every execution path only READS text
// and uops (the compiled tiers' slots fill in once each, by compare-and-
// swap, and are never rewritten); the one mutation path, PatchInstr,
// privatizes both arrays on first write (copy-on-write), so a Kessler-style
// runtime patch in one machine — the PreMonitor/PostMonitor flow,
// elim.Runtime arming a site — can never leak into a sibling sharing the
// same image. This is the self-modifying-code hazard of "Instrumenting
// self-modifying code" (PAPERS.md) resolved in the direction the paper's
// design wants: the shared artifact stays pristine, the patching debuggee
// pays a one-time copy.
//
// Simulated cycle and instruction counts are bit-identical between LoadText
// and LoadImage by construction: both install the same decoded text and the
// same block index, and neither touches the cache model. The differential
// suite (image_test.go) pins this.
package machine

import (
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"databreak/internal/sparc"
)

// Image is a predecoded program text. Build with BuildImage; attach with
// Machine.LoadImage. A single Image may back any number of Machines on any
// number of goroutines concurrently. Its text and block index are never
// written after BuildImage returns; only the trace and closure slots below
// fill in, each at most once, as attached machines first reach the heads,
// and a declined head loses its mark.
type Image struct {
	text  []sparc.Instr
	uops  []uop
	entry int32
	// heads marks the block heads a trace may be compiled at (blockHeads):
	// the entry point, every branch/call target, and every fall-through
	// successor of a terminator. A head whose trace the builder declines
	// loses its mark, so no machine retries it.
	heads headSet
	// traces holds the image's trace tier (trace.go), one slot per text
	// index. A slot stays nil until the first attached machine reaches its
	// marked head, by dispatch or by a trace link; that machine compiles
	// the trace (compileHead) and publishes it with a compare-and-swap, and
	// the trace is immutable from then on: machines enter it read-only, and
	// a patching machine privatizes away from the whole image first.
	// traceShift is the I-line shift the traces are compiled for (the
	// default cache geometry); machines with a different geometry compile
	// their own traces instead (syncTraceState). traceBytes is the running
	// total of TraceBytes, added by each publishing machine.
	traces     []atomic.Pointer[traceProg]
	traceShift uint32
	traceBytes atomic.Int64
	// cls holds the closure tier's shared threaded form of the traces
	// above, one slot slice per cost model the item streams bake in.
	// sharedClosures allocates a model's slice on the first closure-engine
	// attach with it; each slot then fills on first entry with the same
	// publish-once rule as traces (closureAt), and a published closProg is
	// immutable. Deliberately NOT part of SizeBytes: retained-bytes
	// accounting must not depend on which engine has run (the benchmark
	// reports diff it across engines).
	clsMu sync.Mutex
	cls   map[Costs][]atomic.Pointer[closProg]
}

// BuildImage decodes text into a shareable image with the given entry point
// (a text index). The input slice is copied, so the caller may reuse it.
// It decodes and marks block heads only: each head's trace is compiled by
// the first machine that enters it, so an image holds the traces its
// machines actually run.
func BuildImage(text []sparc.Instr, entry int32) *Image {
	img := &Image{
		text:  make([]sparc.Instr, len(text)),
		entry: entry,
	}
	copy(img.text, text)
	img.uops = buildUops(img.text, nil)
	img.heads = blockHeads(img.text, img.uops, entry)
	img.traces = make([]atomic.Pointer[traceProg], len(img.text))
	img.traceShift = defaultLineShift()
	return img
}

// Len returns the number of instructions in the image.
func (img *Image) Len() int { return len(img.text) }

// Entry returns the image's entry point (a text index).
func (img *Image) Entry() int32 { return img.entry }

// SizeBytes reports the host memory held by the image (text, block index,
// head marks, trace slots and compiled traces), for artifact-cache
// accounting. It grows as attached machines first enter heads, so callers
// bounding memory must re-read it rather than cache it.
func (img *Image) SizeBytes() int {
	return len(img.text)*int(unsafe.Sizeof(sparc.Instr{})) +
		len(img.uops)*int(unsafe.Sizeof(uop{})) +
		len(img.heads)*int(unsafe.Sizeof(atomic.Uint64{})) +
		len(img.traces)*int(unsafe.Sizeof(atomic.Pointer[traceProg]{})) +
		img.TraceBytes()
}

// TraceBytes reports the portion of SizeBytes held by the compiled trace
// tier alone (trace headers, op streams, invalidation spans), reported
// separately so cache accounting can distinguish code from trace
// footprint. It starts at zero and grows as heads are first entered: it
// measures the code that has actually run.
func (img *Image) TraceBytes() int { return int(img.traceBytes.Load()) }

// traceSize is one trace's contribution to TraceBytes.
func traceSize(tr *traceProg) int {
	return int(unsafe.Sizeof(traceProg{})) +
		len(tr.ops)*int(unsafe.Sizeof(top{})) +
		len(tr.spans)*8
}

// sharedClosures returns the image's shared closure slots for cost model c,
// allocating them empty on the first request per model (the per-model map
// stays tiny: one entry per distinct Costs that ever attaches a
// closure-engine machine to this image). The slots fill on first entry.
func (img *Image) sharedClosures(c Costs) []atomic.Pointer[closProg] {
	img.clsMu.Lock()
	defer img.clsMu.Unlock()
	cls, ok := img.cls[c]
	if !ok {
		cls = make([]atomic.Pointer[closProg], len(img.text))
		if img.cls == nil {
			img.cls = make(map[Costs][]atomic.Pointer[closProg], 1)
		}
		img.cls[c] = cls
	}
	return cls
}

// buildUops decodes text into its block index, reusing buf's capacity when
// possible. It is the single decode pass shared by LoadText (private text)
// and BuildImage (shared image): for every index i, the entry holds the
// predecoded µop and the straight-line run length starting at i (see
// blocks.go).
func buildUops(text []sparc.Instr, buf []uop) []uop {
	n := len(text)
	if cap(buf) < n {
		buf = make([]uop, n)
	}
	buf = buf[:n]
	next := int32(0) // bl of index i+1
	for i := n - 1; i >= 0; i-- {
		u, ok := decodeUop(&text[i])
		if ok {
			next = min(next+1, maxBlockLen)
		} else {
			next = 0
		}
		u.bl = next
		buf[i] = u
	}
	return buf
}

// LoadImage attaches a shared image: the machine executes directly from the
// image's text and block index with no copying. PC starts at the image's
// entry point. The first PatchInstr after LoadImage privatizes the text and
// µop arrays (copy-on-write), so patches stay invisible to every other
// machine sharing img. Counts are bit-identical to LoadText of the same
// text (see image_test.go).
func (m *Machine) LoadImage(img *Image) {
	m.text = img.text
	m.uops = img.uops
	m.heads = img.heads
	m.imgShared = true
	m.img = img
	m.pc = img.entry
	m.textGen++
	m.syncTraceState()
}

// privatize gives the machine its own copy of the text, block index and
// head marks. It is the copy-on-write half of LoadImage: called by
// PatchInstr before the first mutation, it guarantees no write ever lands in
// a shared image. The machine also inherits every trace published so far
// and, under the closure engine, its threaded form; PatchInstr then drops
// only the ones the patch covers. A closure slot is filled only where its
// trace slot is, so invalidateTraces, which walks the trace slots, reaches
// every inherited closure. Siblings sharing the image keep executing, and
// first-entering, its slots untouched.
func (m *Machine) privatize() {
	if !m.imgShared {
		return
	}
	traces, cls := m.traces, m.cls
	m.text = slices.Clone(m.text)
	m.uops = slices.Clone(m.uops)
	m.heads = m.heads.clone()
	m.imgShared = false
	m.img = nil
	m.syncTraceState()
	for i := range m.traces {
		if tr := traces[i].Load(); tr != nil {
			m.traces[i].Store(tr)
			if m.cls != nil {
				m.cls[i].Store(cls[i].Load())
			}
		}
	}
}
