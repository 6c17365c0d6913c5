// Compile-once, run-many program images.
//
// An Image is the shareable form of a loaded program's text: the decoded
// sparc.Instr slice plus the predecoded µop/block index from blocks.go,
// built once by BuildImage and attached to any number of Machines with
// LoadImage. Sharing is safe because every execution path only READS text
// and uops (the compiled tier's slots fill in once each, by compare-and-
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
	"sync/atomic"
	"unsafe"

	"databreak/internal/sparc"
)

// Image is a predecoded program text. Build with BuildImage; attach with
// Machine.LoadImage. A single Image may back any number of Machines on any
// number of goroutines concurrently. Its text and block index are never
// written after BuildImage returns; only the closure slots below fill in,
// each at most once, as attached machines first reach the heads.
type Image struct {
	text  []sparc.Instr
	uops  []uop
	entry int32
	// traces holds the image's compiled tier (closure.go), one slot per
	// block head (the entry point, every branch/call target, every
	// fall-through successor of a terminator, and every multiple of
	// maxBlockLen), numbered in text order and named by each head's
	// uop.slot. A slot stays nil until the first
	// sharing machine reaches its head, by dispatch or by a trace link;
	// that machine compiles the head's trace, threads it (compileHead) and
	// publishes the closure — or the declined sentinel when the builder
	// declines the head — with a compare-and-swap, and the slot is
	// immutable from then on: machines enter it read-only, and a patching
	// machine privatizes away from the whole image first. The closures are
	// compiled for traceShift, the I-line shift of the default cache
	// geometry, and for DefaultCosts; a machine with another geometry or
	// cost model compiles its own instead (sharesTraces). traceBytes is the
	// running total of TraceBytes, added by each publishing machine.
	traces     []atomic.Pointer[closProg]
	traceShift uint32
	traceBytes atomic.Int64
}

// BuildImage decodes text into a shareable image with the given entry point
// (a text index). The image keeps text itself, so the caller must not
// modify the slice afterwards. It decodes and gives each block head a slot
// only: each head's closure is compiled by the first machine that enters
// it, so an image holds the code its machines actually run.
func BuildImage(text []sparc.Instr, entry int32) *Image {
	uops, heads := buildUops(text, nil, entry)
	return &Image{
		text:       text,
		uops:       uops,
		entry:      entry,
		traces:     make([]atomic.Pointer[closProg], heads),
		traceShift: defaultLineShift(),
	}
}

// Len returns the number of instructions in the image.
func (img *Image) Len() int { return len(img.text) }

// Entry returns the image's entry point (a text index).
func (img *Image) Entry() int32 { return img.entry }

// SizeBytes reports the host memory held by the image (text, block index,
// closure slots and published closures), for artifact-cache accounting. The
// text is the caller's slice, counted here once. It grows as attached
// machines first enter heads, so callers bounding memory must re-read it
// rather than cache it.
func (img *Image) SizeBytes() int {
	return len(img.text)*int(unsafe.Sizeof(sparc.Instr{})) +
		len(img.uops)*int(unsafe.Sizeof(uop{})) +
		len(img.traces)*int(unsafe.Sizeof(atomic.Pointer[closProg]{})) +
		img.TraceBytes()
}

// TraceBytes reports the portion of SizeBytes held by the published
// closures alone (headers, item streams, invalidation spans), reported
// separately so cache accounting can distinguish code from compiled
// footprint. It starts at zero and grows as heads are first entered: it
// measures the code that has actually run.
func (img *Image) TraceBytes() int { return int(img.traceBytes.Load()) }

// LoadImage attaches a shared image: the machine executes directly from the
// image's text and block index with no copying. PC starts at the image's
// entry point. The first PatchInstr after LoadImage privatizes the text and
// µop arrays (copy-on-write), so patches stay invisible to every other
// machine sharing img. Counts are bit-identical to LoadText of the same
// text (see image_test.go).
func (m *Machine) LoadImage(img *Image) {
	m.text = img.text
	m.uops = img.uops
	m.heads = int32(len(img.traces))
	m.imgShared = true
	m.img = img
	m.pc = img.entry
	m.textGen++
	m.syncTraceState()
}

// privatize gives the machine its own copy of the text and block index. It
// is the copy-on-write half of LoadImage: called by PatchInstr before the
// first mutation, it guarantees no write ever lands in a shared image. The
// machine also inherits every closure in the slots it executed so far, slot
// for slot; PatchInstr then drops only the ones the patch covers. Siblings
// sharing the image keep executing, and first-entering, its slots
// untouched.
func (m *Machine) privatize() {
	if !m.imgShared {
		return
	}
	traces := m.traces
	m.text = slices.Clone(m.text)
	m.uops = slices.Clone(m.uops)
	m.imgShared = false
	m.img = nil
	m.syncTraceState()
	for i := range m.traces {
		m.traces[i].Store(traces[i].Load())
	}
}
