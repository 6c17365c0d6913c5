package monitor

import (
	"fmt"

	"databreak/internal/machine"
	"databreak/internal/sparc"
)

// Kind is a region's access-kind mask: which access kinds deliver a hit.
type Kind uint8

const (
	// KindStore delivers store (write) hits only.
	KindStore Kind = 1 << iota
	// KindLoad delivers load (read) hits only. Read hits reach the debugger
	// only when the program was patched with CheckReads.
	KindLoad
	// KindAll delivers both — the legacy CreateRegion behavior.
	KindAll = KindStore | KindLoad
)

func (k Kind) String() string {
	switch k {
	case KindStore:
		return "store"
	case KindLoad:
		return "load"
	case KindAll:
		return "all"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// PredKind selects a transition predicate: a function of the stored value
// whose result change is what fires a transition watchpoint.
type PredKind uint8

const (
	// PredChanged fires when the stored value changes at all (the default).
	PredChanged PredKind = iota
	// PredNonzero fires when the value's zeroness flips.
	PredNonzero
	// PredSign fires when the sign bit flips.
	PredSign
	// PredMask fires when value&Arg changes.
	PredMask
	// PredEQ fires when (value == Arg) flips.
	PredEQ
)

func (k PredKind) String() string {
	switch k {
	case PredChanged:
		return "changed"
	case PredNonzero:
		return "nonzero"
	case PredSign:
		return "sign"
	case PredMask:
		return "mask"
	case PredEQ:
		return "eq"
	}
	return fmt.Sprintf("PredKind(%d)", uint8(k))
}

// ParsePredKind maps a predicate name to its PredKind; the empty string
// means PredChanged (the default).
func ParsePredKind(name string) (PredKind, error) {
	switch name {
	case "", "changed":
		return PredChanged, nil
	case "nonzero":
		return PredNonzero, nil
	case "sign":
		return PredSign, nil
	case "mask":
		return PredMask, nil
	case "eq":
		return PredEQ, nil
	}
	return 0, fmt.Errorf("monitor: unknown transition predicate %q", name)
}

// ParseKind maps an access-kind name ("store", "load", "all"; empty means
// "all") to its Kind mask. "transition" is not a Kind — transition regions
// are created with CreateTransitionRegion.
func ParseKind(name string) (Kind, error) {
	switch name {
	case "", "all":
		return KindAll, nil
	case "store":
		return KindStore, nil
	case "load":
		return KindLoad, nil
	}
	return 0, fmt.Errorf("monitor: unknown region kind %q", name)
}

// Predicate is a transition watchpoint's value predicate.
type Predicate struct {
	Kind PredKind
	Arg  uint32 // PredMask: the mask; PredEQ: the compared value
}

// eval canonicalizes a word value under the predicate; a transition hit
// fires exactly when eval(old) != eval(new).
func (p Predicate) eval(v uint32) uint32 {
	switch p.Kind {
	case PredNonzero:
		if v != 0 {
			return 1
		}
		return 0
	case PredSign:
		return v >> 31
	case PredMask:
		return v & p.Arg
	case PredEQ:
		if v == p.Arg {
			return 1
		}
		return 0
	}
	return v // PredChanged
}

// Hit records one monitor hit delivered by check code.
type Hit struct {
	Addr uint32
	Size int32
	// Read marks a read-monitoring hit (§5 extension); false means a write.
	Read bool
	// PC is the text index of the trap that reported the hit.
	PC int32
	// Instrs is the debuggee instruction count at the hit.
	Instrs int64
	// Old and New carry the before/after values of the first word whose
	// predicate result changed. Meaningful only for transition-region hits
	// (both zero otherwise).
	Old uint32
	New uint32
}

// regionInfo is the Go-side record of one installed region. The simulated
// bitmap stays kind-blind — every monitored word traps on both access kinds
// when the corresponding checks are patched in, keeping the machine-level
// counts identical across kinds — and the Service filters delivery here.
type regionInfo struct {
	addr, size uint32
	kind       Kind
	pred       *Predicate // non-nil: transition region (store-triggered)
	shadow     []uint32   // last known word values, transition regions only
}

// Service is the debugger-resident half of the monitored region service for
// a simulated program. It edits the monitor data structures inside the
// machine's memory (segment table, bitmap segments, range summaries) and
// receives monitor-hit traps.
//
// The Service itself never rewrites text — it edits data pages, which the
// machine's WriteWord path keeps coherent with the simulated cache. The
// PreMonitor/PostMonitor flow that DOES patch code at run time (write-check
// re-insertion, elim.Runtime) must go through machine.PatchInstr, the one
// sanctioned text-mutation path: it re-decodes the instruction, repairs
// the block index and drops the closures covering it, so the patched check
// executes the very next time control reaches it.
//
// A Service is confined to its Machine's serialization domain: like the
// Machine, it is not itself safe for concurrent use. Every call —
// CreateRegion, DeleteRegion, Contains, Reinstall — must hold the same
// external lock that serializes the Machine (monitor.Session provides
// exactly this; see DESIGN.md §7). Services attached to distinct Machines
// share no state and run concurrently without restriction.
type Service struct {
	cfg Config
	m   *machine.Machine

	arenaNext uint32
	segAddr   map[uint32]uint32 // segment number -> private segment address
	counts    map[uint32]uint32 // segment number -> monitored words
	sumCounts [3]map[uint32]uint32
	regions   map[[2]uint32]*regionInfo // {addr,size}
	// plainOnly is true while every region is a legacy KindAll region with
	// no predicate — the common case, where hit delivery needs no region
	// scan at all.
	plainOnly bool

	// Hits accumulates every monitor hit (also delivered to OnHit).
	Hits []Hit
	// NoHitLog suppresses the Hits accumulation (OnHit still fires). Long
	// daemon-hosted runs over hot regions produce millions of hits; callers
	// that stream them elsewhere set this so the Service holds no backlog.
	NoHitLog bool
	// HitCount counts every hit regardless of NoHitLog — the producer-side
	// total a streaming consumer can reconcile its deliveries against.
	HitCount int64
	// OnHit, when non-nil, observes each hit as it happens.
	OnHit func(h Hit)
	// DisabledOverride forces the disabled flag (%g6) on regardless of
	// region count — used to measure the paper's "Disabled" column.
	DisabledOverride bool

	hashArena uint32
}

var summaryShifts = [3]uint32{9, 14, 19}
var summaryBases = [3]uint32{SummaryL9Base, SummaryL14Base, SummaryL19Base}

// NewService attaches a monitored region service to m. It wires the
// monitor-hit trap and initializes the reserved registers (%g4 table base,
// %g6 disabled, segment caches).
func NewService(cfg Config, m *machine.Machine) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Service{
		cfg:       cfg,
		m:         m,
		arenaNext: SegArenaBase,
		hashArena: HashArenaBase,
		segAddr:   make(map[uint32]uint32),
		counts:    make(map[uint32]uint32),
		regions:   make(map[[2]uint32]*regionInfo),
		plainOnly: true,
	}
	for i := range s.sumCounts {
		s.sumCounts[i] = make(map[uint32]uint32)
	}
	m.OnMonHit = func(addr uint32, size int32) { s.storeHit(addr, size) }
	m.OnMonRead = func(addr uint32, size int32) { s.readHit(addr, size) }
	s.syncRegisters()
	return s, nil
}

// deliver records one hit that survived kind and predicate filtering.
func (s *Service) deliver(h Hit) {
	s.HitCount++
	if !s.NoHitLog {
		s.Hits = append(s.Hits, h)
	}
	if s.OnHit != nil {
		s.OnHit(h)
	}
}

// storeHit handles a store-check trap. The trap instruction sits after the
// store in the check sequence, so simulated memory already holds the new
// value; transition regions read it here and diff against their shadow
// copy, making old-value capture exact with no deferred resolution.
//
// Suppressed hits — wrong kind, or a transition whose predicate result did
// not change — are not counted, logged, or forwarded: HitCount tracks
// delivered hits only, so streaming consumers reconcile against what they
// can actually receive.
func (s *Service) storeHit(addr uint32, size int32) {
	if s.plainOnly {
		s.deliver(Hit{Addr: addr, Size: size, PC: s.m.PC(), Instrs: s.m.Instrs()})
		return
	}
	first := addr &^ 3
	last := (addr + uint32(size) - 1) &^ 3
	fire := false
	var old, nv uint32
	got := false
	for w := first; ; w += 4 {
		if info := s.regionOf(w); info != nil && info.kind&KindStore != 0 {
			if info.pred == nil {
				fire = true
			} else {
				i := (w - info.addr) / 4
				n := uint32(s.m.ReadWord(w))
				o := info.shadow[i]
				info.shadow[i] = n
				if info.pred.eval(o) != info.pred.eval(n) {
					fire = true
					if !got {
						old, nv, got = o, n, true
					}
				}
			}
		}
		if w == last {
			break
		}
	}
	if !fire {
		return
	}
	s.deliver(Hit{Addr: addr, Size: size, PC: s.m.PC(), Instrs: s.m.Instrs(),
		Old: old, New: nv})
}

// readHit handles a read-check trap (present only when the program was
// patched with CheckReads).
func (s *Service) readHit(addr uint32, size int32) {
	if s.plainOnly {
		s.deliver(Hit{Addr: addr, Size: size, Read: true, PC: s.m.PC(), Instrs: s.m.Instrs()})
		return
	}
	first := addr &^ 3
	last := (addr + uint32(size) - 1) &^ 3
	for w := first; ; w += 4 {
		if info := s.regionOf(w); info != nil && info.kind&KindLoad != 0 {
			s.deliver(Hit{Addr: addr, Size: size, Read: true, PC: s.m.PC(), Instrs: s.m.Instrs()})
			return
		}
		if w == last {
			break
		}
	}
}

// regionOf returns the installed region covering the word at w, or nil.
// Linear scan: regions are few and non-overlapping.
func (s *Service) regionOf(w uint32) *regionInfo {
	for _, info := range s.regions {
		if w >= info.addr && w < info.addr+info.size {
			return info
		}
	}
	return nil
}

// Config returns the service geometry.
func (s *Service) Config() Config { return s.cfg }

// syncRegisters refreshes the reserved registers the check code depends on.
// Called after Reset and after region changes.
func (s *Service) syncRegisters() {
	tableBase := SegTableBase
	s.m.SetReg(sparc.G4, int32(tableBase))
	disabled := int32(0)
	if len(s.regions) == 0 || s.DisabledOverride {
		disabled = 1
	}
	s.m.SetReg(sparc.G6, disabled)
}

// Reinstall must be called after machine.Reset: it re-seeds the reserved
// registers (monitor memory survives Reset only if regions are re-created,
// so typical harness flow is Reset, Load, NewService or Reinstall, Create*).
func (s *Service) Reinstall() { s.syncRegisters() }

func (s *Service) checkRegion(addr, size uint32) error {
	if addr&3 != 0 || size == 0 || size&3 != 0 {
		return fmt.Errorf("monitor: region [%#x,+%d) is not word aligned", addr, size)
	}
	if addr < machine.TextBase {
		return fmt.Errorf("monitor: region [%#x,+%d) below the program address space", addr, size)
	}
	// The end is computed in 64 bits: a 32-bit sum wraps past 2^32 and
	// would let a region covering the window below slip through.
	end := uint64(addr) + uint64(size)
	if end > 1<<32 {
		return fmt.Errorf("monitor: region [%#x,+%d) wraps past the end of the address space", addr, size)
	}
	// Reject regions inside the monitor's own reserved window. (The real
	// system instead monitors its structures to protect their integrity;
	// here the debugger owns them outright.)
	monEnd := SegArenaBase + 0x0100_0000
	if addr < monEnd && end > uint64(SegTableBase) {
		return fmt.Errorf("monitor: region [%#x,+%d) overlaps monitor structures", addr, size)
	}
	return nil
}

func (s *Service) segOf(addr uint32) uint32 { return addr >> s.cfg.SegShift() }

// ensureSegment gives the segment containing addr private bitmap storage
// and returns its simulated address.
func (s *Service) ensureSegment(n uint32) uint32 {
	if a, ok := s.segAddr[n]; ok {
		return a
	}
	a := s.arenaNext
	s.arenaNext += s.cfg.SegBytesPerBitmap()
	// Keep segments word-aligned with room for the flag bit.
	s.arenaNext = (s.arenaNext + 7) &^ 7
	s.segAddr[n] = a
	return a
}

func (s *Service) writeEntry(n uint32) {
	a, ok := s.segAddr[n]
	if !ok {
		a = 0 // shared zero segment at address 0
	}
	e := a
	if s.cfg.Flags && s.counts[n] > 0 {
		e |= 1
	}
	s.m.WriteWord(SegTableBase+n*4, int32(e))
}

func (s *Service) setBit(addr uint32, on bool) {
	n := s.segOf(addr)
	seg := s.ensureSegment(n)
	w := (addr >> 2) & (s.cfg.SegWords - 1)
	wordAddr := seg + (w>>5)*4
	v := uint32(s.m.ReadWord(wordAddr))
	if on {
		v |= 1 << (w & 31)
	} else {
		v &^= 1 << (w & 31)
	}
	s.m.WriteWord(wordAddr, int32(v))
}

func (s *Service) adjustSummaries(addr, size uint32, delta int) {
	for li, shift := range summaryShifts {
		lo := addr >> shift
		hi := (addr + size - 1) >> shift
		for b := lo; ; b++ {
			gLo := b << shift
			gHi := gLo + (1 << shift) - 1
			from := addr
			if gLo > from {
				from = gLo
			}
			to := addr + size - 1
			if gHi < to {
				to = gHi
			}
			words := (to-from)/4 + 1
			c := s.sumCounts[li][b]
			if delta > 0 {
				c += words
			} else {
				c -= words
			}
			wordAddr := summaryBases[li] + (b>>5)*4
			v := uint32(s.m.ReadWord(wordAddr))
			if c > 0 {
				s.sumCounts[li][b] = c
				v |= 1 << (b & 31)
			} else {
				delete(s.sumCounts[li], b)
				v &^= 1 << (b & 31)
			}
			s.m.WriteWord(wordAddr, int32(v))
			if b == hi {
				break
			}
		}
	}
}

// Contains reports whether the word containing addr is currently monitored,
// by reading the simulated bitmap the way check code would.
func (s *Service) Contains(addr uint32) bool {
	n := s.segOf(addr)
	e := uint32(s.m.ReadWord(SegTableBase + n*4))
	e &^= 1
	w := (addr >> 2) & (s.cfg.SegWords - 1)
	v := uint32(s.m.ReadWord(e + (w>>5)*4))
	return v&(1<<(w&31)) != 0
}

// CreateRegion installs the monitored region [addr, addr+size) with the
// legacy delivery kind: every check that traps on its words — store always,
// read when the program was patched with CheckReads — is delivered.
func (s *Service) CreateRegion(addr, size uint32) error {
	return s.createRegion(&regionInfo{addr: addr, size: size, kind: KindAll})
}

// CreateRegionKind installs a region delivering only hits of the access
// kinds in k. The simulated bitmap (and therefore every machine-level
// count) is identical for all kinds; filtering happens at delivery.
func (s *Service) CreateRegionKind(addr, size uint32, k Kind) error {
	if k == 0 || k&^KindAll != 0 {
		return fmt.Errorf("monitor: invalid region kind %v", k)
	}
	return s.createRegion(&regionInfo{addr: addr, size: size, kind: k})
}

// CreateTransitionRegion installs a transition watchpoint: store-triggered,
// but a hit is delivered only when the predicate's result over the stored
// word actually changes. Old/new word values ride on the delivered Hit. The
// region's initial values are snapshotted from simulated memory now.
func (s *Service) CreateTransitionRegion(addr, size uint32, pred Predicate) error {
	if pred.Kind > PredEQ {
		return fmt.Errorf("monitor: invalid transition predicate %v", pred.Kind)
	}
	info := &regionInfo{addr: addr, size: size, kind: KindStore, pred: &pred}
	return s.createRegion(info)
}

func (s *Service) createRegion(info *regionInfo) error {
	addr, size := info.addr, info.size
	if err := s.checkRegion(addr, size); err != nil {
		return err
	}
	if _, dup := s.regions[[2]uint32{addr, size}]; dup {
		return fmt.Errorf("monitor: region [%#x,+%d) already monitored", addr, size)
	}
	for o := uint32(0); o < size; o += 4 {
		if s.Contains(addr + o) {
			return fmt.Errorf("monitor: word %#x is already monitored", addr+o)
		}
	}
	if info.pred != nil {
		info.shadow = make([]uint32, size/4)
		for o := uint32(0); o < size; o += 4 {
			info.shadow[o/4] = uint32(s.m.ReadWord(addr + o))
		}
	}
	for o := uint32(0); o < size; o += 4 {
		a := addr + o
		s.setBit(a, true)
		s.counts[s.segOf(a)]++
		s.writeEntry(s.segOf(a))
	}
	s.adjustSummaries(addr, size, +1)
	s.hashInsert(addr, size)
	s.regions[[2]uint32{addr, size}] = info
	if info.kind != KindAll || info.pred != nil {
		s.plainOnly = false
	}
	s.syncRegisters()
	return nil
}

// hashBucketAddr mirrors the hash computed by __mrs_hash_* routines.
func hashBucketAddr(addr uint32) uint32 {
	g := addr >> 5
	return HashBase + ((g*40503)&(HashBuckets-1))*4
}

// hashInsert records [addr, addr+size) in the simulated hash table: one
// entry {lo, hi, next} per bucket whose granules the region overlaps.
func (s *Service) hashInsert(addr, size uint32) {
	seen := make(map[uint32]bool)
	for g := addr >> 5; g <= (addr+size-1)>>5; g++ {
		b := hashBucketAddr(g << 5)
		if seen[b] {
			continue
		}
		seen[b] = true
		e := s.hashArena
		s.hashArena += 12
		s.m.WriteWord(e, int32(addr))
		s.m.WriteWord(e+4, int32(addr+size))
		s.m.WriteWord(e+8, s.m.ReadWord(b))
		s.m.WriteWord(b, int32(e))
	}
}

// hashRemove unlinks the region's entries.
func (s *Service) hashRemove(addr, size uint32) {
	seen := make(map[uint32]bool)
	for g := addr >> 5; g <= (addr+size-1)>>5; g++ {
		b := hashBucketAddr(g << 5)
		if seen[b] {
			continue
		}
		seen[b] = true
		prev := b
		e := uint32(s.m.ReadWord(b))
		for e != 0 {
			lo := uint32(s.m.ReadWord(e))
			hi := uint32(s.m.ReadWord(e + 4))
			next := uint32(s.m.ReadWord(e + 8))
			if lo == addr && hi == addr+size {
				s.m.WriteWord(prev, int32(next))
				break
			}
			prev = e + 8
			e = next
		}
	}
}

// DeleteRegion removes a region previously created with these exact bounds.
func (s *Service) DeleteRegion(addr, size uint32) error {
	if _, ok := s.regions[[2]uint32{addr, size}]; !ok {
		return fmt.Errorf("monitor: region [%#x,+%d) is not monitored", addr, size)
	}
	for o := uint32(0); o < size; o += 4 {
		a := addr + o
		s.setBit(a, false)
		n := s.segOf(a)
		if c := s.counts[n] - 1; c == 0 {
			delete(s.counts, n)
		} else {
			s.counts[n] = c
		}
		s.writeEntry(n)
	}
	s.adjustSummaries(addr, size, -1)
	s.hashRemove(addr, size)
	delete(s.regions, [2]uint32{addr, size})
	s.plainOnly = true
	for _, info := range s.regions {
		if info.kind != KindAll || info.pred != nil {
			s.plainOnly = false
			break
		}
	}
	s.syncRegisters()
	return nil
}

// RegionKind returns the delivery kind of the region created with exactly
// these bounds, or 0 if none is installed.
func (s *Service) RegionKind(addr, size uint32) Kind {
	if info, ok := s.regions[[2]uint32{addr, size}]; ok {
		return info.kind
	}
	return 0
}

// Regions returns the number of installed regions.
func (s *Service) Regions() int { return len(s.regions) }

// Detach unhooks the service from its machine: the monitor-hit callbacks are
// cleared, so later traps (should the program keep running) no longer reach
// this Service. Installed regions stay in simulated memory; delete them
// first if the program should stop trapping. Part of the session teardown
// path (monitor.Session.Detach).
func (s *Service) Detach() {
	s.m.OnMonHit = nil
	s.m.OnMonRead = nil
	s.OnHit = nil
}

// SegmentMonitored reports whether the segment containing addr has any
// monitored words (the flag the caching slow path consults).
func (s *Service) SegmentMonitored(addr uint32) bool {
	return s.counts[s.segOf(addr)] > 0
}
