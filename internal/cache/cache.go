// Package cache models the direct-mapped, combined instruction/data cache of
// the SPARC workstations used in the paper's evaluation (32-byte lines).
//
// The paper's §3.3.1 attributes several measurement anomalies (negative
// overheads, inlining being a wash) to this cache: inserting write checks
// both consumes cache capacity and shifts code alignment relative to line
// boundaries. Modelling the cache lets those effects emerge here too.
package cache

// Kind classifies an access for statistics.
type Kind uint8

const (
	IFetch Kind = iota
	DRead
	DWrite
	numKinds
)

// Stats accumulates hit/miss counts per access kind.
type Stats struct {
	Accesses [numKinds]uint64
	Misses   [numKinds]uint64
}

// TotalAccesses returns the number of accesses of all kinds.
func (s Stats) TotalAccesses() uint64 {
	var t uint64
	for _, a := range s.Accesses {
		t += a
	}
	return t
}

// TotalMisses returns the number of misses of all kinds.
func (s Stats) TotalMisses() uint64 {
	var t uint64
	for _, m := range s.Misses {
		t += m
	}
	return t
}

// Cache is a direct-mapped combined I+D cache. It tracks only tags (the
// simulator keeps data in its own memory); a hit or miss is all the cycle
// model needs.
//
// Tags are uint64 so an invalid line can be a sentinel no 32-bit address
// maps to: the hot Access path is then a single load-and-compare, with no
// separate valid-bit array. Access sits on the simulator's per-instruction
// path (one ifetch per Step plus data accesses), so this shape matters.
type Cache struct {
	lineShift uint32 // log2(line size in bytes)
	indexMask uint32 // number of lines - 1
	tags      []uint64
	stats     Stats
}

// invalidTag never equals uint64(line) for any 32-bit address.
const invalidTag = ^uint64(0)

// Config describes a cache geometry.
type Config struct {
	SizeBytes int // total capacity; must be a power of two
	LineBytes int // line size; must be a power of two
}

// DefaultConfig matches the machine in the paper: a 64KB direct-mapped
// combined cache with 32-byte lines.
var DefaultConfig = Config{SizeBytes: 64 * 1024, LineBytes: 32}

// New builds a cache with the given geometry. It panics if the geometry is
// not a power-of-two pair, since that is a programming error in the harness.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.SizeBytes&(cfg.SizeBytes-1) != 0 {
		panic("cache: size must be a positive power of two")
	}
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic("cache: line size must be a positive power of two")
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	if lines < 1 {
		panic("cache: fewer than one line")
	}
	c := &Cache{
		tags: make([]uint64, lines),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	c.indexMask = uint32(lines - 1)
	return c
}

// Access simulates one access; it returns true on a hit. A miss installs the
// line (allocate-on-miss for both reads and writes, which is how a combined
// direct-mapped cache with write-allocate behaves for our purposes).
func (c *Cache) Access(addr uint32, kind Kind) bool {
	line := addr >> c.lineShift
	idx := line & c.indexMask
	c.stats.Accesses[kind]++
	if c.tags[idx] == uint64(line) {
		return true
	}
	c.stats.Misses[kind]++
	c.tags[idx] = uint64(line)
	return false
}

// Line returns the line number (tag and index combined) containing addr.
// Two addresses with equal line numbers always hit or miss together.
func (c *Cache) Line(addr uint32) uint32 { return addr >> c.lineShift }

// LineShift returns log2(line size): addr >> LineShift() == Line(addr).
// Hot loops hoist it into a local instead of re-reading through the pointer
// per access.
func (c *Cache) LineShift() uint32 { return c.lineShift }

// IndexMask returns the mask selecting a line number's slot in the
// direct-mapped array: two lines a, b can evict each other exactly when
// (a^b)&IndexMask() == 0 (equal lines "evict" conservatively).
func (c *Cache) IndexMask() uint32 { return c.indexMask }

// NoteHits records n statistics-only accesses of the given kind that the
// caller has proven would hit (same line as a preceding access, with no
// possibly-evicting access in between). The interpreter's block engine uses
// this to skip the tag probe for sequential instruction fetches while
// keeping Stats bit-identical to one Access call per fetch.
func (c *Cache) NoteHits(kind Kind, n uint64) { c.stats.Accesses[kind] += n }

// Probe reports whether addr would hit, without changing cache state or
// statistics.
func (c *Cache) Probe(addr uint32) bool {
	line := addr >> c.lineShift
	idx := line & c.indexMask
	return c.tags[idx] == uint64(line)
}

// Invalidate drops the line containing addr, if present. The debugger uses
// this when it patches code or monitor data structures from outside the
// simulated processor.
func (c *Cache) Invalidate(addr uint32) {
	line := addr >> c.lineShift
	idx := line & c.indexMask
	if c.tags[idx] == uint64(line) {
		c.tags[idx] = invalidTag
	}
}

// Flush empties the cache and leaves statistics intact.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
}

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

// Lines returns the number of lines.
func (c *Cache) Lines() int { return int(c.indexMask) + 1 }
