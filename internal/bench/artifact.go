package bench

import (
	"container/list"
	"crypto/sha256"
	"fmt"
	"sync"
	"unsafe"

	"databreak/internal/asm"
	"databreak/internal/elim"
	"databreak/internal/monitor"
	"databreak/internal/patch"
)

// This file is the content-addressed artifact cache: compile-once, run-many.
//
// Every cell of the benchmark matrix starts from the same small set of build
// products — a workload compiled to an assembly unit, and that unit patched
// (or elim-rewritten) and assembled into a Program. Without the cache the
// harness rebuilds these for every cell of every table, every -count repeat,
// and every stress session. With it, each distinct build is keyed by the
// SHA-256 of its inputs — the workload source text (which already encodes
// the scale factor) plus a canonical descriptor of the transformation
// (strategy, elim options, monitor config, nop count) — and built exactly
// once, then shared. A cached Program carries its predecoded machine.Image
// and data-segment snapshot (asm.LoadShared), so "running a cached artifact"
// is: attach the shared image, memcpy the data snapshot, execute. Machines
// never mutate a shared program's code — machine.PatchInstr privatizes on
// first write — and publish each closure they compile into its image once, so
// any number of concurrent workers and sessions may run one artifact.
//
// The cache also memoizes EXECUTIONS. The simulated machine is
// bit-deterministic — the differential suite pins that a given (program,
// machine config, monitor config, regions) tuple produces identical cycles,
// instructions, output, and cache stats on every run, serial or sliced —
// so a run is as content-addressable as a build: its key is the program's
// key plus a canonical descriptor of everything the run depends on
// (monitor config, regions, disabled flag, machine cache/cost model,
// server routing). The tables repeat many identical runs — every needBase
// table re-measures the same baselines, ablation variant 0 is Table 1's
// BmInlReg cell is the strategy table's bitmap column, Figure 3's 128-word
// point is Table 1's Cache cell — and each now executes once. Because
// replay only ever substitutes a value the simulator is proven to
// reproduce, table output is byte-identical with the cache on or off, for
// any -workers value.

// Artifact is one cached build product. Exactly one pointer class is set
// per entry kind: Unit for compiled workloads, Prog (plus Elim for
// elimination rewrites) for assembled programs. All fields are immutable
// once built, units included (see asm.Unit).
type Artifact struct {
	Unit *asm.Unit
	Prog *asm.Program
	Elim *elim.Result
}

// sizeBytes is what the cache charges an artifact against its cap: a
// compiled unit's items, a program's shared image and data snapshot
// (which grow as machines first enter the image's heads), and an
// elimination result's own units. The result's last unit, the monitor
// library, is the one parse patch.SharedLibrary keeps for every result of
// its configuration whether or not this entry stays, so it is not charged.
func (a Artifact) sizeBytes() int64 {
	var n int64
	if a.Unit != nil {
		n += unitBytes(a.Unit)
	}
	if a.Prog != nil {
		n += int64(a.Prog.SizeBytes())
	}
	if a.Elim != nil && len(a.Elim.Units) > 0 {
		for _, u := range a.Elim.Units[:len(a.Elim.Units)-1] {
			n += unitBytes(u)
		}
	}
	return n
}

// unitBytes is the size of u's item array, the part of a unit that scales
// with the program.
func unitBytes(u *asm.Unit) int64 {
	return int64(len(u.Items)) * int64(unsafe.Sizeof(asm.Item{}))
}

type artifactEntry struct {
	once sync.Once
	art  Artifact
	err  error

	// Eviction bookkeeping, all guarded by the cache mutex. key lets a
	// post-build accounting pass verify the entry is still resident; bytes is
	// the size last measured; elem is the entry's LRU position (nil until the
	// build completes, and again after eviction). Every successful build
	// joins the LRU, compiled units included.
	key   [sha256.Size]byte
	bytes int64
	elem  *list.Element
}

type runEntry struct {
	once sync.Once
	run  Run
	err  error
}

// ArtifactCache memoizes build products and deterministic executions across
// tables, repeats, and stress sessions. Safe for concurrent use; concurrent
// requests for the same key build (or run) once and share the result
// (per-entry once).
type ArtifactCache struct {
	mu        sync.Mutex
	entries   map[[sha256.Size]byte]*artifactEntry
	runs      map[[sha256.Size]byte]*runEntry
	hits      uint64
	misses    uint64
	runHits   uint64
	runMisses uint64

	// Size bounding. capBytes <= 0 means unbounded. lru orders the built
	// entries most-recently-used first. When their total size exceeds the
	// cap, least-recently-used entries are dropped (never the one just
	// touched) so a long-lived daemon serving many distinct workloads, or
	// one workload at many scales, cannot grow without limit.
	// Evicted entries simply leave the map — holders of the returned
	// Artifact keep a valid immutable value; the next request rebuilds.
	capBytes  int64
	lru       *list.List
	evictions uint64
}

// NewArtifactCache returns an empty, unbounded cache.
func NewArtifactCache() *ArtifactCache {
	return &ArtifactCache{
		entries: make(map[[sha256.Size]byte]*artifactEntry),
		runs:    make(map[[sha256.Size]byte]*runEntry),
		lru:     list.New(),
	}
}

// SetCapBytes bounds the bytes retained by cached artifacts (see
// Artifact.sizeBytes); n <= 0 removes the bound. Lowering the cap evicts
// immediately.
func (c *ArtifactCache) SetCapBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capBytes = n
	c.evict()
}

// evict re-measures the resident entries, then drops least-recently-used
// ones until the total fits the cap. Re-measuring keeps the bound honest: a
// program's image keeps growing after admission as machines first enter its
// heads (machine.Image.SizeBytes), so a size charged once would under-count.
// It costs O(entries), since SizeBytes is O(1). The MRU entry always
// survives, so a single artifact larger than the cap still caches (the
// alternative is rebuilding it on every request). Callers must hold c.mu.
func (c *ArtifactCache) evict() {
	if c.capBytes <= 0 {
		return
	}
	var total int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*artifactEntry)
		e.bytes = e.art.sizeBytes()
		total += e.bytes
	}
	for total > c.capBytes && c.lru.Len() > 1 {
		back := c.lru.Back()
		e := back.Value.(*artifactEntry)
		c.lru.Remove(back)
		e.elem = nil
		total -= e.bytes
		delete(c.entries, e.key)
		c.evictions++
	}
}

// account enters a completed build into the LRU (idempotent; a racing
// eviction wins) and enforces the cap.
func (c *ArtifactCache) account(e *artifactEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.elem == nil && c.entries[e.key] == e {
		e.elem = c.lru.PushFront(e)
	}
	c.evict()
}

// ArtifactStats is a point-in-time view of cache effectiveness, reported in
// mrsbench's JSON output.
type ArtifactStats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
	// RunHits/RunMisses count memoized-execution lookups; Runs is the
	// number of distinct runs retained.
	RunHits   uint64 `json:"run_hits"`
	RunMisses uint64 `json:"run_misses"`
	Runs      int    `json:"runs"`
	// Bytes estimates host memory retained by the cached artifacts: the
	// item arrays of compiled units and of elimination results' own units,
	// plus each program's shared image and data snapshot. TraceBytes is
	// the portion of Bytes held by the images' published closures — the
	// part that scales with the text machines have actually entered rather
	// than program size, broken out so a cap tuned against real footprint
	// can see what the compiled tier costs. Both grow as cached programs
	// run.
	// CapBytes is the configured bound (0 = unbounded) and Evictions counts
	// entries dropped to enforce it.
	Bytes      int64  `json:"bytes"`
	TraceBytes int64  `json:"trace_bytes"`
	CapBytes   int64  `json:"cap_bytes,omitempty"`
	Evictions  uint64 `json:"evictions"`
}

// Stats reports hit/miss counts and the retained-bytes estimate.
func (c *ArtifactCache) Stats() ArtifactStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := ArtifactStats{
		Hits: c.hits, Misses: c.misses, Entries: len(c.entries),
		RunHits: c.runHits, RunMisses: c.runMisses, Runs: len(c.runs),
		CapBytes: c.capBytes, Evictions: c.evictions,
	}
	// Only builds that joined the LRU are complete; an entry mid-build is
	// counted on the next Stats call.
	for el := c.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*artifactEntry)
		st.Bytes += e.art.sizeBytes()
		if e.art.Prog != nil {
			st.TraceBytes += int64(e.art.Prog.TraceBytes())
		}
	}
	return st
}

// do returns the artifact for key, building it at most once across all
// goroutines. An error is cached too: a build that cannot succeed is not
// retried per cell, and every cell reports the same failure.
func (c *ArtifactCache) do(key [sha256.Size]byte, build func() (Artifact, error)) (Artifact, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &artifactEntry{key: key}
		c.entries[key] = e
		c.misses++
	} else {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
	}
	c.mu.Unlock()
	e.once.Do(func() { e.art, e.err = build() })
	if e.err == nil {
		c.account(e)
	}
	return e.art, e.err
}

// artifactKey derives the content address: the workload source (which
// encodes program identity and scale) plus the canonical transformation
// descriptor.
func artifactKey(src, desc string) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(src))
	h.Write([]byte{0})
	h.Write([]byte(desc))
	var key [sha256.Size]byte
	h.Sum(key[:0])
	return key
}

// artifact routes a build through the cache when one is configured and the
// caller supplied a source identity; otherwise it just builds. src == ""
// marks the uncached public entry points (RunBaseline etc. called with a
// bare unit, where no content identity is available).
func (c Config) artifact(src, desc string, build func() (Artifact, error)) (Artifact, error) {
	if c.Artifacts == nil || src == "" {
		return build()
	}
	return c.Artifacts.do(artifactKey(src, desc), build)
}

// doRun is the execution-side twin of do.
func (c *ArtifactCache) doRun(key [sha256.Size]byte, exec func() (Run, error)) (Run, error) {
	c.mu.Lock()
	e, ok := c.runs[key]
	if !ok {
		e = &runEntry{}
		c.runs[key] = e
		c.runMisses++
	} else {
		c.runHits++
	}
	c.mu.Unlock()
	e.once.Do(func() { e.run, e.err = exec() })
	return e.run, e.err
}

// memoRun memoizes a deterministic execution. desc must name the program
// artifact (its build descriptor) plus every run-side input; runScope folds
// in the Config-level state the simulated counts depend on. The returned
// Run may be shared — its Counters map is read-only to callers.
func (c Config) memoRun(src, desc string, exec func() (Run, error)) (Run, error) {
	if c.Artifacts == nil || src == "" {
		return exec()
	}
	return c.Artifacts.doRun(artifactKey(src, c.runScope()+desc), exec)
}

// runScope canonicalizes the Config state a run's counts depend on: the
// simulated cache geometry and cost model. Server routing is included out
// of caution — counts are proven identical either way, but keeping the
// scopes separate means a -server run always exercises the server at least
// once per distinct cell.
func (c Config) runScope() string {
	return fmt.Sprintf("scope|cache=%+v|costs=%+v|server=%t|", c.Cache, c.Costs, c.Server != nil)
}

// descRegions canonicalizes an execute call's run-side inputs.
func descRegions(regions [][2]uint32, disabled bool) string {
	return fmt.Sprintf("regions=%v|disabled=%t", regions, disabled)
}

// descMonitor canonicalizes a monitor config for key purposes.
func descMonitor(mc monitor.Config) string {
	return fmt.Sprintf("seg=%d,flags=%t", mc.SegWords, mc.Flags)
}

// descPatch canonicalizes patch options, applying the same normalization
// patch.Apply performs (zero monitor config -> default; cache strategies
// force the flag bit) so equivalent options map to one artifact.
func descPatch(o patch.Options) string {
	if o.Monitor.SegWords == 0 {
		o.Monitor = monitor.DefaultConfig
	}
	if o.Strategy == patch.Cache || o.Strategy == patch.CacheInline {
		o.Monitor.Flags = true
	}
	return fmt.Sprintf("patch|strat=%d|nops=%d|reads=%t|nodis=%t|%s",
		o.Strategy, o.Nops, o.CheckReads, o.SkipDisabledBranch, descMonitor(o.Monitor))
}

// descElim canonicalizes an elimination configuration.
func descElim(mode elim.Mode, mc monitor.Config) string {
	if mc.SegWords == 0 {
		mc = monitor.DefaultConfig
	}
	return fmt.Sprintf("elim|mode=%d|%s", mode, descMonitor(mc))
}
