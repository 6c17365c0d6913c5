package bench

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"databreak/internal/asm"
	"databreak/internal/machine"
	"databreak/internal/monitor"
	"databreak/internal/mrsnet"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// This file is the mrsd load generator: it drives a daemon (in-process over
// net.Pipe, or a remote one over TCP) with many concurrent sessions and
// differentially checks every session against the serial references the rest
// of the harness uses — the same memoized runs, so an mrsd load sharing an
// artifact cache with the tables reuses their measurements byte for byte.
//
// Two phases, two questions:
//
//   - SCALE: o.Sessions sessions round-robin over the workload suite, each
//     with FarRegion installed (service enabled, zero hits) and a subset
//     performing mid-run region churn and live-text patch churn over the
//     wire. Measures sessions/sec; every session must be byte-identical to
//     the serial run (patchers compared on instrs+output, as in Stress).
//
//   - HITS: o.HitSessions sessions with a region on HitRegion — the one
//     stack word every workload's entry frame writes, picked by probing all
//     ten workloads for a small region with nonzero, moderate hit density on
//     each. Measures hits/sec and p50/p99 attach-to-first-hit latency, and
//     (with PerHitBaseline) repeats the phase on one-frame-per-hit
//     connections to measure the batching win.

// HitRegion is the monitored stack word the hit phase watches; every
// workload's entry frame writes it, so every session produces hits.
const (
	HitRegion     uint32 = machine.StackTop - 4
	HitRegionSize uint32 = 4
)

// ProgramSource adapts this Config to the daemon's program supplier: builds
// go through the artifact cache (when configured), so all sessions running
// one workload share a single program and copy-on-write image, and a daemon
// sharing the cache with the tables reuses their builds.
func (c Config) ProgramSource() mrsnet.ProgramSource {
	c = c.normalized()
	return func(name string, scale int, strat patch.Strategy) (*asm.Program, error) {
		p, ok := workload.ByName(name, scale)
		if !ok {
			return nil, fmt.Errorf("bench: unknown workload %q", name)
		}
		u, err := c.unitFor(p)
		if err != nil {
			return nil, err
		}
		mcfg := monitor.DefaultConfig
		if strat == patch.Cache || strat == patch.CacheInline {
			mcfg.Flags = true
		}
		return c.patchedProgram(p.Source, u, patch.Options{Strategy: strat, Monitor: mcfg})
	}
}

// MachineFactory exposes the Config's machine construction (cache geometry,
// cost model, engine) for daemon Options.NewMachine.
func (c Config) MachineFactory() func() *machine.Machine {
	c = c.normalized()
	return c.newMachine
}

// MrsdOptions parameterizes a load-generator run.
type MrsdOptions struct {
	// Addr is a running daemon's TCP address; "" starts an in-process daemon
	// and connects over net.Pipe.
	Addr string
	// Sessions is the scale-phase session count; < 1 means one per workload.
	Sessions int
	// Conns is how many client connections the sessions are spread over;
	// <= 0 means 8 (capped at Sessions).
	Conns int
	// Batch/Flush tune hit delivery for the main pass (0 = daemon default).
	Batch int
	Flush time.Duration
	// Churn is the number of mid-run region add/remove rounds each churn
	// session performs (every fourth session churns); <= 0 means 4.
	Churn int
	// PatchChurn makes every second churn session also toggle text index 0
	// between unimp and its original instruction over the wire.
	PatchChurn bool
	// HitSessions is the hit-phase session count; 0 means two per workload,
	// < 0 disables the phase.
	HitSessions int
	// PerHitBaseline repeats the hit phase on Batch=1 connections (one frame
	// per hit) and reports the batching speedup.
	PerHitBaseline bool
	// Only restricts the workload suite to the named programs (tests use
	// this to keep -race runs fast); empty means all.
	Only []string
}

// MrsdReport is the load generator's result, written by mrsbench -json as
// BENCH_mrsd.json.
type MrsdReport struct {
	Addr     string `json:"addr,omitempty"` // empty: in-process pipe
	Shards   int    `json:"shards"`
	Conns    int    `json:"conns"`
	Batch    int    `json:"batch"` // 0: daemon default (64)
	Sessions int    `json:"sessions"`
	// ChurnSessions/PatchSessions count scale-phase sessions that performed
	// mid-run region churn / live-text patch churn.
	ChurnSessions  int     `json:"churn_sessions"`
	PatchSessions  int     `json:"patch_sessions"`
	ScaleWallMS    float64 `json:"scale_wall_ms"`
	SessionsPerSec float64 `json:"sessions_per_sec"`

	HitSessions int     `json:"hit_sessions"`
	Hits        int64   `json:"hits"`
	HitWallMS   float64 `json:"hit_wall_ms"`
	HitsPerSec  float64 `json:"hits_per_sec"`
	// Attach-to-first-hit latency over the hit sessions.
	AttachP50MS float64 `json:"attach_to_first_hit_p50_ms"`
	AttachP99MS float64 `json:"attach_to_first_hit_p99_ms"`

	// One-frame-per-hit baseline (PerHitBaseline): same sessions, Batch=1.
	PerHitWallMS     float64 `json:"per_hit_wall_ms,omitempty"`
	PerHitHitsPerSec float64 `json:"per_hit_hits_per_sec,omitempty"`
	// BatchSpeedup is batched hits/sec over per-hit hits/sec.
	BatchSpeedup float64 `json:"batch_speedup,omitempty"`
}

// mrsdRefs is one workload's serial references.
type mrsdRefs struct {
	name string
	far  Run // FarRegion only (scale phase)
	hit  Run // HitRegion only (hit phase)
}

// MrsdLoad runs the load generator against a daemon and differentially
// checks every session. See the file comment for the phase structure.
func (c Config) MrsdLoad(o MrsdOptions) (MrsdReport, error) {
	c = c.normalized()
	programs := workload.All(c.Scale)
	if len(o.Only) > 0 {
		var keep []workload.Program
		for _, name := range o.Only {
			p, ok := workload.ByName(name, c.Scale)
			if !ok {
				return MrsdReport{}, fmt.Errorf("bench: unknown workload %q", name)
			}
			keep = append(keep, p)
		}
		programs = keep
	}
	if o.Sessions < 1 {
		o.Sessions = len(programs)
	}
	if o.HitSessions == 0 {
		o.HitSessions = 2 * len(programs)
	}
	if o.Conns <= 0 {
		o.Conns = 8
	}
	if o.Conns > o.Sessions {
		o.Conns = o.Sessions
	}
	if o.Churn <= 0 {
		o.Churn = 4
	}

	mcfg := monitor.DefaultConfig
	popts := patch.Options{Strategy: patch.BitmapInlineRegisters, Monitor: mcfg}

	// Serial references, keyed exactly like table cells and Stress
	// references so a shared artifact cache reuses them.
	refs, err := parallelMap(c, len(programs), func(i int) (mrsdRefs, error) {
		p := programs[i]
		c.logf("mrsd prep: %s", p.Name)
		u, err := c.unitFor(p)
		if err != nil {
			return mrsdRefs{}, err
		}
		prog, err := c.patchedProgram(p.Source, u, popts)
		if err != nil {
			return mrsdRefs{}, err
		}
		r := mrsdRefs{name: p.Name}
		far := [][2]uint32{{FarRegion, 4}}
		desc := descPatch(popts) + "|exec|" + descMonitor(mcfg) + "|" + descRegions(far, false)
		if r.far, err = c.memoRun(p.Source, desc, func() (Run, error) {
			return c.execute(prog, mcfg, far, false)
		}); err != nil {
			return mrsdRefs{}, err
		}
		if o.HitSessions > 0 {
			hit := [][2]uint32{{HitRegion, HitRegionSize}}
			desc := descPatch(popts) + "|exec|" + descMonitor(mcfg) + "|" + descRegions(hit, false)
			if r.hit, err = c.memoRun(p.Source, desc, func() (Run, error) {
				return c.execute(prog, mcfg, hit, false)
			}); err != nil {
				return mrsdRefs{}, err
			}
		}
		return r, nil
	})
	if err != nil {
		return MrsdReport{}, err
	}

	// Daemon: in-process unless an address was given.
	var dial func(mrsnet.Hello) (*mrsnet.Client, error)
	rep := MrsdReport{Addr: o.Addr, Conns: o.Conns, Batch: o.Batch, Sessions: o.Sessions}
	if o.Addr == "" {
		d, err := mrsnet.NewDaemon(mrsnet.Options{
			Programs:   c.ProgramSource(),
			NewMachine: c.MachineFactory(),
			Batch:      o.Batch,
			Flush:      o.Flush,
		})
		if err != nil {
			return MrsdReport{}, err
		}
		defer d.Close()
		rep.Shards = d.Shards()
		dial = func(h mrsnet.Hello) (*mrsnet.Client, error) {
			return mrsnet.NewClient(d.Pipe(), h)
		}
	} else {
		dial = func(h mrsnet.Hello) (*mrsnet.Client, error) {
			return mrsnet.Dial(o.Addr, h)
		}
	}
	hello := mrsnet.Hello{Batch: o.Batch, Flush: o.Flush}

	dialN := func(n int, h mrsnet.Hello) ([]*mrsnet.Client, error) {
		conns := make([]*mrsnet.Client, n)
		for i := range conns {
			var err error
			if conns[i], err = dial(h); err != nil {
				for _, cl := range conns[:i] {
					cl.Close()
				}
				return nil, err
			}
		}
		return conns, nil
	}
	closeAll := func(conns []*mrsnet.Client) {
		for _, cl := range conns {
			cl.Close()
		}
	}

	// SCALE phase.
	conns, err := dialN(o.Conns, hello)
	if err != nil {
		return MrsdReport{}, err
	}
	c.logf("mrsd scale phase: %d sessions over %d conns", o.Sessions, o.Conns)
	start := time.Now()
	errs := make([]error, o.Sessions)
	shards := make([]int, o.Sessions)
	var wg sync.WaitGroup
	for i := 0; i < o.Sessions; i++ {
		i := i
		ref := refs[i%len(refs)]
		churner := i%4 == 1
		patcher := churner && o.PatchChurn && (i/4)%2 == 1
		if churner {
			rep.ChurnSessions++
		}
		if patcher {
			rep.PatchSessions++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := conns[i%len(conns)]
			sid := fmt.Sprintf("scale-%d", i)
			shard, err := c.mrsdScaleSession(cl, sid, ref, churnPlan{
				churn: churner, rounds: o.Churn, patch: patcher,
			})
			shards[i] = shard
			if err != nil {
				errs[i] = fmt.Errorf("session %s (%s): %w", sid, ref.name, err)
			}
		}()
	}
	wg.Wait()
	scaleWall := time.Since(start)
	closeAll(conns)
	for _, err := range errs {
		if err != nil {
			return MrsdReport{}, err
		}
	}
	for _, sh := range shards {
		if sh+1 > rep.Shards {
			rep.Shards = sh + 1
		}
	}
	rep.ScaleWallMS = ms(scaleWall)
	rep.SessionsPerSec = float64(o.Sessions) / scaleWall.Seconds()

	// HIT phase: batched, then optionally the one-frame-per-hit baseline.
	if o.HitSessions > 0 {
		rep.HitSessions = o.HitSessions
		hits, wall, lats, err := c.mrsdHitPhase(dialN, closeAll, hello, o, refs)
		if err != nil {
			return rep, err
		}
		rep.Hits = hits
		rep.HitWallMS = ms(wall)
		rep.HitsPerSec = float64(hits) / wall.Seconds()
		rep.AttachP50MS = pctileMS(lats, 0.50)
		rep.AttachP99MS = pctileMS(lats, 0.99)
		if o.PerHitBaseline {
			c.logf("mrsd per-hit baseline pass")
			bHits, bWall, _, err := c.mrsdHitPhase(dialN, closeAll, mrsnet.Hello{Batch: 1}, o, refs)
			if err != nil {
				return rep, err
			}
			if bHits != hits {
				return rep, fmt.Errorf("delivery mode changed hit totals: %d batched, %d per-hit", hits, bHits)
			}
			rep.PerHitWallMS = ms(bWall)
			rep.PerHitHitsPerSec = float64(bHits) / bWall.Seconds()
			rep.BatchSpeedup = rep.HitsPerSec / rep.PerHitHitsPerSec
		}
	}
	return rep, nil
}

type churnPlan struct {
	churn  bool
	rounds int
	patch  bool
}

// mrsdScaleSession is one scale-phase session: FarRegion installed, optional
// mid-run churn, byte-identity check against the serial reference.
func (c Config) mrsdScaleSession(cl *mrsnet.Client, sid string, ref mrsdRefs, plan churnPlan) (shard int, err error) {
	s, err := cl.Attach(mrsnet.AttachSpec{SID: sid, Workload: ref.name, Scale: c.Scale})
	if err != nil {
		return -1, err
	}
	if err := s.CreateRegion(FarRegion, 4); err != nil {
		return s.Shard, err
	}
	var res mrsnet.RunResult
	if plan.churn {
		if err := s.Start(); err != nil {
			return s.Shard, err
		}
		for j := 0; j < plan.rounds; j++ {
			if err := s.CreateRegion(ChurnRegion, 16); err != nil {
				return s.Shard, fmt.Errorf("churn create: %w", err)
			}
			if err := s.DeleteRegion(ChurnRegion, 16); err != nil {
				return s.Shard, fmt.Errorf("churn delete: %w", err)
			}
			if plan.patch {
				// Index 0 (startup `call main`) retires exactly once; once it
				// has, it is dead code, so the unimp sitting there between the
				// two requests is harmless — the toggle is skipped server-side
				// until the first instruction retires.
				if applied, err := s.PatchToggle(0, true); err != nil {
					return s.Shard, fmt.Errorf("patch: %w", err)
				} else if applied {
					if _, err := s.PatchToggle(0, false); err != nil {
						return s.Shard, fmt.Errorf("patch restore: %w", err)
					}
				}
			}
		}
		if res, err = s.Wait(); err != nil {
			return s.Shard, err
		}
	} else if res, err = s.Run(); err != nil {
		return s.Shard, err
	}
	// Patchers invalidate their own simulated I-cache, so their cycle count
	// is self-consistent but not serial-comparable (same rule as Stress).
	cyclesOK := plan.patch || res.Cycles == ref.far.Cycles
	if !cyclesOK || res.Instrs != ref.far.Instrs || res.Output != ref.far.Output {
		return s.Shard, fmt.Errorf("diverged from serial: cycles %d vs %d, instrs %d vs %d, output match %v",
			res.Cycles, ref.far.Cycles, res.Instrs, ref.far.Instrs, res.Output == ref.far.Output)
	}
	if res.HitTotal != 0 || s.Hits() != 0 {
		return s.Shard, fmt.Errorf("far-region session produced hits: server %d, client %d", res.HitTotal, s.Hits())
	}
	return s.Shard, s.Detach()
}

// mrsdHitPhase runs o.HitSessions sessions watching HitRegion and returns
// total hits, wall time, and per-session attach-to-first-hit latencies.
func (c Config) mrsdHitPhase(
	dialN func(int, mrsnet.Hello) ([]*mrsnet.Client, error),
	closeAll func([]*mrsnet.Client),
	hello mrsnet.Hello,
	o MrsdOptions,
	refs []mrsdRefs,
) (hits int64, wall time.Duration, lats []time.Duration, err error) {
	nconns := o.Conns
	if nconns > o.HitSessions {
		nconns = o.HitSessions
	}
	conns, err := dialN(nconns, hello)
	if err != nil {
		return 0, 0, nil, err
	}
	defer closeAll(conns)
	c.logf("mrsd hit phase: %d sessions, batch=%d", o.HitSessions, hello.Batch)

	start := time.Now()
	errs := make([]error, o.HitSessions)
	latByS := make([]time.Duration, o.HitSessions)
	hitByS := make([]int64, o.HitSessions)
	var wg sync.WaitGroup
	for i := 0; i < o.HitSessions; i++ {
		i := i
		ref := refs[i%len(refs)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := conns[i%len(conns)]
			sid := fmt.Sprintf("hit-%d-%d", hello.Batch, i)
			s, err := cl.Attach(mrsnet.AttachSpec{SID: sid, Workload: ref.name, Scale: c.Scale})
			if err != nil {
				errs[i] = fmt.Errorf("%s (%s): %w", sid, ref.name, err)
				return
			}
			if err := s.CreateRegion(HitRegion, HitRegionSize); err != nil {
				errs[i] = fmt.Errorf("%s: %w", sid, err)
				return
			}
			res, err := s.Run()
			if err != nil {
				errs[i] = fmt.Errorf("%s (%s): %w", sid, ref.name, err)
				return
			}
			if res.Cycles != ref.hit.Cycles || res.Instrs != ref.hit.Instrs ||
				res.Output != ref.hit.Output || res.HitTotal != ref.hit.Hits {
				errs[i] = fmt.Errorf("%s (%s) diverged from serial: cycles %d vs %d, instrs %d vs %d, hits %d vs %d",
					sid, ref.name, res.Cycles, ref.hit.Cycles, res.Instrs, ref.hit.Instrs, res.HitTotal, ref.hit.Hits)
				return
			}
			if got := s.Hits(); got != res.HitTotal {
				errs[i] = fmt.Errorf("%s: client received %d of %d hits", sid, got, res.HitTotal)
				return
			}
			first := s.FirstHitAt()
			if first.IsZero() {
				errs[i] = fmt.Errorf("%s (%s): no hits delivered", sid, ref.name)
				return
			}
			latByS[i] = first.Sub(s.AttachedAt)
			hitByS[i] = res.HitTotal
			errs[i] = s.Detach()
		}()
	}
	wg.Wait()
	wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, 0, nil, err
		}
	}
	for i := range hitByS {
		hits += hitByS[i]
	}
	return hits, wall, latByS, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// pctileMS is the nearest-rank percentile of a latency sample, in ms.
func pctileMS(lats []time.Duration, p float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(p*float64(len(s))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return ms(s[idx])
}
