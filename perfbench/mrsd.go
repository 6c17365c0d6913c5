package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"databreak/internal/asm"
	"databreak/internal/bench"
	"databreak/internal/machine"
	"databreak/internal/mrsnet"
	"databreak/internal/patch"
)

// The hits workload runs the four programs with the densest HitRegion
// streams; churn runs the six with sparse streams. See NOTES.md.
var (
	hitsPrograms  = []string{"nasker", "spice2g6", "eqntott", "espresso"}
	churnPrograms = []string{"gcc", "li", "doduc", "fpppp", "matrix300", "tomcatv"}
)

const (
	// conns is the number of client connections; each keeps one session in
	// flight (a closed loop), so at most two sessions run at once.
	conns = 2
	// hitsPerProgram and churnPerProgram size one round of sessions: 20
	// hits sessions (a first-hit median with 10 samples beyond it in every
	// round) and 36 churn sessions (about two seconds).
	hitsPerProgram  = 5
	churnPerProgram = 6
	// artifactCap is mrsd's default artifact cache bound.
	artifactCap = 128 << 20
	// churnRegionSize is the span the churn rounds add and remove.
	churnRegionSize = 16
)

// churnRoundCounts is the multiset of region+/region- rounds a churn session
// draws from; each round of sessions uses every count equally often, so the
// seed changes the order of work but not its amount.
var churnRoundCounts = []int{3, 4, 5, 6, 7}

// wireStats are the counters the benchmark's connection and callback
// wrappers keep. All fields are updated from daemon and client goroutines.
type wireStats struct {
	serverWriteNS atomic.Int64
	serverBytes   atomic.Int64
	serverFrames  atomic.Int64
	clientBusyNS  atomic.Int64
	hitFrames     atomic.Int64
	hits          atomic.Int64
}

// serverConn times the daemon's writes on an accepted connection and counts
// the length-prefixed frames they carry.
type serverConn struct {
	net.Conn
	st  *wireStats
	tr  *atomic.Pointer[tracer]
	mu  sync.Mutex
	hdr []byte // partial length prefix
	rem uint32 // payload bytes left in the current frame
}

func (c *serverConn) Write(p []byte) (int, error) {
	sp := c.tr.Load().begin("mrsnet.server_write", "")
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.st.serverWriteNS.Add(int64(time.Since(t0)))
	sp.end()
	c.st.serverBytes.Add(int64(n))
	c.mu.Lock()
	c.st.serverFrames.Add(int64(c.countFrames(p[:n])))
	c.mu.Unlock()
	return n, err
}

// countFrames advances the frame parser over b and returns how many frames
// it completed.
func (c *serverConn) countFrames(b []byte) int {
	done := 0
	for len(b) > 0 {
		if c.rem > 0 {
			k := min(uint32(len(b)), c.rem)
			c.rem -= k
			b = b[k:]
			if c.rem == 0 {
				done++
			}
			continue
		}
		c.hdr = append(c.hdr, b[0])
		b = b[1:]
		if len(c.hdr) == 4 {
			c.rem = uint32(c.hdr[0])<<24 | uint32(c.hdr[1])<<16 | uint32(c.hdr[2])<<8 | uint32(c.hdr[3])
			c.hdr = c.hdr[:0]
		}
	}
	return done
}

// clientConn measures the client's busy time: the time its reader spends
// between returning from one Read and calling the next, which is frame
// decoding and dispatch. Only the client's reader goroutine calls Read.
type clientConn struct {
	net.Conn
	st   *wireStats
	tr   *atomic.Pointer[tracer]
	last time.Time
}

func (c *clientConn) Read(p []byte) (int, error) {
	if !c.last.IsZero() {
		now := time.Now()
		c.st.clientBusyNS.Add(int64(now.Sub(c.last)))
		if t := c.tr.Load(); t != nil {
			t.add(spanRec{Name: "mrsnet.client_decode", Start: int64(c.last.Sub(t.origin)), End: int64(now.Sub(t.origin))})
		}
	}
	n, err := c.Conn.Read(p)
	c.last = time.Now()
	return n, err
}

// listener hands the daemon every accepted connection wrapped in a
// serverConn.
type listener struct {
	net.Listener
	dm *daemon
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, st: &l.dm.st, tr: &l.dm.tr}, nil
}

// daemon is one set-up of the mrsd workloads: an in-process daemon on
// loopback TCP with the benchmark's two client connections.
type daemon struct {
	cfg     bench.Config
	d       *mrsnet.Daemon
	clients []*mrsnet.Client
	served  chan error
	st      wireStats
	tr      atomic.Pointer[tracer]
	engine  atomic.Value // string: the engine of the machines the daemon made
}

// startDaemon starts a daemon with mrsd's defaults (bench.DefaultConfig, an
// artifact cache at mrsd's default bound, zero mrsnet.Options otherwise),
// with the program source and machine factory wrapped for timing.
func startDaemon() (*daemon, error) {
	dm := &daemon{cfg: bench.DefaultConfig(), served: make(chan error, 1)}
	dm.cfg.Artifacts = bench.NewArtifactCache()
	dm.cfg.Artifacts.SetCapBytes(artifactCap)
	source := dm.cfg.ProgramSource()
	factory := dm.cfg.MachineFactory()
	d, err := mrsnet.NewDaemon(mrsnet.Options{
		Programs: func(w string, scale int, s patch.Strategy) (*asm.Program, error) {
			sp := dm.tr.Load().begin("bench.program_source", "")
			defer sp.end()
			return source(w, scale, s)
		},
		NewMachine: func() *machine.Machine {
			sp := dm.tr.Load().begin("machine.new", "")
			m := factory()
			sp.end()
			dm.engine.Store(m.Engine().String())
			return m
		},
	})
	if err != nil {
		return nil, err
	}
	dm.d = d
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, err
	}
	go func() {
		dm.served <- d.Serve(&listener{ln, dm})
	}()
	for i := 0; i < conns; i++ {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			dm.close()
			return nil, err
		}
		cl, err := mrsnet.NewClient(&clientConn{Conn: nc, st: &dm.st, tr: &dm.tr}, mrsnet.Hello{})
		if err != nil {
			dm.close()
			return nil, err
		}
		cl.OnHits = func(batch []mrsnet.HitRec) {
			dm.st.hitFrames.Add(1)
			dm.st.hits.Add(int64(len(batch)))
		}
		dm.clients = append(dm.clients, cl)
	}
	return dm, nil
}

// close stops the clients and the daemon and waits for the daemon's accept
// loop to return.
func (dm *daemon) close() {
	for _, cl := range dm.clients {
		cl.Close()
	}
	dm.d.Close()
	<-dm.served
}

// sessPlan is one session of a round.
type sessPlan struct {
	prog    string
	rounds  int // churn: region+/region- rounds
	patchAt int // churn: the round after which the patch toggle pair goes
}

// plan is one round of sessions in seeded order: every program perProgram
// times, and for churn every round count equally often.
func plan(programs []string, perProgram int, churn bool, rng *rand.Rand) []sessPlan {
	var ps []sessPlan
	for k := 0; k < perProgram; k++ {
		for _, p := range programs {
			ps = append(ps, sessPlan{prog: p})
		}
	}
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	if churn {
		for i := range ps {
			ps[i].rounds = churnRoundCounts[i%len(churnRoundCounts)]
			ps[i].patchAt = rng.IntN(ps[i].rounds)
		}
	}
	return ps
}

// sessOut is what one session measured.
type sessOut struct {
	instrs     int64
	hits       int64
	firstHit   time.Duration
	runToFirst time.Duration
	ctl        []time.Duration // control requests sent while the run was in flight
	rtt        map[string][]time.Duration
	toggles    int // first toggles of a pair sent
	applied    int // of which applied
}

// record adds the round trip of a request sent at t0 and returns it.
func (o *sessOut) record(op string, t0 time.Time) time.Duration {
	d := time.Since(t0)
	o.rtt[op] = append(o.rtt[op], d)
	return d
}

// runSession drives one session over cl and checks it against the
// reference. churn selects the churn session shape.
func runSession(sp span, cl *mrsnet.Client, sid string, p sessPlan, churn bool, ref resultRef) (sessOut, error) {
	out := sessOut{rtt: make(map[string][]time.Duration)}
	c := sp.child("mrsnet.attach")
	t0 := time.Now()
	s, err := cl.Attach(mrsnet.AttachSpec{SID: sid, Workload: p.prog, Scale: 1})
	out.record("attach", t0)
	c.end()
	if err != nil {
		return out, err
	}
	detached := false
	defer func() {
		if !detached {
			s.Detach()
		}
	}()
	c = sp.child("mrsnet.region")
	t0 = time.Now()
	err = s.CreateRegion(bench.HitRegion, bench.HitRegionSize)
	out.record("region", t0)
	c.end()
	if err != nil {
		return out, err
	}

	c = sp.child("mrsnet.run")
	tRun := time.Now()
	if err := s.Start(); err != nil {
		c.end()
		return out, err
	}
	var res mrsnet.RunResult
	var runErr error
	done := make(chan struct{})
	go func() {
		res, runErr = s.Wait()
		close(done)
	}()
	if churn {
		inFlight := func() bool {
			select {
			case <-done:
				return false
			default:
				return true
			}
		}
		ctl := func(op string, f func() error) error {
			q := sp.child("mrsnet." + op)
			t0 := time.Now()
			err := f()
			d := out.record(op, t0)
			q.end()
			if err == nil {
				out.ctl = append(out.ctl, d)
			}
			return err
		}
		for j := 0; j < p.rounds && inFlight() && err == nil; j++ {
			err = ctl("region", func() error { return s.CreateRegion(bench.ChurnRegion, churnRegionSize) })
			if err == nil {
				err = ctl("region", func() error { return s.DeleteRegion(bench.ChurnRegion, churnRegionSize) })
			}
			if err == nil && j == p.patchAt && inFlight() {
				var applied bool
				err = ctl("patch", func() (e error) { applied, e = s.PatchToggle(0, true); return e })
				out.toggles++
				if err == nil && applied {
					out.applied++
					err = ctl("patch", func() error { _, e := s.PatchToggle(0, false); return e })
				}
			}
		}
	}
	<-done
	out.rtt["run"] = append(out.rtt["run"], time.Since(tRun))
	c.end()
	if err != nil {
		return out, err
	}
	if runErr != nil {
		return out, runErr
	}
	if first := s.FirstHitAt(); !first.IsZero() {
		out.firstHit = first.Sub(s.AttachedAt)
		out.runToFirst = first.Sub(tRun)
	}
	got := outcome{
		cycles: res.Cycles, instrs: res.Instrs, output: digest(res.Output), hits: res.HitTotal,
	}
	// A session that sent region or patch requests mid-run is checked on
	// everything but cycles: a patch invalidates its simulated I-cache, and
	// a region request rewrites bitmap words whose D-cache line it
	// invalidates, so its cycle count depends on when the requests landed.
	if err := ref.check(got, len(out.ctl) == 0); err != nil {
		return out, err
	}
	if s.Hits() != res.HitTotal {
		return out, fmt.Errorf("client received %d of %d hits", s.Hits(), res.HitTotal)
	}
	if out.firstHit == 0 {
		return out, errors.New("no hit delivered")
	}
	out.instrs, out.hits = res.Instrs, res.HitTotal

	c = sp.child("mrsnet.detach")
	t0 = time.Now()
	detached = true
	err = s.Detach()
	out.record("detach", t0)
	c.end()
	return out, err
}

// runSessions runs the sessions over the daemon's connections, one session
// in flight per connection, and folds each session into ps.
func (dm *daemon) runSessions(tr *tracer, label string, plans []sessPlan, churn bool, ref *reference, ps *phaseStats) {
	var mu sync.Mutex
	parallel(len(plans), len(dm.clients), func(w, i int) {
		p := plans[i]
		sid := fmt.Sprintf("%s-%d-%s", label, i, p.prog)
		sp := tr.begin("session", sid)
		out, err := runSession(sp, dm.clients[w], sid, p, churn, ref.Sessions[p.prog])
		sp.end()
		mu.Lock()
		ps.addSession(sid, out, err)
		mu.Unlock()
	})
}

// mrsdBench is the hits or churn workload.
func mrsdBench(o runOpts, churn bool) (*report, error) {
	programs, perProgram := hitsPrograms, hitsPerProgram
	if churn {
		programs, perProgram = churnPrograms, churnPerProgram
	}
	for _, p := range programs {
		if _, ok := o.ref.Sessions[p]; !ok {
			return nil, fmt.Errorf("reference has no entry for program %s", p)
		}
	}
	rep := newReport(o)

	// Set-up: start the daemon, dial, and run one warm session per program.
	var dm *daemon
	var setups []float64
	warm := newPhaseStats()
	for r := 0; r < setupRounds; r++ {
		if dm != nil {
			dm.close()
			dm = nil
		}
		runtime.GC()
		var tr *tracer
		if r == setupRounds-1 {
			tr = o.tr
		}
		t0 := time.Now()
		var err error
		if dm, err = startDaemon(); err != nil {
			return nil, err
		}
		dm.tr.Store(tr)
		warmPlans := make([]sessPlan, len(programs))
		for i, p := range programs {
			warmPlans[i] = sessPlan{prog: p, rounds: churnRoundCounts[0]}
		}
		dm.runSessions(tr, fmt.Sprintf("warm%d", r), warmPlans, churn, o.ref, &warm)
		setups = append(setups, time.Since(t0).Seconds())
		dm.tr.Store(nil)
	}
	defer dm.close()
	rep.e2e("setup_s", median(setups), "s", len(setups))
	if v, ok := dm.engine.Load().(string); ok {
		rep.engine = v
	}

	// enough holds once the samples support first_hit_p90_ms and
	// ctl_p99_ms (churn).
	enough := func(ps *phaseStats) bool {
		return !churn || len(ps.firstHit) >= 100 && len(ps.ctl) >= 1000
	}
	phase := func(tr *tracer, more func(rounds int) bool, sampled bool, seed uint64) phaseStats {
		ps := newPhaseStats()
		dm.tr.Store(tr)
		defer dm.tr.Store(nil)
		runtime.GC()
		w0 := dm.st.snapshot()
		ps.begin()
		for r := 0; r == 0 || more(r) || sampled && !enough(&ps); r++ {
			plans := plan(programs, perProgram, churn, rand.New(rand.NewPCG(seed, uint64(r))))
			dm.runSessions(tr, fmt.Sprintf("r%d", r), plans, churn, o.ref, &ps)
			ps.endRound()
		}
		ps.finish()
		ps.wire = dm.st.snapshot().minus(w0)
		return ps
	}
	measured, traced := measure(o, phase)
	rep.absorb(warm)
	rep.absorb(measured)
	rep.rates(measured)
	rep.e2e("hits_per_s", measured.rate(func(r roundStat) int64 { return r.hits }), "1/s", len(measured.rounds))
	rep.e2e("heap_mb", measured.heapMB, "MB", 0)
	rep.pct("first_hit_p50_ms", measured.firstHit, 0.5)
	if churn {
		rep.pct("first_hit_p90_ms", measured.firstHit, 0.9)
		rep.pct("ctl_p50_ms", measured.ctl, 0.5)
		rep.pct("ctl_p99_ms", measured.ctl, 0.99)
	}

	if traced != nil {
		st := dm.cfg.Artifacts.Stats()
		rep.layer("bench.artifact_hit_frac", float64(st.Hits)/float64(st.Hits+st.Misses), "fraction")
		rep.layer("bench.artifact_mb", float64(st.Bytes)/1e6, "MB")
		w := traced.wire
		rep.layer("mrsnet.server_write_ms", float64(w.serverWriteNS)/1e6, "ms")
		rep.layer("mrsnet.server_frames", float64(w.serverFrames), "count")
		rep.layer("mrsnet.client_decode_ms", float64(w.clientBusyNS)/1e6, "ms")
		rep.layer("mrsnet.wire_bytes_per_hit", float64(w.serverBytes)/float64(max(w.hits, 1)), "B")
		rep.layer("mrsnet.hits_per_frame", float64(w.hits)/float64(max(w.hitFrames, 1)), "count")
		rep.layer("monitor.hits", float64(traced.hits), "count")
		for _, op := range []string{"attach", "region", "patch", "run", "detach"} {
			rep.layerPct("mrsnet."+op+"_rtt_p50_ms", traced.rtt[op], 0.5)
		}
		rep.layerPct("mrsnet.region_rtt_p90_ms", traced.rtt["region"], 0.9)
		rep.layerPct("mrsnet.patch_rtt_p90_ms", traced.rtt["patch"], 0.9)
		rep.layerPct("mrsnet.run_to_first_hit_p50_ms", traced.runTo1st, 0.5)
		if traced.toggles > 0 {
			rep.layer("mrsnet.patch_applied_frac", float64(traced.applied)/float64(traced.toggles), "fraction")
		}
		rep.absorb(*traced)
		rep.spanLayers(o.tr.records(), traced)
		rep.overhead(measured, traced)
	}
	return rep, nil
}
