package mrsnet

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"databreak/internal/asm"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/sparc"
)

// This file is the mrsd daemon: the paper's single-process monitored region
// service productionized into a sharded network service.
//
// # Architecture
//
// A Daemon owns GOMAXPROCS (configurable) SHARDS, each a private
// monitor.Server instance with its own bounded hit fan-in queue and its own
// router goroutine. Sessions are placed onto shards by jump consistent hash
// of the client-chosen session id, so placement is stable across
// reconnects and independent of arrival order, and no cross-shard lock
// exists anywhere on the hot path: a session's execution, control
// operations, and hit delivery all stay inside one shard.
//
// # Hit path and backpressure
//
//	check code traps (under Session.mu, inside a RunFor slice)
//	  → shard's bounded admission queue (monitor.Options.QueueCap;
//	    a full queue BLOCKS the producing session — backpressure)
//	  → shard pump → shard Hits channel
//	  → shard router (maps monitor session id → owning connection)
//	  → connection outbound queue (bounded channel; a full queue blocks
//	    the router, which transitively fills the admission queue)
//	  → connection writer, which COALESCES consecutive hits into one
//	    OpHits frame, flushing on batch size or deadline
//	  → one length-prefixed frame on the wire
//
// Every stage is bounded, so a slow or dead client throttles only the
// sessions it owns (their shard's queue fills and their RunFor slices
// stall); it cannot grow daemon memory without limit.
//
// # Lock ordering (see DESIGN.md §10)
//
// Daemon.mu > shard.mu > (monitor) Server.mu > Session.mu > leaf locks.
// The router holds shard.mu only for the id→session lookup, never while
// blocking on a connection queue... except it must not: lookup copies the
// *session out, then enqueues outside the lock.

// ProgramSource builds (or fetches from a cache) the patched program for a
// workload. The daemon calls it on every attach; implementations are
// expected to memoize so that sessions running the same workload share one
// asm.Program and therefore one copy-on-write machine.Image (the
// allocation-light attach path). Must be safe for concurrent use.
type ProgramSource func(workload string, scale int, strategy patch.Strategy) (*asm.Program, error)

// ErrHitReconcileTimeout reports that a run finished but the daemon could
// not confirm delivery of all its hits to the connection writer within
// Options.ReconcileTimeout. The run's simulated result is discarded; the
// error indicates a stalled hit-routing path, not a debuggee fault. Client
// callers can match it with errors.Is on run errors.
var ErrHitReconcileTimeout = errors.New("hit delivery reconciliation timed out")

// Options configures a Daemon.
type Options struct {
	// Shards is the number of per-core monitor.Server instances; <= 0 means
	// runtime.GOMAXPROCS(0).
	Shards int
	// QueueCap bounds each shard's hit admission queue; <= 0 means 4096.
	QueueCap int
	// MaxSessionsPerShard caps sessions per shard (admission control);
	// <= 0 means unlimited.
	MaxSessionsPerShard int
	// Batch is the default hit-coalescing batch size per connection
	// (overridable per connection via OpHello); <= 0 means 64. 1 disables
	// coalescing: one frame per hit.
	Batch int
	// Flush is the coalescing deadline: a partial batch is flushed this
	// long after its first hit; <= 0 means 500µs.
	Flush time.Duration
	// ReconcileTimeout bounds how long a run response may wait for the
	// run's hits to reach the connection writer. The wait is normally
	// microseconds (queue → pump → router); if hit routing stalls — a stuck
	// writer, a dead pump — the run handler gives up after this long and
	// fails the run with ErrHitReconcileTimeout instead of hanging the
	// session forever. <= 0 means 5s.
	ReconcileTimeout time.Duration
	// Programs supplies patched programs for attach. Required.
	Programs ProgramSource
	// NewMachine builds the simulated machine for a session; nil means the
	// default geometry and cost model. Must be safe for concurrent use.
	NewMachine func() *machine.Machine
	// Log, when non-nil, receives one line per lifecycle event.
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4096
	}
	if o.Batch <= 0 {
		o.Batch = 64
	}
	if o.Flush <= 0 {
		o.Flush = 500 * time.Microsecond
	}
	if o.ReconcileTimeout <= 0 {
		o.ReconcileTimeout = 5 * time.Second
	}
	if o.NewMachine == nil {
		o.NewMachine = func() *machine.Machine {
			return machine.New(cache.DefaultConfig, machine.DefaultCosts)
		}
	}
	return o
}

// Daemon is a running mrsd instance. Create with NewDaemon, feed it
// connections with Serve/ServeConn (or dial in-process with Pipe), stop
// with Close.
type Daemon struct {
	opts   Options
	shards []*shard

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	closed    bool
	wg        sync.WaitGroup

	// Sessions ever attached; exposed for load-generator reporting.
	attached atomic.Int64
}

// shard is one per-core monitor.Server plus the routing table from monitor
// session ids to daemon sessions. All state is shard-private.
type shard struct {
	id  int
	srv *monitor.Server

	mu       sync.Mutex
	sessions map[int]*session // monitor session id → session
}

// session is one attached debuggee.
type session struct {
	sid   string
	cn    *conn
	shard *shard
	ms    *monitor.Session
	prog  *asm.Program

	// delivered counts hits handed to the connection's outbound queue; the
	// run handler reconciles it against the Service's HitCount before
	// responding, so a run response is always ordered after the last hit
	// frame of that run.
	delivered atomic.Int64
}

// NewDaemon starts the shard servers and routers. It serves no connections
// until Serve/ServeConn/Pipe.
func NewDaemon(opts Options) (*Daemon, error) {
	opts = opts.withDefaults()
	if opts.Programs == nil {
		return nil, fmt.Errorf("mrsnet: Options.Programs is required")
	}
	d := &Daemon{
		opts:      opts,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
	}
	for i := 0; i < opts.Shards; i++ {
		sh := &shard{
			id: i,
			srv: monitor.NewServerOpt(monitor.Options{
				QueueCap:    opts.QueueCap,
				MaxSessions: opts.MaxSessionsPerShard,
			}),
			sessions: make(map[int]*session),
		}
		d.shards = append(d.shards, sh)
		d.wg.Add(1)
		go d.route(sh)
	}
	return d, nil
}

// Shards returns the shard count (for reporting).
func (d *Daemon) Shards() int { return len(d.shards) }

// Attached returns the number of sessions ever attached.
func (d *Daemon) Attached() int64 { return d.attached.Load() }

func (d *Daemon) logf(format string, args ...any) {
	if d.opts.Log != nil {
		fmt.Fprintf(d.opts.Log, "mrsd: "+format+"\n", args...)
	}
}

// route is a shard's router goroutine: it moves hits from the shard's
// monitor fan-in to the owning connection's outbound queue. The enqueue may
// block (bounded queue) — that is the designed backpressure path — but it
// happens outside shard.mu, so control operations on other sessions of the
// shard never stall behind a slow client.
func (d *Daemon) route(sh *shard) {
	defer d.wg.Done()
	for h := range sh.srv.Hits() {
		sh.mu.Lock()
		s := sh.sessions[h.Session]
		sh.mu.Unlock()
		if s == nil {
			continue // session detached with hits still in flight: drop
		}
		rec := HitRec{
			SID:    s.sid,
			Addr:   h.Hit.Addr,
			Size:   h.Hit.Size,
			Read:   h.Hit.Read,
			PC:     h.Hit.PC,
			Instrs: h.Hit.Instrs,
			Old:    h.Hit.Old,
			New:    h.Hit.New,
		}
		if s.cn.sendHit(rec) {
			s.delivered.Add(1)
		}
	}
}

// placeShard picks the shard for a session id: 64-bit FNV-1a of the id fed
// to Lamping & Veach's jump consistent hash. Stable for any shard count and
// uniform without any per-session placement state.
func (d *Daemon) placeShard(sid string) *shard {
	f := fnv.New64a()
	io.WriteString(f, sid)
	return d.shards[jumpHash(f.Sum64(), len(d.shards))]
}

// jumpHash is the jump consistent hash: O(ln buckets), no memory, minimal
// movement when the bucket count changes.
func jumpHash(key uint64, buckets int) int {
	var b, j int64 = -1, 0
	for j < int64(buckets) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}

// ListenAndServe listens on addr (TCP) and serves until Close.
func (d *Daemon) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return d.Serve(ln)
}

// Serve accepts connections from ln until Close (or a permanent accept
// error). Each connection is served on its own goroutines.
func (d *Daemon) Serve(ln net.Listener) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		ln.Close()
		return fmt.Errorf("mrsnet: daemon is closed")
	}
	d.listeners[ln] = struct{}{}
	d.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			d.mu.Lock()
			closed := d.closed
			d.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		d.ServeConn(nc)
	}
}

// ServeConn serves one established connection (any net.Conn, including one
// side of a net.Pipe) on its own goroutines and returns immediately.
func (d *Daemon) ServeConn(nc net.Conn) {
	cn := &conn{
		d:     d,
		nc:    nc,
		out:   make(chan outEvent, 256),
		done:  make(chan struct{}),
		sess:  make(map[string]*session),
		batch: d.opts.Batch,
		flush: d.opts.Flush,
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		nc.Close()
		return
	}
	d.conns[cn] = struct{}{}
	d.wg.Add(2)
	d.mu.Unlock()
	go cn.readLoop()
	go cn.writeLoop()
}

// Pipe connects an in-process client to the daemon over a net.Pipe — the
// zero-network transport the differential tests and the in-process load
// generator use. The returned connection is the client side.
func (d *Daemon) Pipe() net.Conn {
	client, server := net.Pipe()
	d.ServeConn(server)
	return client
}

// Close stops listeners, tears down every connection (detaching its
// sessions), and shuts the shard servers down gracefully. Idempotent.
func (d *Daemon) Close() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		d.wg.Wait()
		return
	}
	d.closed = true
	lns := make([]net.Listener, 0, len(d.listeners))
	for ln := range d.listeners {
		lns = append(lns, ln)
	}
	conns := make([]*conn, 0, len(d.conns))
	for cn := range d.conns {
		conns = append(conns, cn)
	}
	d.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, cn := range conns {
		cn.close()
	}
	// Shard servers: Close detaches any straggler sessions and closes the
	// Hits channels, which ends the router goroutines.
	for _, sh := range d.shards {
		sh.srv.Close()
	}
	d.wg.Wait()
}

// outEvent is one item on a connection's outbound queue: either a response
// frame (written immediately, after flushing any pending hit batch so hit/
// response order is preserved) or a single hit (coalesced).
type outEvent struct {
	msg *Msg
	hit HitRec
}

// conn is one served connection: a reader goroutine dispatching requests, a
// writer goroutine owning the socket and the hit batcher, and the session
// registry for this client.
type conn struct {
	d    *Daemon
	nc   net.Conn
	out  chan outEvent
	done chan struct{}

	batch int
	flush time.Duration

	mu     sync.Mutex
	sess   map[string]*session
	closed bool
}

// close tears the connection down: sessions detach, both loops exit. Safe
// to call from any goroutine, idempotent.
func (cn *conn) close() {
	cn.mu.Lock()
	if cn.closed {
		cn.mu.Unlock()
		return
	}
	cn.closed = true
	sessions := make([]*session, 0, len(cn.sess))
	for _, s := range cn.sess {
		sessions = append(sessions, s)
	}
	cn.sess = make(map[string]*session)
	cn.mu.Unlock()
	close(cn.done)
	cn.nc.Close()
	for _, s := range sessions {
		s.unregister()
		s.ms.Detach()
	}
	cn.d.mu.Lock()
	delete(cn.d.conns, cn)
	cn.d.mu.Unlock()
}

// send enqueues an outbound event, failing (false) once the connection is
// closed. Blocking here is the backpressure contract: the caller is either
// a shard router (throttling hit producers) or a request handler.
func (cn *conn) send(ev outEvent) bool {
	select {
	case cn.out <- ev:
		return true
	case <-cn.done:
		return false
	}
}

func (cn *conn) sendHit(rec HitRec) bool { return cn.send(outEvent{hit: rec}) }

func (cn *conn) reply(m *Msg) { cn.send(outEvent{msg: m}) }

func (cn *conn) fail(seq uint64, format string, args ...any) {
	cn.reply(&Msg{Op: OpResp, Seq: seq, Err: fmt.Sprintf(format, args...)})
}

func (cn *conn) ok(seq uint64) { cn.reply(&Msg{Op: OpResp, Seq: seq, OK: true}) }

// writeLoop owns the socket's write side. Hits are coalesced: the first hit
// of a batch starts the flush timer; the batch is written when it reaches
// cn.batch hits, when the timer fires, or when a response frame needs to go
// out (responses are never delayed and never overtake the hits that
// preceded them).
func (cn *conn) writeLoop() {
	defer cn.d.wg.Done()
	defer cn.close()
	var (
		pending []HitRec
		timer   *time.Timer
		timerC  <-chan time.Time
	)
	stopTimer := func() {
		if timer != nil {
			timer.Stop()
			timer = nil
			timerC = nil
		}
	}
	flushHits := func() bool {
		if len(pending) == 0 {
			return true
		}
		err := writeMsg(cn.nc, &Msg{Op: OpHits, Hits: pending})
		pending = pending[:0]
		stopTimer()
		return err == nil
	}
	handle := func(ev outEvent) bool {
		if ev.msg != nil {
			if !flushHits() {
				return false
			}
			return writeMsg(cn.nc, ev.msg) == nil
		}
		pending = append(pending, ev.hit)
		if len(pending) >= cn.batch {
			return flushHits()
		}
		if timer == nil {
			timer = time.NewTimer(cn.flush)
			timerC = timer.C
		}
		return true
	}
	for {
		select {
		case ev := <-cn.out:
			if !handle(ev) {
				return
			}
		case <-timerC:
			timer = nil
			timerC = nil
			if !flushHits() {
				return
			}
		case <-cn.done:
			// Drain what is already queued so a client that detached cleanly
			// still receives its final frames, then exit.
			for {
				select {
				case ev := <-cn.out:
					if !handle(ev) {
						return
					}
				default:
					flushHits()
					return
				}
			}
		}
	}
}

// readLoop parses request frames and dispatches them. Every operation that
// can block on a session lock (attach builds, run, region ops behind an
// executing slice) runs on its own goroutine so one slow session never
// stalls the connection's other sessions.
func (cn *conn) readLoop() {
	defer cn.d.wg.Done()
	defer cn.close()
	var buf []byte
	var err error
	for {
		var m Msg
		buf, err = readMsg(cn.nc, buf, &m)
		if err != nil {
			if err != io.EOF {
				cn.d.logf("conn %v: read: %v", cn.nc.RemoteAddr(), err)
			}
			return
		}
		switch m.Op {
		case OpHello:
			// Per-connection delivery tuning; applied before the writer sees
			// any hits because hello precedes attach.
			if m.Batch > 0 {
				cn.batch = m.Batch
			}
			if m.FlushUS > 0 {
				cn.flush = time.Duration(m.FlushUS) * time.Microsecond
			}
			cn.ok(m.Seq)
		case OpAttach:
			m := m
			go cn.handleAttach(&m)
		case OpRegionC, OpRegionD, OpRun, OpPatch, OpDetach:
			m := m
			go cn.handleSessionOp(&m)
		default:
			cn.fail(m.Seq, "unknown op %q", m.Op)
		}
	}
}

// parseStrategy maps wire strategy names to patch strategies. Empty picks
// the paper's recommended implementation.
func parseStrategy(name string) (patch.Strategy, error) {
	if name == "" {
		return patch.BitmapInlineRegisters, nil
	}
	for _, s := range []patch.Strategy{
		patch.Bitmap, patch.BitmapInline, patch.BitmapInlineRegisters,
		patch.Cache, patch.CacheInline, patch.HashCall,
	} {
		if s.String() == name {
			return s, nil
		}
	}
	return patch.None, fmt.Errorf("unknown strategy %q", name)
}

func (cn *conn) handleAttach(m *Msg) {
	if m.SID == "" {
		cn.fail(m.Seq, "attach: empty sid")
		return
	}
	strat, err := parseStrategy(m.Strategy)
	if err != nil {
		cn.fail(m.Seq, "attach %s: %v", m.SID, err)
		return
	}
	scale := m.Scale
	if scale <= 0 {
		scale = 1
	}
	prog, err := cn.d.opts.Programs(m.Workload, scale, strat)
	if err != nil {
		cn.fail(m.Seq, "attach %s: %v", m.SID, err)
		return
	}
	mcfg := monitor.DefaultConfig
	if strat == patch.Cache || strat == patch.CacheInline {
		mcfg.Flags = true
	}
	mach := cn.d.opts.NewMachine()
	prog.LoadShared(mach)
	sh := cn.d.placeShard(m.SID)
	ms, err := sh.srv.Attach(mcfg, mach)
	if err != nil {
		cn.fail(m.Seq, "attach %s: %v", m.SID, err)
		return
	}
	// The daemon streams hits; holding the per-service log would retain
	// every hit of every session for the session's lifetime.
	ms.Do(func(_ *machine.Machine, svc *monitor.Service) error {
		svc.NoHitLog = true
		return nil
	})
	s := &session{sid: m.SID, cn: cn, shard: sh, ms: ms, prog: prog}
	cn.mu.Lock()
	dup := cn.sess[m.SID] != nil
	if !dup && !cn.closed {
		cn.sess[m.SID] = s
	}
	closed := cn.closed
	cn.mu.Unlock()
	if dup || closed {
		ms.Detach()
		if dup {
			cn.fail(m.Seq, "attach %s: session id already attached", m.SID)
		}
		return
	}
	sh.mu.Lock()
	sh.sessions[ms.ID()] = s
	sh.mu.Unlock()
	cn.d.attached.Add(1)
	cn.d.logf("attach %s → shard %d (%s, scale %d, %s)", m.SID, sh.id, m.Workload, scale, strat)
	cn.reply(&Msg{Op: OpResp, Seq: m.Seq, OK: true, Shard: sh.id})
}

// lookup finds the connection's session for sid.
func (cn *conn) lookup(sid string) *session {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.sess[sid]
}

// unregister removes the session from its shard's routing table and its
// connection's registry.
func (s *session) unregister() {
	s.shard.mu.Lock()
	delete(s.shard.sessions, s.ms.ID())
	s.shard.mu.Unlock()
	s.cn.mu.Lock()
	if s.cn.sess[s.sid] == s {
		delete(s.cn.sess, s.sid)
	}
	s.cn.mu.Unlock()
}

// createRegion maps an OpRegionC frame to the right monitor.Session region
// call. An empty Kind keeps the legacy deliver-everything behavior. A load
// region is refused when prog carries no read checks (no patch.CounterReads
// counter): its loads trap nothing, so the region could never deliver a
// hit.
func createRegion(ms *monitor.Session, prog *asm.Program, m *Msg) error {
	switch m.Kind {
	case "", "all":
		return ms.CreateRegion(m.Addr, m.Size)
	case "store":
		return ms.CreateRegionKind(m.Addr, m.Size, monitor.KindStore)
	case "load":
		if _, ok := prog.CounterIDs[patch.CounterReads]; !ok {
			return fmt.Errorf("mrsnet: load region refused: the session's program has no read checks")
		}
		return ms.CreateRegionKind(m.Addr, m.Size, monitor.KindLoad)
	case "transition":
		pred, err := parsePred(m.Pred, m.PredArg)
		if err != nil {
			return err
		}
		return ms.CreateTransitionRegion(m.Addr, m.Size, pred)
	}
	return fmt.Errorf("mrsnet: unknown region kind %q", m.Kind)
}

// parsePred maps the wire predicate name to a monitor.Predicate.
func parsePred(name string, arg uint32) (monitor.Predicate, error) {
	k, err := monitor.ParsePredKind(name)
	if err != nil {
		return monitor.Predicate{}, fmt.Errorf("mrsnet: %w", err)
	}
	return monitor.Predicate{Kind: k, Arg: arg}, nil
}

func (cn *conn) handleSessionOp(m *Msg) {
	s := cn.lookup(m.SID)
	if s == nil {
		cn.fail(m.Seq, "%s: no session %q", m.Op, m.SID)
		return
	}
	switch m.Op {
	case OpRegionC:
		if err := createRegion(s.ms, s.prog, m); err != nil {
			cn.fail(m.Seq, "%v", err)
			return
		}
		cn.ok(m.Seq)
	case OpRegionD:
		if err := s.ms.DeleteRegion(m.Addr, m.Size); err != nil {
			cn.fail(m.Seq, "%v", err)
			return
		}
		cn.ok(m.Seq)
	case OpPatch:
		skipped := false
		err := s.ms.Do(func(mach *machine.Machine, _ *monitor.Service) error {
			// Until the first instruction retires the startup code is still
			// pending execution; patching it to unimp would kill the run.
			// Mirrors bench.Stress's patch-churn guard.
			if mach.Instrs() == 0 {
				skipped = true
				return nil
			}
			if m.Index < 0 || int(m.Index) >= len(s.prog.Text) {
				return fmt.Errorf("patch index %d out of range", m.Index)
			}
			in := s.prog.Text[m.Index]
			if m.Unimp {
				in = sparc.Instr{Op: sparc.Unimp}
			}
			return mach.PatchInstr(m.Index, in)
		})
		if err != nil {
			cn.fail(m.Seq, "%v", err)
			return
		}
		cn.reply(&Msg{Op: OpResp, Seq: m.Seq, OK: true, Skipped: skipped})
	case OpRun:
		s.handleRun(m.Seq)
	case OpDetach:
		s.unregister()
		s.ms.Detach()
		cn.d.logf("detach %s (shard %d)", s.sid, s.shard.id)
		cn.ok(m.Seq)
	}
}

// handleRun executes the session to completion and responds with the
// result. Before responding it waits for every hit the run produced to be
// handed to the connection's writer, so the response frame is ordered after
// the last hit frame and HitTotal is exact from the client's perspective.
func (s *session) handleRun(seq uint64) {
	code, runErr := s.ms.Run()
	var produced int64
	var cycles, instrs int64
	var output string
	err := s.ms.Do(func(m *machine.Machine, svc *monitor.Service) error {
		produced = svc.HitCount
		cycles = m.Cycles()
		instrs = m.Instrs()
		output = m.Output()
		return nil
	})
	if runErr != nil {
		s.cn.fail(seq, "run %s: %v", s.sid, runErr)
		return
	}
	if err != nil {
		s.cn.fail(seq, "run %s: %v", s.sid, err)
		return
	}
	// Reconcile delivery: hits traverse shard queue → pump → router
	// asynchronously; poll until the router has forwarded them all (or the
	// connection dies). One flush interval is the natural poll quantum. The
	// deadline guards liveness: if routing stalls (stuck pump, wedged
	// writer), the response must not hang the session forever — fail it
	// with the typed reconcile error instead.
	deadline := time.NewTimer(s.cn.d.opts.ReconcileTimeout)
	defer deadline.Stop()
	for s.delivered.Load() < produced {
		select {
		case <-s.cn.done:
			return
		case <-deadline.C:
			s.cn.fail(seq, "run %s: %v (%d of %d hits delivered)",
				s.sid, ErrHitReconcileTimeout, s.delivered.Load(), produced)
			return
		case <-time.After(100 * time.Microsecond):
		}
	}
	s.cn.reply(&Msg{
		Op: OpResp, Seq: seq, OK: true,
		Code: code, Cycles: cycles, Instrs: instrs, Output: output,
		HitTotal: produced,
	})
}
