package monitor

import (
	"context"
	"fmt"
	"math"
	"sync"

	"databreak/internal/machine"
)

// This file is the multi-session front end of the monitored region service:
// a Server multiplexes N independent (machine, service) sessions in one
// process, giving each a lifecycle (attach, control operations, run,
// detach) and fanning every session's monitor hits into one channel.
//
// # Lock ordering (see DESIGN.md §7)
//
//	Server.mu  >  Session.ctl  >  Session.mu  >  leaf lock (hit-queue mu)
//
// Server.mu guards only the session registry; it is never held while a
// session executes. Session.mu is THE per-machine serialization point the
// machine and service docs demand: execution (one RunFor over the whole
// remaining budget), region create/delete, PreMonitor/PostMonitor-style
// text patching (Do with machine.PatchInstr), and debugger reads all take
// it. A control operation does not wait for the run to end: it first
// requests a stop (machine.RequestStop), RunFor returns at its next
// dispatch boundary, and the operation takes Session.mu. Session.ctl,
// held from the request until the operation owns Session.mu, keeps the
// stopped runner from retaking it first; the runner only passes through
// ctl, and nothing takes ctl while holding Session.mu. Hit delivery happens while Session.mu is held (the trap
// fires inside RunFor), so the fan-in queue must never deadlock: enqueue is
// O(1) under its own mutex and a pump goroutine drains it to the Hits
// channel outside all session locks. With a bounded queue
// (Options.QueueCap) enqueue may BLOCK when the consumer lags — that stall
// is the backpressure contract: the producing session pauses mid-run until
// the pump frees a slot, throttling execution to the delivery rate instead
// of growing an unbounded backlog. The pump never takes a session lock, so
// a blocked producer always drains (and then sees a pending stop).

// SessionHit is one monitor hit tagged with the session that produced it.
type SessionHit struct {
	Session int
	Hit     Hit
}

// Options tunes a Server beyond the zero-config NewServer defaults.
type Options struct {
	// QueueCap bounds the hit fan-in admission queue. 0 means unbounded
	// (NewServer's behavior): hits never block a session, an unread backlog
	// grows without limit. A positive cap applies backpressure: a session
	// delivering a hit into a full queue blocks (inside its RunFor call)
	// until the pump drains a slot.
	QueueCap int
	// MaxSessions caps concurrently attached sessions; Attach beyond the
	// cap fails with ErrServerFull. 0 means unlimited. This is the
	// admission-control half of the mrsd shard design: placement is decided
	// upstream, the shard refuses work past its configured capacity rather
	// than degrading every resident session.
	MaxSessions int
}

// ErrServerFull is returned by Attach when Options.MaxSessions is reached.
var ErrServerFull = fmt.Errorf("monitor: server at session capacity")

// Server multiplexes monitored-region sessions. Create with NewServer or
// NewServerOpt; every method is safe for concurrent use.
type Server struct {
	mu       sync.Mutex
	sessions map[int]*Session
	nextID   int
	closed   bool
	opts     Options

	q *hitQueue
	// hits carries the fan-in; closed by the pump after Close drains it.
	hits chan SessionHit
	// done releases a pump blocked on an unconsumed hits channel at Close.
	done chan struct{}
	// pumpDone is closed when the pump goroutine exits; Close/Shutdown join
	// it so a stopped server leaves no goroutine behind.
	pumpDone chan struct{}
}

// NewServer returns a running server with an unbounded hit queue and no
// session cap. Call Close (or Shutdown) when done to stop the hit pump and
// close the Hits channel.
func NewServer() *Server { return NewServerOpt(Options{}) }

// NewServerOpt returns a running server with the given options.
func NewServerOpt(opts Options) *Server {
	srv := &Server{
		sessions: make(map[int]*Session),
		opts:     opts,
		q:        newHitQueue(opts.QueueCap),
		hits:     make(chan SessionHit, 64),
		done:     make(chan struct{}),
		pumpDone: make(chan struct{}),
	}
	go srv.pump()
	return srv
}

// Hits returns the fan-in channel carrying every session's monitor hits.
// With an unbounded queue consuming it is optional: an unread backlog
// accumulates and never blocks any session. With Options.QueueCap set, a
// full queue blocks producing sessions until the consumer catches up. The
// channel closes after Close; hits still unread when Close is called may be
// dropped (use Shutdown to drain them first).
func (srv *Server) Hits() <-chan SessionHit { return srv.hits }

// pump moves hits from the queue to the channel. Runs outside all session
// locks, so a slow (or absent) consumer never stalls execution beyond the
// configured queue bound.
func (srv *Server) pump() {
	defer close(srv.pumpDone)
	for {
		h, ok := srv.q.take()
		if !ok {
			close(srv.hits)
			return
		}
		select {
		case srv.hits <- h:
		case <-srv.done:
			// Closed with no consumer left: drop the backlog and shut down.
			close(srv.hits)
			return
		}
	}
}

// Attach creates a session around m: a fresh Service with the given
// geometry, hit delivery wired into the server's fan-in, and a per-machine
// mutex serializing all further access to m. The caller must not touch m
// directly afterwards — go through Session.Do.
func (srv *Server) Attach(cfg Config, m *machine.Machine) (*Session, error) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if srv.closed {
		return nil, fmt.Errorf("monitor: server is closed")
	}
	if srv.opts.MaxSessions > 0 && len(srv.sessions) >= srv.opts.MaxSessions {
		return nil, ErrServerFull
	}
	svc, err := NewService(cfg, m)
	if err != nil {
		return nil, err
	}
	srv.nextID++
	s := &Session{id: srv.nextID, srv: srv, m: m, svc: svc}
	svc.OnHit = func(h Hit) {
		// Called under Session.mu (traps fire inside RunFor/Do); enqueue
		// never takes another session's lock, so delivery cannot deadlock
		// against control operations — though with a bounded queue it may
		// block here until the pump drains a slot (backpressure).
		srv.q.put(SessionHit{Session: s.id, Hit: h})
	}
	srv.sessions[s.id] = s
	return s, nil
}

// Session returns the live session with the given id, or nil.
func (srv *Server) Session(id int) *Session {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.sessions[id]
}

// SessionCount returns the number of live sessions.
func (srv *Server) SessionCount() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.sessions)
}

// Close detaches every live session, stops the hit pump, and closes the
// Hits channel. Queued hits drain to a present consumer on a best-effort
// basis; with no consumer they are dropped. Idempotent (a second call waits
// for the first to finish tearing down, then returns).
func (srv *Server) Close() { srv.shutdown(nil) }

// Shutdown is the graceful form of Close: it stops admitting sessions,
// detaches every live session (in-flight Run calls are stopped at a
// dispatch boundary and return a detached error), then WAITS — until ctx
// expires — for the hit queue to drain to the Hits consumer before closing
// the channel. With a consumer reading Hits until it closes, no queued hit
// is lost. Returns ctx.Err() if the drain deadline passed with hits still
// queued (they are then dropped, matching Close).
func (srv *Server) Shutdown(ctx context.Context) error { return srv.shutdown(ctx) }

func (srv *Server) shutdown(ctx context.Context) error {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		// Second caller: wait for the first teardown to finish.
		<-srv.pumpDone
		return nil
	}
	srv.closed = true
	live := make([]*Session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		live = append(live, s)
	}
	srv.mu.Unlock()
	// Lift the queue bound first: a session blocked delivering a hit into a
	// full queue holds its Session.mu, and Detach below needs that lock.
	// Draining mode turns blocked puts into plain appends so every producer
	// makes progress to its next dispatch boundary and observes the stop.
	srv.q.drainMode()
	// Detach outside srv.mu: teardown takes Session.mu, and the lock order
	// is Server.mu > Session.mu only for nested acquisition on the attach
	// path; holding both here is unnecessary.
	for _, s := range live {
		s.Detach()
	}
	var err error
	if ctx != nil {
		select {
		case <-srv.q.emptied():
		case <-ctx.Done():
			err = ctx.Err()
		}
	}
	srv.q.close()
	close(srv.done)
	<-srv.pumpDone
	return err
}

func (srv *Server) drop(id int) {
	srv.mu.Lock()
	delete(srv.sessions, id)
	srv.mu.Unlock()
}

// Session is one (machine, service) pair multiplexed by a Server. Its mutex
// is the per-machine serialization point: Run holds it while the machine
// executes, and every control surface (Do, CreateRegion, DeleteRegion,
// Detach) first asks the running machine to stop (machine.RequestStop),
// which returns at its next dispatch boundary and releases the mutex, then
// takes it. Debugger edits therefore land only at dispatch boundaries —
// never inside a running closure.
type Session struct {
	id  int
	srv *Server

	// ctl is held by a control operation from its stop request until it
	// owns mu; Run passes through it before taking mu, so the stopped
	// runner queues behind the operation instead of retaking mu first (and
	// instead of spinning on the pending request).
	ctl    sync.Mutex
	mu     sync.Mutex
	m      *machine.Machine
	svc    *Service
	closed bool
}

// lock takes mu for a control operation, stopping a running Run first.
func (s *Session) lock() {
	s.ctl.Lock()
	s.m.RequestStop()
	s.mu.Lock()
	s.m.WithdrawStop()
	s.ctl.Unlock()
}

// ID returns the session's server-unique id (tags its SessionHits).
func (s *Session) ID() int { return s.id }

// Do runs fn with exclusive access to the session's machine and service.
// This is the sanctioned way to reach them: region create/delete, text
// patching via machine.PatchInstr, elim.Runtime pre/post-monitor flows, and
// debugger reads all belong inside fn. fn must not retain either pointer,
// call back into this Session, or block on another session's work (lock
// ordering: Session.mu is held).
func (s *Session) Do(fn func(m *machine.Machine, svc *Service) error) error {
	s.lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("monitor: session %d is detached", s.id)
	}
	return fn(s.m, s.svc)
}

// CreateRegion installs a monitored region, serialized against execution.
func (s *Session) CreateRegion(addr, size uint32) error {
	return s.Do(func(_ *machine.Machine, svc *Service) error {
		return svc.CreateRegion(addr, size)
	})
}

// CreateRegionKind installs a region delivering only hits of the access
// kinds in k, serialized against execution.
func (s *Session) CreateRegionKind(addr, size uint32, k Kind) error {
	return s.Do(func(_ *machine.Machine, svc *Service) error {
		return svc.CreateRegionKind(addr, size, k)
	})
}

// CreateTransitionRegion installs a transition watchpoint, serialized
// against execution.
func (s *Session) CreateTransitionRegion(addr, size uint32, pred Predicate) error {
	return s.Do(func(_ *machine.Machine, svc *Service) error {
		return svc.CreateTransitionRegion(addr, size, pred)
	})
}

// DeleteRegion removes a monitored region, serialized against execution.
func (s *Session) DeleteRegion(addr, size uint32) error {
	return s.Do(func(_ *machine.Machine, svc *Service) error {
		return svc.DeleteRegion(addr, size)
	})
}

// Run executes the session's program to completion (or fault). It runs the
// whole remaining budget in one machine.RunFor call under the session lock;
// a concurrent control operation stops it at a dispatch boundary, and Run
// resumes once the operation has finished. Simulated counts are
// bit-identical to an uninterrupted machine.Run regardless of
// interleaving: debugger operations are cycle-free by construction, and
// stopping does not perturb the cost model (see machine.RunFor).
func (s *Session) Run() (int32, error) {
	for {
		// Wait out a control operation that stopped the previous call. The
		// runner never holds ctl while it waits for mu, so a second Run of
		// the same session cannot keep control operations from stopping
		// the first.
		s.ctl.Lock()
		s.ctl.Unlock()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return 0, fmt.Errorf("monitor: session %d is detached", s.id)
		}
		code, halted, err := s.m.RunFor(math.MaxInt64)
		s.mu.Unlock()
		if err != nil {
			return 0, err
		}
		if halted {
			return code, nil
		}
	}
}

// Detach tears the session down: it unhooks the service from the machine
// and removes the session from the server. Queued hits from this session
// still drain to the Hits channel. Idempotent; operations after Detach
// return errors.
func (s *Session) Detach() {
	s.lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.svc.Detach()
	s.mu.Unlock()
	s.srv.drop(s.id)
}

// hitQueue is an MPSC queue — unbounded by default, bounded with
// backpressure when cap > 0: sessions enqueue under their own mutexes (and
// block when the bound is hit); the server's pump goroutine is the single
// consumer.
type hitQueue struct {
	mu       sync.Mutex
	cond     *sync.Cond
	items    []SessionHit
	cap      int // 0 = unbounded
	draining bool
	closed   bool
}

func newHitQueue(capacity int) *hitQueue {
	q := &hitQueue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// put enqueues a hit, blocking while a bounded queue is full. After close,
// hits are silently dropped (the session is being torn down).
func (q *hitQueue) put(h SessionHit) {
	q.mu.Lock()
	for q.cap > 0 && len(q.items) >= q.cap && !q.closed && !q.draining {
		q.cond.Wait()
	}
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, h)
	q.mu.Unlock()
	q.cond.Signal()
}

// take blocks until an item or close; ok=false means closed and drained.
func (q *hitQueue) take() (SessionHit, bool) {
	q.mu.Lock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		q.mu.Unlock()
		return SessionHit{}, false
	}
	h := q.items[0]
	q.items = q.items[1:]
	q.mu.Unlock()
	// Wake a producer blocked on the bound, or an emptied() waiter.
	q.cond.Broadcast()
	return h, true
}

// drainMode lifts the capacity bound, releasing producers blocked in put so
// shutdown can take their session locks.
func (q *hitQueue) drainMode() {
	q.mu.Lock()
	q.draining = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// emptied returns a channel closed once the queue has fully drained (or was
// closed). Used by Shutdown to wait for the pump to hand every queued hit
// to the consumer.
func (q *hitQueue) emptied() <-chan struct{} {
	ch := make(chan struct{})
	go func() {
		q.mu.Lock()
		for len(q.items) > 0 && !q.closed {
			q.cond.Wait()
		}
		q.mu.Unlock()
		close(ch)
	}()
	return ch
}

func (q *hitQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
