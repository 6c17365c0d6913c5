package mrsnet

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Client speaks the mrsd protocol over one connection, multiplexing any
// number of sessions. Safe for concurrent use: requests are seq-tagged and
// may be pipelined from many goroutines; a single reader goroutine routes
// responses and tallies hit batches.
type Client struct {
	nc net.Conn

	wmu sync.Mutex // serializes frame writes
	seq atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan *Msg
	sess    map[string]*ClientSession
	readErr error
	closed  chan struct{}

	// OnHits, when non-nil, observes every received hit batch (set before
	// issuing requests). Per-session counters update regardless.
	OnHits func(batch []HitRec)
}

// Hello tunes the daemon's hit delivery for this connection.
type Hello struct {
	// Batch is the hit-coalescing batch size (0 = daemon default, 1 = one
	// frame per hit).
	Batch int
	// Flush is the coalescing deadline (0 = daemon default).
	Flush time.Duration
}

// NewClient wraps an established connection and performs the hello
// exchange. The connection is owned by the client afterwards.
func NewClient(nc net.Conn, hello Hello) (*Client, error) {
	c := &Client{
		nc:      nc,
		pending: make(map[uint64]chan *Msg),
		sess:    make(map[string]*ClientSession),
		closed:  make(chan struct{}),
	}
	go c.readLoop()
	_, err := c.request(&Msg{
		Op:      OpHello,
		Batch:   hello.Batch,
		FlushUS: int(hello.Flush / time.Microsecond),
	})
	if err != nil {
		c.Close()
		return nil, fmt.Errorf("mrsnet: hello: %w", err)
	}
	return c, nil
}

// Dial connects to an mrsd daemon over TCP.
func Dial(addr string, hello Hello) (*Client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(nc, hello)
}

// Close tears the connection down; outstanding requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	select {
	case <-c.closed:
	default:
		close(c.closed)
	}
	c.mu.Unlock()
	return c.nc.Close()
}

// readLoop routes response frames to their waiting requests and hit frames
// to session counters.
func (c *Client) readLoop() {
	var buf []byte
	var err error
	for {
		var m Msg
		buf, err = readMsg(c.nc, buf, &m)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for seq, ch := range c.pending {
				delete(c.pending, seq)
				close(ch)
			}
			select {
			case <-c.closed:
			default:
				close(c.closed)
			}
			c.mu.Unlock()
			return
		}
		switch m.Op {
		case OpResp:
			c.mu.Lock()
			ch := c.pending[m.Seq]
			delete(c.pending, m.Seq)
			c.mu.Unlock()
			if ch != nil {
				mm := m
				ch <- &mm
			}
		case OpHits:
			now := time.Now().UnixNano()
			c.mu.Lock()
			for i := range m.Hits {
				if s := c.sess[m.Hits[i].SID]; s != nil {
					s.hits.Add(1)
					s.firstHit.CompareAndSwap(0, now)
				}
			}
			c.mu.Unlock()
			if c.OnHits != nil {
				c.OnHits(m.Hits)
			}
		}
	}
}

// start registers a waiter and writes the request frame.
func (c *Client) start(m *Msg) (chan *Msg, error) {
	m.Seq = c.seq.Add(1)
	ch := make(chan *Msg, 1)
	c.mu.Lock()
	if c.readErr != nil {
		err := c.readErr
		c.mu.Unlock()
		return nil, err
	}
	c.pending[m.Seq] = ch
	c.mu.Unlock()
	c.wmu.Lock()
	err := writeMsg(c.nc, m)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, m.Seq)
		c.mu.Unlock()
		return nil, err
	}
	return ch, nil
}

// respErr maps a response's error string to a client-side error, restoring
// the daemon's typed errors (ErrHitReconcileTimeout) so callers can match
// them with errors.Is across the wire.
func respErr(r *Msg) error {
	if r.Err == "" {
		return nil
	}
	if strings.Contains(r.Err, ErrHitReconcileTimeout.Error()) {
		return fmt.Errorf("mrsnet: %s: %w", r.Err, ErrHitReconcileTimeout)
	}
	return fmt.Errorf("mrsnet: %s", r.Err)
}

// await blocks for the response on ch.
func (c *Client) await(ch chan *Msg) (*Msg, error) {
	select {
	case r, ok := <-ch:
		if !ok {
			return nil, c.connErr()
		}
		if err := respErr(r); err != nil {
			return nil, err
		}
		return r, nil
	case <-c.closed:
		// The reader may still deliver a response it routed before closing.
		select {
		case r, ok := <-ch:
			if ok {
				if err := respErr(r); err != nil {
					return nil, err
				}
				return r, nil
			}
		default:
		}
		return nil, c.connErr()
	}
}

func (c *Client) connErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.readErr != nil {
		return fmt.Errorf("mrsnet: connection lost: %w", c.readErr)
	}
	return fmt.Errorf("mrsnet: connection closed")
}

// request is a synchronous round trip.
func (c *Client) request(m *Msg) (*Msg, error) {
	ch, err := c.start(m)
	if err != nil {
		return nil, err
	}
	return c.await(ch)
}

// ClientSession is one attached session's client half.
type ClientSession struct {
	c   *Client
	sid string
	// Shard is the daemon shard the session landed on.
	Shard int
	// AttachedAt is when the attach request was sent (latency baseline).
	AttachedAt time.Time

	hits     atomic.Int64
	firstHit atomic.Int64 // UnixNano of the first received hit; 0 = none

	runCh chan *Msg
}

// AttachSpec names the program a session runs.
type AttachSpec struct {
	SID      string
	Workload string
	Scale    int
	Strategy string // "" = BitmapInlineRegisters
}

// Attach creates a session on the daemon.
func (c *Client) Attach(spec AttachSpec) (*ClientSession, error) {
	s := &ClientSession{c: c, sid: spec.SID, AttachedAt: time.Now()}
	// Register before the request so a hit racing the attach response is
	// still counted (hits cannot precede attach server-side, but the reply
	// and a first hit can interleave on the wire for a fast program).
	c.mu.Lock()
	if _, dup := c.sess[spec.SID]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("mrsnet: session %q already attached", spec.SID)
	}
	c.sess[spec.SID] = s
	c.mu.Unlock()
	r, err := c.request(&Msg{
		Op: OpAttach, SID: spec.SID,
		Workload: spec.Workload, Scale: spec.Scale, Strategy: spec.Strategy,
	})
	if err != nil {
		c.mu.Lock()
		delete(c.sess, spec.SID)
		c.mu.Unlock()
		return nil, err
	}
	s.Shard = r.Shard
	return s, nil
}

// SID returns the session id.
func (s *ClientSession) SID() string { return s.sid }

// Hits returns the number of hit records received so far.
func (s *ClientSession) Hits() int64 { return s.hits.Load() }

// FirstHitAt returns when the first hit arrived (zero time if none yet).
func (s *ClientSession) FirstHitAt() time.Time {
	ns := s.firstHit.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// CreateRegion installs a monitored region.
func (s *ClientSession) CreateRegion(addr, size uint32) error {
	_, err := s.c.request(&Msg{Op: OpRegionC, SID: s.sid, Addr: addr, Size: size})
	return err
}

// CreateRegionKind installs a monitored region delivering only hits of the
// named access kind: "store", "load", or "all". The daemon refuses "load"
// when the session's program carries no read checks.
func (s *ClientSession) CreateRegionKind(addr, size uint32, kind string) error {
	_, err := s.c.request(&Msg{Op: OpRegionC, SID: s.sid, Addr: addr, Size: size, Kind: kind})
	return err
}

// CreateTransitionRegion installs a transition watchpoint: store-triggered,
// delivered only when the named predicate's result over the stored word
// changes. pred is one of "changed", "nonzero", "sign", "mask", "eq"
// (empty = "changed"); arg parameterizes "mask" and "eq".
func (s *ClientSession) CreateTransitionRegion(addr, size uint32, pred string, arg uint32) error {
	_, err := s.c.request(&Msg{
		Op: OpRegionC, SID: s.sid, Addr: addr, Size: size,
		Kind: "transition", Pred: pred, PredArg: arg,
	})
	return err
}

// DeleteRegion removes a monitored region.
func (s *ClientSession) DeleteRegion(addr, size uint32) error {
	_, err := s.c.request(&Msg{Op: OpRegionD, SID: s.sid, Addr: addr, Size: size})
	return err
}

// PatchToggle patches text index idx to unimp (true) or back to the
// program's original instruction (false); the daemon skips the patch until
// the debuggee has retired at least one instruction. Returns whether the
// patch was applied.
func (s *ClientSession) PatchToggle(idx int32, unimp bool) (applied bool, err error) {
	r, err := s.c.request(&Msg{Op: OpPatch, SID: s.sid, Index: idx, Unimp: unimp})
	if err != nil {
		return false, err
	}
	return !r.Skipped, nil
}

// RunResult is a completed run.
type RunResult struct {
	Code   int32
	Cycles int64
	Instrs int64
	Output string
	// HitTotal is the server-side hit count; every one of those hits was
	// delivered to this client before the run response.
	HitTotal int64
}

// Start launches the session's run without waiting for completion. Control
// operations (regions, patches) may be issued while it executes; call Wait
// to collect the result.
func (s *ClientSession) Start() error {
	if s.runCh != nil {
		return fmt.Errorf("mrsnet: session %q already running", s.sid)
	}
	ch, err := s.c.start(&Msg{Op: OpRun, SID: s.sid})
	if err != nil {
		return err
	}
	s.runCh = ch
	return nil
}

// Wait blocks for the result of Start.
func (s *ClientSession) Wait() (RunResult, error) {
	if s.runCh == nil {
		return RunResult{}, fmt.Errorf("mrsnet: session %q not started", s.sid)
	}
	r, err := s.c.await(s.runCh)
	s.runCh = nil
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{
		Code: r.Code, Cycles: r.Cycles, Instrs: r.Instrs,
		Output: r.Output, HitTotal: r.HitTotal,
	}, nil
}

// Run is Start+Wait.
func (s *ClientSession) Run() (RunResult, error) {
	if err := s.Start(); err != nil {
		return RunResult{}, err
	}
	return s.Wait()
}

// Detach tears the session down on the daemon and unregisters it locally.
func (s *ClientSession) Detach() error {
	_, err := s.c.request(&Msg{Op: OpDetach, SID: s.sid})
	s.c.mu.Lock()
	delete(s.c.sess, s.sid)
	s.c.mu.Unlock()
	return err
}
