package mrsnet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"databreak/internal/asm"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/minic"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// hitWord is the one stack word every workload's entry frame writes: probing
// all ten workloads showed [StackTop-4, StackTop) is the only small region
// with a nonzero, moderate hit count on every program.
const (
	hitAddr uint32 = machine.StackTop - 4
	hitSize uint32 = 4

	// farAddr/churnAddr are far from any workload's data. A region at
	// farAddr installed before the run keeps the check code active for the
	// whole execution without ever hitting; with it in place, adding and
	// removing churnAddr mid-run is count-neutral (mirrors bench.Stress's
	// FarRegion/ChurnRegion pairing).
	farAddr   uint32 = 0x7800_0000
	churnAddr uint32 = 0x7900_0000
)

// testPrograms is a memoizing ProgramSource for daemon tests: same
// workload/scale/strategy → same *asm.Program, so sessions share one
// copy-on-write image exactly as the production source does.
func testPrograms() ProgramSource {
	var mu sync.Mutex
	memo := make(map[string]*asm.Program)
	return func(name string, scale int, strat patch.Strategy) (*asm.Program, error) {
		key := fmt.Sprintf("%s|%d|%s", name, scale, strat)
		mu.Lock()
		defer mu.Unlock()
		if p := memo[key]; p != nil {
			return p, nil
		}
		w, ok := workload.ByName(name, scale)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		src, err := minic.Compile(w.Source)
		if err != nil {
			return nil, err
		}
		u, err := asm.Parse(name+".s", src)
		if err != nil {
			return nil, err
		}
		mcfg := monitor.DefaultConfig
		if strat == patch.Cache || strat == patch.CacheInline {
			mcfg.Flags = true
		}
		res, err := patch.Apply(patch.Options{Strategy: strat, Monitor: mcfg}, u)
		if err != nil {
			return nil, err
		}
		prog, err := asm.Assemble(asm.Options{AddStartup: true}, res.Units...)
		if err != nil {
			return nil, err
		}
		memo[key] = prog
		return prog, nil
	}
}

type serialResult struct {
	code   int32
	cycles int64
	instrs int64
	output string
	hits   int64
}

// serialRun executes prog on a private machine with regions installed in the
// given order — the byte-identity reference for daemon runs.
func serialRun(t *testing.T, prog *asm.Program, regions [][2]uint32) serialResult {
	t.Helper()
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	prog.LoadShared(m)
	svc, err := monitor.NewService(monitor.DefaultConfig, m)
	if err != nil {
		t.Fatalf("serial service: %v", err)
	}
	svc.NoHitLog = true
	for _, r := range regions {
		if err := svc.CreateRegion(r[0], r[1]); err != nil {
			t.Fatalf("serial region %#x: %v", r[0], err)
		}
	}
	svc.Reinstall()
	code, err := m.Run()
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}
	return serialResult{
		code: code, cycles: m.Cycles(), instrs: m.Instrs(),
		output: m.Output(), hits: svc.HitCount,
	}
}

func newTestDaemon(t *testing.T, opts Options) *Daemon {
	t.Helper()
	if opts.Programs == nil {
		opts.Programs = testPrograms()
	}
	d, err := NewDaemon(opts)
	if err != nil {
		t.Fatalf("NewDaemon: %v", err)
	}
	t.Cleanup(d.Close)
	return d
}

func dialPipe(t *testing.T, d *Daemon, hello Hello) *Client {
	t.Helper()
	c, err := NewClient(d.Pipe(), hello)
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestAttachRunDetach is the core lifecycle: a session attached over the pipe
// transport produces byte-identical counts to a serial run, every hit is
// delivered before the run response, and detach frees the session.
func TestAttachRunDetach(t *testing.T) {
	d := newTestDaemon(t, Options{Shards: 2})
	c := dialPipe(t, d, Hello{})

	s, err := c.Attach(AttachSpec{SID: "s1", Workload: "eqntott", Scale: 1})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := s.CreateRegion(hitAddr, hitSize); err != nil {
		t.Fatalf("region: %v", err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	prog, err := d.opts.Programs("eqntott", 1, patch.BitmapInlineRegisters)
	if err != nil {
		t.Fatal(err)
	}
	want := serialRun(t, prog, [][2]uint32{{hitAddr, hitSize}})
	if res.Code != want.code || res.Cycles != want.cycles ||
		res.Instrs != want.instrs || res.Output != want.output {
		t.Fatalf("daemon run diverged from serial:\n daemon: code=%d cycles=%d instrs=%d out=%q\n serial: code=%d cycles=%d instrs=%d out=%q",
			res.Code, res.Cycles, res.Instrs, res.Output,
			want.code, want.cycles, want.instrs, want.output)
	}
	if res.HitTotal != want.hits {
		t.Fatalf("HitTotal = %d, serial produced %d", res.HitTotal, want.hits)
	}
	// Zero hit loss: the response is ordered after the last hit frame, so by
	// now the client has tallied every hit.
	if got := s.Hits(); got != res.HitTotal {
		t.Fatalf("client received %d hits, server reported %d", got, res.HitTotal)
	}
	if s.FirstHitAt().IsZero() {
		t.Fatal("no first-hit timestamp despite hits")
	}
	if err := s.Detach(); err != nil {
		t.Fatalf("detach: %v", err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("run succeeded after detach")
	}
	if d.Attached() != 1 {
		t.Fatalf("Attached() = %d, want 1", d.Attached())
	}
}

// TestBatchToggle runs the same workload under coalesced delivery and under
// the one-frame-per-hit baseline (hello Batch=1): both must deliver the same
// hits, and the coalesced connection must actually batch.
func TestBatchToggle(t *testing.T) {
	d := newTestDaemon(t, Options{Shards: 1})

	run := func(hello Hello, sid string) (RunResult, int64, int) {
		c := dialPipe(t, d, hello)
		maxBatch := 0
		var mu sync.Mutex
		c.OnHits = func(batch []HitRec) {
			mu.Lock()
			if len(batch) > maxBatch {
				maxBatch = len(batch)
			}
			mu.Unlock()
		}
		s, err := c.Attach(AttachSpec{SID: sid, Workload: "fpppp", Scale: 1})
		if err != nil {
			t.Fatalf("attach: %v", err)
		}
		if err := s.CreateRegion(hitAddr, hitSize); err != nil {
			t.Fatalf("region: %v", err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		mu.Lock()
		defer mu.Unlock()
		return res, s.Hits(), maxBatch
	}

	batched, bHits, bMax := run(Hello{Batch: 64, Flush: 50 * time.Millisecond}, "b")
	single, sHits, sMax := run(Hello{Batch: 1}, "s")

	if batched.HitTotal != single.HitTotal || batched.Instrs != single.Instrs {
		t.Fatalf("delivery mode changed results: batched %d hits/%d instrs, single %d/%d",
			batched.HitTotal, batched.Instrs, single.HitTotal, single.Instrs)
	}
	if bHits != batched.HitTotal || sHits != single.HitTotal {
		t.Fatalf("client tallies %d/%d, want %d", bHits, sHits, batched.HitTotal)
	}
	if bMax <= 1 {
		t.Fatalf("coalescing connection never batched (max frame %d of %d hits)", bMax, batched.HitTotal)
	}
	if sMax != 1 {
		t.Fatalf("batch=1 connection sent a %d-hit frame", sMax)
	}
}

// TestShardPlacementStable: the same session id lands on the same shard in
// any daemon with the same shard count, and ids spread across shards.
func TestShardPlacementStable(t *testing.T) {
	const shards = 4
	seen := make(map[int]bool)
	var first []int
	for round := 0; round < 2; round++ {
		d := newTestDaemon(t, Options{Shards: shards})
		c := dialPipe(t, d, Hello{})
		var placed []int
		for i := 0; i < 16; i++ {
			s, err := c.Attach(AttachSpec{SID: fmt.Sprintf("sess-%d", i), Workload: "eqntott", Scale: 1})
			if err != nil {
				t.Fatalf("attach %d: %v", i, err)
			}
			placed = append(placed, s.Shard)
			seen[s.Shard] = true
		}
		if round == 0 {
			first = placed
		} else {
			for i := range placed {
				if placed[i] != first[i] {
					t.Fatalf("sess-%d moved: shard %d then %d", i, first[i], placed[i])
				}
			}
		}
		c.Close()
		d.Close()
	}
	if len(seen) < 2 {
		t.Fatalf("16 sessions all hashed to one shard of %d", shards)
	}
}

// TestRegionAndPatchChurn drives the stress harness's churn over the wire:
// count-neutral region add/remove and the text-patch toggle, mid-run. The
// run must match the serial reference on instrs and output (cycles are
// perturbed by I-cache invalidation, exactly as in bench.Stress).
func TestRegionAndPatchChurn(t *testing.T) {
	d := newTestDaemon(t, Options{Shards: 2})
	c := dialPipe(t, d, Hello{})
	s, err := c.Attach(AttachSpec{SID: "churn", Workload: "eqntott", Scale: 1})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := s.CreateRegion(farAddr, 4); err != nil {
		t.Fatalf("far region: %v", err)
	}
	if err := s.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	applied := 0
	for i := 0; i < 8; i++ {
		if err := s.CreateRegion(churnAddr, 64); err != nil {
			t.Fatalf("churn create: %v", err)
		}
		if err := s.DeleteRegion(churnAddr, 64); err != nil {
			t.Fatalf("churn delete: %v", err)
		}
		if ok, err := s.PatchToggle(0, true); err != nil {
			t.Fatalf("patch unimp: %v", err)
		} else if ok {
			if _, err := s.PatchToggle(0, false); err != nil {
				t.Fatalf("patch restore: %v", err)
			}
			applied++
		}
		time.Sleep(time.Millisecond)
	}
	res, err := s.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	prog, err := d.opts.Programs("eqntott", 1, patch.BitmapInlineRegisters)
	if err != nil {
		t.Fatal(err)
	}
	want := serialRun(t, prog, [][2]uint32{{farAddr, 4}})
	if res.Instrs != want.instrs || res.Output != want.output || res.Code != want.code {
		t.Fatalf("churned run diverged: instrs %d vs %d, code %d vs %d",
			res.Instrs, want.instrs, res.Code, want.code)
	}
	t.Logf("patch toggles applied: %d of 8", applied)
}

// TestErrors pins the failure paths: bad attach, duplicate sid, unknown
// session, out-of-range patch, admission control.
func TestErrors(t *testing.T) {
	d := newTestDaemon(t, Options{Shards: 1, MaxSessionsPerShard: 2})
	c := dialPipe(t, d, Hello{})

	if _, err := c.Attach(AttachSpec{SID: "x", Workload: "no-such-workload"}); err == nil {
		t.Fatal("attach of unknown workload succeeded")
	}
	if _, err := c.Attach(AttachSpec{SID: "x", Workload: "eqntott", Strategy: "bogus"}); err == nil {
		t.Fatal("attach with unknown strategy succeeded")
	}
	s, err := c.Attach(AttachSpec{SID: "x", Workload: "eqntott"})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if _, err := c.Attach(AttachSpec{SID: "x", Workload: "eqntott"}); err == nil ||
		!strings.Contains(err.Error(), "already attached") {
		t.Fatalf("duplicate sid: err = %v", err)
	}
	if err := s.CreateRegion(3, hitSize); err == nil {
		t.Fatal("misaligned region accepted")
	}

	// Patch before the first retired instruction is skipped, not applied.
	if ok, err := s.PatchToggle(0, true); err != nil || ok {
		t.Fatalf("pre-run patch: applied=%v err=%v, want skipped", ok, err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if _, err := s.PatchToggle(1<<20, true); err == nil {
		t.Fatal("out-of-range patch index accepted")
	}

	// Admission control: shard cap is 2 (one slot used by "x").
	if _, err := c.Attach(AttachSpec{SID: "y", Workload: "eqntott"}); err != nil {
		t.Fatalf("attach y: %v", err)
	}
	if _, err := c.Attach(AttachSpec{SID: "z", Workload: "eqntott"}); err == nil ||
		!strings.Contains(err.Error(), "session capacity") {
		t.Fatalf("over-cap attach: err = %v", err)
	}
	if err := s.Detach(); err != nil {
		t.Fatalf("detach: %v", err)
	}
	if _, err := c.Attach(AttachSpec{SID: "z", Workload: "eqntott"}); err != nil {
		t.Fatalf("attach after slot freed: %v", err)
	}

	// Session ops on an unknown sid fail cleanly.
	ghost := &ClientSession{c: c, sid: "ghost"}
	if err := ghost.CreateRegion(hitAddr, hitSize); err == nil {
		t.Fatal("region op on unknown session succeeded")
	}
}

// TestDaemonClose: closing the daemon tears down live connections; clients
// see errors, not hangs.
func TestDaemonClose(t *testing.T) {
	d := newTestDaemon(t, Options{Shards: 2})
	c := dialPipe(t, d, Hello{})
	if _, err := c.Attach(AttachSpec{SID: "s", Workload: "eqntott"}); err != nil {
		t.Fatalf("attach: %v", err)
	}
	done := make(chan struct{})
	go func() {
		d.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("daemon Close hung")
	}
	if _, err := c.Attach(AttachSpec{SID: "t", Workload: "eqntott"}); err == nil {
		t.Fatal("attach succeeded after daemon close")
	}
}

// TestConcurrentSessions: many sessions over several connections, every one
// byte-identical to the serial reference, hits fully reconciled.
func TestConcurrentSessions(t *testing.T) {
	names := []string{"eqntott", "fpppp", "li"}
	if testing.Short() {
		names = names[:2]
	}
	src := testPrograms()
	d := newTestDaemon(t, Options{Programs: src})

	type ref struct{ serialResult }
	refs := make(map[string]ref)
	for _, name := range names {
		prog, err := src(name, 1, patch.BitmapInlineRegisters)
		if err != nil {
			t.Fatal(err)
		}
		refs[name] = ref{serialRun(t, prog, [][2]uint32{{hitAddr, hitSize}})}
	}

	const perConn = 4
	var wg sync.WaitGroup
	errs := make(chan error, 3*perConn)
	for ci := 0; ci < 3; ci++ {
		c := dialPipe(t, d, Hello{})
		for si := 0; si < perConn; si++ {
			wg.Add(1)
			go func(c *Client, ci, si int) {
				defer wg.Done()
				name := names[(ci*perConn+si)%len(names)]
				s, err := c.Attach(AttachSpec{SID: fmt.Sprintf("c%d-s%d", ci, si), Workload: name, Scale: 1})
				if err != nil {
					errs <- fmt.Errorf("attach: %w", err)
					return
				}
				if err := s.CreateRegion(hitAddr, hitSize); err != nil {
					errs <- fmt.Errorf("region: %w", err)
					return
				}
				res, err := s.Run()
				if err != nil {
					errs <- fmt.Errorf("run %s: %w", name, err)
					return
				}
				want := refs[name]
				if res.Cycles != want.cycles || res.Instrs != want.instrs ||
					res.Output != want.output || res.HitTotal != want.hits {
					errs <- fmt.Errorf("%s diverged: cycles %d vs %d, instrs %d vs %d, hits %d vs %d",
						name, res.Cycles, want.cycles, res.Instrs, want.instrs, res.HitTotal, want.hits)
					return
				}
				if s.Hits() != res.HitTotal {
					errs <- fmt.Errorf("%s: client saw %d of %d hits", name, s.Hits(), res.HitTotal)
					return
				}
				errs <- s.Detach()
			}(c, ci, si)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// daemonSession finds the daemon-side session for sid (test-only peek).
func daemonSession(d *Daemon, sid string) *session {
	for _, sh := range d.shards {
		sh.mu.Lock()
		for _, s := range sh.sessions {
			if s.sid == sid {
				sh.mu.Unlock()
				return s
			}
		}
		sh.mu.Unlock()
	}
	return nil
}

// TestRunReconcileTimeout is the liveness regression test for the run
// handler's delivered-vs-produced reconciliation: when hits are produced
// that can never reach the connection writer (a stalled routing path,
// simulated here by inflating the service's HitCount directly), the run
// must fail promptly with ErrHitReconcileTimeout instead of polling
// forever.
func TestRunReconcileTimeout(t *testing.T) {
	d := newTestDaemon(t, Options{ReconcileTimeout: 50 * time.Millisecond})
	c := dialPipe(t, d, Hello{})
	s, err := c.Attach(AttachSpec{SID: "stall", Workload: "eqntott", Scale: 1})
	if err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := s.CreateRegion(hitAddr, hitSize); err != nil {
		t.Fatalf("region: %v", err)
	}
	ds := daemonSession(d, "stall")
	if ds == nil {
		t.Fatal("no daemon session for sid")
	}
	// Fault injection: hits the service counted but the router will never
	// forward. Serialized against the run by Session.Do.
	if err := ds.ms.Do(func(_ *machine.Machine, svc *monitor.Service) error {
		svc.HitCount += 3
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = s.Run()
	if err == nil {
		t.Fatal("run succeeded despite undeliverable hits")
	}
	if !errors.Is(err, ErrHitReconcileTimeout) {
		t.Fatalf("run error = %v, want ErrHitReconcileTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("reconcile failure took %v, deadline not honored", elapsed)
	}
	// The session is still usable for control operations after the failed
	// run (the timeout fails the response, not the session).
	if err := s.Detach(); err != nil {
		t.Fatalf("detach after reconcile failure: %v", err)
	}
}

// TestRegionKinds drives the wire-level kind field: store-kind regions
// behave exactly like legacy regions (store traps are the only checks in a
// write-only patching), load-kind regions are refused without read
// checks, transitions suppress same-value stores and carry old/new values,
// and unknown kinds fail cleanly.
func TestRegionKinds(t *testing.T) {
	d := newTestDaemon(t, Options{})
	c := dialPipe(t, d, Hello{})

	var mu sync.Mutex
	var recs []HitRec
	c.OnHits = func(batch []HitRec) {
		mu.Lock()
		recs = append(recs, batch...)
		mu.Unlock()
	}

	// Baseline: legacy (kind-less) region.
	s1, err := c.Attach(AttachSpec{SID: "k-legacy", Workload: "eqntott", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.CreateRegion(hitAddr, hitSize); err != nil {
		t.Fatal(err)
	}
	legacy, err := s1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if legacy.HitTotal == 0 {
		t.Fatal("baseline run produced no hits")
	}

	// Explicit store kind: identical delivery.
	s2, err := c.Attach(AttachSpec{SID: "k-store", Workload: "eqntott", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.CreateRegionKind(hitAddr, hitSize, "store"); err != nil {
		t.Fatal(err)
	}
	store, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if store.HitTotal != legacy.HitTotal || store.Cycles != legacy.Cycles {
		t.Fatalf("store-kind run: hits=%d cycles=%d, legacy hits=%d cycles=%d",
			store.HitTotal, store.Cycles, legacy.HitTotal, legacy.Cycles)
	}

	// Load kind: refused, because the program carries no read checks and
	// the region could never deliver a hit. The session stays usable and
	// its run delivers nothing.
	s3, err := c.Attach(AttachSpec{SID: "k-load", Workload: "eqntott", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.CreateRegionKind(hitAddr, hitSize, "load"); err == nil || !strings.Contains(err.Error(), "no read checks") {
		t.Fatalf("load-kind region on a store-only program: err %v, want a refusal", err)
	}
	load, err := s3.Run()
	if err != nil {
		t.Fatal(err)
	}
	if load.Instrs == 0 || load.HitTotal != 0 || s3.Hits() != 0 {
		t.Fatalf("after a refused load region: %d instrs, %d hits (client %d), want a run with 0 hits",
			load.Instrs, load.HitTotal, s3.Hits())
	}

	// Transition: hits only when the stored value changes; old/new ride
	// along; HitTotal still reconciles against delivered frames.
	s4, err := c.Attach(AttachSpec{SID: "k-trans", Workload: "eqntott", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s4.CreateTransitionRegion(hitAddr, hitSize, "changed", 0); err != nil {
		t.Fatal(err)
	}
	trans, err := s4.Run()
	if err != nil {
		t.Fatal(err)
	}
	if trans.Cycles != legacy.Cycles {
		t.Fatalf("transition region changed simulated cycles: %d vs %d",
			trans.Cycles, legacy.Cycles)
	}
	if trans.HitTotal > legacy.HitTotal {
		t.Fatalf("transition delivered %d hits, more than the %d stores",
			trans.HitTotal, legacy.HitTotal)
	}
	if s4.Hits() != trans.HitTotal {
		t.Fatalf("client received %d transition hits, server reported %d",
			s4.Hits(), trans.HitTotal)
	}
	mu.Lock()
	for _, r := range recs {
		if r.SID == "k-trans" && r.Old == r.New {
			mu.Unlock()
			t.Fatalf("transition hit with old == new: %+v", r)
		}
	}
	mu.Unlock()

	// Unknown kind fails cleanly.
	s5, err := c.Attach(AttachSpec{SID: "k-bad", Workload: "eqntott", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s5.CreateRegionKind(hitAddr, hitSize, "exec"); err == nil ||
		!strings.Contains(err.Error(), "unknown region kind") {
		t.Fatalf("unknown kind error = %v", err)
	}
	if err := s5.CreateTransitionRegion(hitAddr, hitSize, "xor", 0); err == nil ||
		!strings.Contains(err.Error(), "unknown transition predicate") {
		t.Fatalf("unknown predicate error = %v", err)
	}
}
