package monitor

import (
	"context"
	"sync"
	"testing"
	"time"

	"databreak/internal/cache"
	"databreak/internal/machine"
)

// TestShutdownDrainsQueuedHits: hits enqueued before Shutdown must all reach
// a consumer reading until the channel closes — the graceful path loses
// nothing.
func TestShutdownDrainsQueuedHits(t *testing.T) {
	srv := NewServer()
	watched := uint32(0x2000_0000)
	const probes = 200
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	probeProg(t, watched, probes).Load(m)
	sess, err := srv.Attach(DefaultConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.CreateRegion(watched, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	// All probes hit; nothing consumed yet. Start the consumer only after
	// Shutdown begins so the drain wait is actually exercised.
	got := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range srv.Hits() {
			got++
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	if got != probes {
		t.Fatalf("consumer saw %d hits after graceful shutdown, want %d", got, probes)
	}
}

// TestShutdownInterruptsRunningSessions: Shutdown called mid-run must detach
// every session (Run is stopped and returns a detached error) and leave
// no goroutine blocked — the mid-run teardown the stress harness needs.
func TestShutdownInterruptsRunningSessions(t *testing.T) {
	srv := NewServerOpt(Options{QueueCap: 4})
	watched := uint32(0x2000_0000)
	const nSessions = 4
	errs := make(chan error, nSessions)
	for i := 0; i < nSessions; i++ {
		m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		// Far more probes than the queue bound: with no consumer, sessions
		// block in hit delivery (backpressure) until shutdown releases them.
		probeProg(t, watched, 500).Load(m)
		sess, err := srv.Attach(DefaultConfig, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.CreateRegion(watched, 4); err != nil {
			t.Fatal(err)
		}
		go func() {
			_, err := sess.Run()
			errs <- err
		}()
	}
	// Let the sessions wedge against the bounded queue, then tear down. The
	// drain deadline is short on purpose: with no consumer the queue cannot
	// empty, and Shutdown must give up at the deadline rather than hang.
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_ = srv.Shutdown(ctx)
	for i := 0; i < nSessions; i++ {
		select {
		case err := <-errs:
			if err == nil {
				// A session may legitimately finish before Shutdown lands.
				continue
			}
		case <-time.After(5 * time.Second):
			t.Fatal("session Run did not return after Shutdown")
		}
	}
	if srv.SessionCount() != 0 {
		t.Fatalf("%d sessions still registered after Shutdown", srv.SessionCount())
	}
}

// TestBoundedQueueBackpressure: with a bounded queue and a slow consumer,
// every hit still arrives exactly once — the bound throttles producers, it
// never drops.
func TestBoundedQueueBackpressure(t *testing.T) {
	srv := NewServerOpt(Options{QueueCap: 2})
	watched := uint32(0x2000_0000)
	const probes = 300
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	probeProg(t, watched, probes).Load(m)
	sess, err := srv.Attach(DefaultConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.CreateRegion(watched, 4); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := sess.Run()
		done <- err
	}()
	got := 0
	for h := range srv.Hits() {
		if h.Hit.Addr != watched {
			t.Fatalf("hit at %#x", h.Hit.Addr)
		}
		got++
		if got == probes {
			break
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var produced int64
	if err := sess.Do(func(_ *machine.Machine, svc *Service) error {
		produced = svc.HitCount
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if produced != probes {
		t.Fatalf("HitCount = %d, want %d", produced, probes)
	}
	srv.Close()
}

// TestMaxSessionsAdmission: Attach past the cap fails with ErrServerFull;
// detaching frees a slot.
func TestMaxSessionsAdmission(t *testing.T) {
	srv := NewServerOpt(Options{MaxSessions: 2})
	defer srv.Close()
	mk := func() *machine.Machine {
		m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
		probeProg(t, 0x2000_0000, 1).Load(m)
		return m
	}
	s1, err := srv.Attach(DefaultConfig, mk())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Attach(DefaultConfig, mk()); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Attach(DefaultConfig, mk()); err != ErrServerFull {
		t.Fatalf("third attach: err = %v, want ErrServerFull", err)
	}
	s1.Detach()
	if _, err := srv.Attach(DefaultConfig, mk()); err != nil {
		t.Fatalf("attach after detach: %v", err)
	}
}

// TestServiceNoHitLog: with NoHitLog the Hits slice stays empty while
// HitCount and OnHit still see every hit.
func TestServiceNoHitLog(t *testing.T) {
	m := machine.New(cache.DefaultConfig, machine.DefaultCosts)
	watched := uint32(0x2000_0000)
	const probes = 7
	probeProg(t, watched, probes).Load(m)
	svc, err := NewService(DefaultConfig, m)
	if err != nil {
		t.Fatal(err)
	}
	svc.NoHitLog = true
	delivered := 0
	svc.OnHit = func(Hit) { delivered++ }
	if err := svc.CreateRegion(watched, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if len(svc.Hits) != 0 {
		t.Fatalf("Hits logged %d entries under NoHitLog", len(svc.Hits))
	}
	if svc.HitCount != probes || delivered != probes {
		t.Fatalf("HitCount=%d delivered=%d, want %d", svc.HitCount, delivered, probes)
	}
}
