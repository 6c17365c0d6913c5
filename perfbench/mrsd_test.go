package main

import (
	"encoding/binary"
	"math/rand/v2"
	"testing"
)

func TestServerConnCountsFramesAcrossWrites(t *testing.T) {
	frame := func(n int) []byte {
		b := make([]byte, 4+n)
		binary.BigEndian.PutUint32(b, uint32(n))
		return b
	}
	var stream []byte
	for _, n := range []int{1, 300, 17, 4} {
		stream = append(stream, frame(n)...)
	}
	// Header and payload in separate writes, and writes cutting across
	// frame boundaries, must count the same frames.
	for _, cut := range [][]int{{4, 1, 4, 300, 4, 17, 4, 4}, {2, 2, 1, 3}, {len(stream)}} {
		c := &serverConn{}
		got, b := 0, stream
		for i := 0; len(b) > 0; i++ {
			k := min(cut[i%len(cut)], len(b))
			got += c.countFrames(b[:k])
			b = b[k:]
		}
		if got != 4 {
			t.Errorf("writes of %v: %d frames, want 4", cut, got)
		}
	}
}

func TestPlanIsSeededAndBalanced(t *testing.T) {
	a := plan(churnPrograms, churnPerProgram, true, rand.New(rand.NewPCG(7, 0)))
	b := plan(churnPrograms, churnPerProgram, true, rand.New(rand.NewPCG(7, 0)))
	c := plan(churnPrograms, churnPerProgram, true, rand.New(rand.NewPCG(8, 0)))
	if len(a) != len(churnPrograms)*churnPerProgram {
		t.Fatalf("%d sessions", len(a))
	}
	same, differ := true, false
	perProg := map[string]int{}
	rounds := map[int]int{}
	for i := range a {
		same = same && a[i] == b[i]
		differ = differ || a[i] != c[i]
		perProg[a[i].prog]++
		rounds[a[i].rounds]++
		if a[i].patchAt < 0 || a[i].patchAt >= a[i].rounds {
			t.Errorf("session %d: patch after round %d of %d", i, a[i].patchAt, a[i].rounds)
		}
	}
	if !same || !differ {
		t.Errorf("same seed same plan: %t; other seed other plan: %t", same, differ)
	}
	for _, p := range churnPrograms {
		if perProg[p] != churnPerProgram {
			t.Errorf("%s: %d sessions, want %d", p, perProg[p], churnPerProgram)
		}
	}
	total := 0
	for r, n := range rounds {
		total += r * n
	}
	// The amount of churn per round of sessions does not depend on the seed.
	want := 0
	for i := range a {
		want += churnRoundCounts[i%len(churnRoundCounts)]
	}
	if total != want {
		t.Errorf("%d churn rounds, want %d", total, want)
	}
}

// TestSessionsPassTheGateUnderTracing runs hits and churn sessions over a
// live daemon with the tracer and the connection wrappers on, so -race sees
// every goroutine that touches the benchmark's shared state.
func TestSessionsPassTheGateUnderTracing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sessions over a daemon")
	}
	ref, err := loadReference("reference.json")
	if err != nil {
		t.Fatal(err)
	}
	dm, err := startDaemon()
	if err != nil {
		t.Fatal(err)
	}
	defer dm.close()
	tr := newTracer()
	dm.tr.Store(tr)
	ps := newPhaseStats()
	ps.begin()
	rng := rand.New(rand.NewPCG(1, 0))
	dm.runSessions(tr, "hits", plan([]string{"eqntott"}, 2, false, rng), false, ref, &ps)
	dm.runSessions(tr, "churn", plan([]string{"fpppp", "gcc"}, 1, true, rng), true, ref, &ps)
	ps.endRound()
	ps.finish()
	if ps.failed != 0 || ps.done != 4 {
		t.Fatalf("%d of %d sessions done, failures %v", ps.done, ps.attempted, ps.failures)
	}
	if len(ps.firstHit) != 4 || ps.hits == 0 || dm.st.hits.Load() != ps.hits {
		t.Errorf("first hits %d, server hits %d, client hits %d", len(ps.firstHit), ps.hits, dm.st.hits.Load())
	}
	if dm.st.serverFrames.Load() == 0 || dm.st.clientBusyNS.Load() == 0 {
		t.Errorf("wire counters: %d frames, %d ns client busy", dm.st.serverFrames.Load(), dm.st.clientBusyNS.Load())
	}
	_, calls := spanTotals(tr.records())
	if calls["machine.new"] != 4 {
		t.Errorf("%d machine.new spans for 4 sessions", calls["machine.new"])
	}
	for _, name := range []string{"session", "mrsnet.attach", "mrsnet.run", "mrsnet.server_write",
		"mrsnet.client_decode", "bench.program_source", "machine.new"} {
		if calls[name] == 0 {
			t.Errorf("no %s spans", name)
		}
	}
}
