package mrsnet

import (
	"strings"
	"sync/atomic"
	"testing"

	"databreak/internal/asm"
	"databreak/internal/machine"
	"databreak/internal/patch"
)

// TestStopFootprint runs each churn program in a daemon session that sends
// region+/region- pairs and a patch-toggle pair while the run is in flight,
// then compares the closures the program's shared image holds
// (Program.TraceBytes) with a plain in-process Run's on a fresh build.
// Control requests stop the run only at dispatch boundaries that an
// uninterrupted run dispatches anyway, so the session's image stays within
// footprintFactor of the plain run's. Slicing the run into fixed
// 4096-instruction pieces compiled 3.2x (gcc) to 41x (fpppp) as much.
func TestStopFootprint(t *testing.T) {
	const footprintFactor = 1.25
	for _, name := range []string{"gcc", "li", "doduc", "fpppp", "matrix300", "tomcatv"} {
		plainProg, err := testPrograms()(name, 1, patch.BitmapInlineRegisters)
		if err != nil {
			t.Fatal(err)
		}
		want := serialRun(t, plainProg, [][2]uint32{{hitAddr, hitSize}})
		plain := plainProg.TraceBytes()

		var sessProg atomic.Pointer[asm.Program]
		src := testPrograms()
		d := newTestDaemon(t, Options{Shards: 1, Programs: func(w string, scale int, st patch.Strategy) (*asm.Program, error) {
			p, err := src(w, scale, st)
			sessProg.Store(p)
			return p, err
		}})
		c := dialPipe(t, d, Hello{})
		s, err := c.Attach(AttachSpec{SID: name, Workload: name, Scale: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.CreateRegion(hitAddr, hitSize); err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		var res RunResult
		var runErr error
		done := make(chan struct{})
		go func() {
			res, runErr = s.Wait()
			close(done)
		}()
		inFlight := func() bool {
			select {
			case <-done:
				return false
			default:
				return true
			}
		}
		// The region rounds come first: a patch privatizes the session's
		// text, and the closures compiled after it no longer land in the
		// shared image.
		ctl, toggles := 0, 0
		for j := 0; j < 6 && inFlight(); j++ {
			if err := s.CreateRegion(churnAddr, 16); err != nil {
				t.Fatal(err)
			}
			if err := s.DeleteRegion(churnAddr, 16); err != nil {
				t.Fatal(err)
			}
			ctl += 2
		}
		if inFlight() {
			applied, err := s.PatchToggle(0, true)
			if err != nil {
				t.Fatal(err)
			}
			if applied {
				if _, err := s.PatchToggle(0, false); err != nil {
					t.Fatal(err)
				}
				toggles++
			}
		}
		<-done
		if runErr != nil {
			t.Fatalf("%s: run: %v", name, runErr)
		}
		if res.Instrs != want.instrs || res.Output != want.output || res.HitTotal != want.hits {
			t.Errorf("%s: session diverged from serial: instrs %d/%d, hits %d/%d", name, res.Instrs, want.instrs, res.HitTotal, want.hits)
		}
		got := sessProg.Load().TraceBytes()
		t.Logf("%s: %d control requests, %d patch toggles; closures %d B against %d B plain (%.2fx)",
			name, ctl, toggles, got, plain, float64(got)/float64(plain))
		if float64(got) > footprintFactor*float64(plain) {
			t.Errorf("%s: session image holds %d B of closures, plain run %d B: more than %.2fx", name, got, plain, footprintFactor)
		}
	}
}

// TestRegionBytesBound: a region+ request larger than
// Options.MaxRegionBytes gets an error frame, whatever its kind, while
// another session of the same shard runs; that session's counts stay
// byte-identical to a serial run's, and the refused session stays usable.
// The default bound admits every region the in-repo clients send (at most
// 64 bytes) and refuses a 16 MB one.
func TestRegionBytesBound(t *testing.T) {
	d := newTestDaemon(t, Options{Shards: 1})
	c := dialPipe(t, d, Hello{})
	prog, err := d.opts.Programs("eqntott", 1, patch.BitmapInlineRegisters)
	if err != nil {
		t.Fatal(err)
	}
	want := serialRun(t, prog, [][2]uint32{{hitAddr, hitSize}})

	victim, err := c.Attach(AttachSpec{SID: "victim", Workload: "eqntott", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	hostile, err := c.Attach(AttachSpec{SID: "hostile", Workload: "eqntott", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := victim.CreateRegion(hitAddr, hitSize); err != nil {
		t.Fatal(err)
	}
	if err := victim.Start(); err != nil {
		t.Fatal(err)
	}
	const huge = 16 << 20
	for kind, send := range map[string]func() error{
		"all":        func() error { return hostile.CreateRegion(machine.HeapBase, huge) },
		"store":      func() error { return hostile.CreateRegionKind(machine.HeapBase, huge, "store") },
		"transition": func() error { return hostile.CreateTransitionRegion(machine.HeapBase, huge, "changed", 0) },
	} {
		if err := send(); err == nil || !strings.Contains(err.Error(), "refused") {
			t.Errorf("%s region of %d bytes: err %v, want a refusal", kind, huge, err)
		}
	}
	res, err := victim.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Code != want.code || res.Cycles != want.cycles || res.Instrs != want.instrs ||
		res.Output != want.output || res.HitTotal != want.hits {
		t.Fatalf("victim diverged from serial: got code=%d cycles=%d instrs=%d hits=%d, want %d/%d/%d/%d",
			res.Code, res.Cycles, res.Instrs, res.HitTotal, want.code, want.cycles, want.instrs, want.hits)
	}
	if err := hostile.CreateRegion(churnAddr, 64); err != nil {
		t.Fatalf("64-byte region after the refusals: %v", err)
	}

	// A configured bound is exact at its edge.
	small := newTestDaemon(t, Options{Shards: 1, MaxRegionBytes: 64})
	s, err := dialPipe(t, small, Hello{}).Attach(AttachSpec{SID: "s", Workload: "eqntott", Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateRegion(churnAddr, 64); err != nil {
		t.Errorf("64-byte region under a 64-byte bound: %v", err)
	}
	if err := s.CreateRegion(churnAddr+64, 68); err == nil {
		t.Error("68-byte region under a 64-byte bound was admitted")
	}
}
