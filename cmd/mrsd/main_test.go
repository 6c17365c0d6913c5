package main

import (
	"bytes"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"databreak/internal/bench"
	"databreak/internal/mrsnet"
)

// TestServeDrainsBeforeReturning checks the graceful shutdown: after a
// signal, serve returns only once the daemon is closed and the drain
// summary is written, so the process cannot exit mid-drain.
func TestServeDrainsBeforeReturning(t *testing.T) {
	cfg := bench.DefaultConfig()
	d, err := mrsnet.NewDaemon(mrsnet.Options{
		Shards:     1,
		Programs:   cfg.ProgramSource(),
		NewMachine: cfg.MachineFactory(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// A client connection the drain must close.
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sig := make(chan os.Signal, 1)
	var out bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- serve(d, ln, sig, &out, func() string { return "artifact cache: summary" })
	}()
	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after a signal: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after the signal")
	}
	if s := out.String(); !strings.Contains(s, "shutting down") || !strings.Contains(s, "drained in") ||
		!strings.Contains(s, "artifact cache: summary") {
		t.Fatalf("serve returned before the drain summary; output %q", s)
	}
	// Close has finished: the daemon refuses to serve again.
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Serve(ln2); err == nil {
		t.Fatal("the daemon still serves after serve returned")
	}
}
