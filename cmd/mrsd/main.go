// Command mrsd serves the monitored region service as a network daemon:
// sessions are placed onto per-core shards of monitor.Server by consistent
// hash of the session id, watchpoint hits stream back as batched frames, and
// programs are built once per workload through a bounded artifact cache and
// shared copy-on-write across every session that attaches them.
//
// Usage:
//
//	mrsd                              serve on 127.0.0.1:7707
//	mrsd -addr :9000 -shards 8        explicit bind and shard count
//	mrsd -batch 1                     one frame per hit (benchmark baseline)
//
// Drive it with the load generator: mrsbench -mrsd <addr> -sessions N.
// SIGINT/SIGTERM shut down gracefully: listeners stop, sessions detach, and
// each shard drains its hit queue before exit.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"databreak/internal/bench"
	"databreak/internal/machine"
	"databreak/internal/mrsnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7707", "TCP listen address")
	shards := flag.Int("shards", 0, "per-core monitor.Server shards (0 = one per CPU)")
	queue := flag.Int("queue", 0, "per-shard hit admission queue bound (0 = default 4096)")
	maxSessions := flag.Int("max-sessions", 0, "session cap per shard (0 = unlimited)")
	batch := flag.Int("batch", 0, "default hit-coalescing batch size (0 = 64; 1 = one frame per hit)")
	flush := flag.Duration("flush", 0, "hit batch flush deadline (0 = 500µs)")
	reconcile := flag.Duration("reconcile-timeout", 0, "bound on draining a run's hits to the client before the run response (0 = 5s)")
	engine := flag.String("engine", "closure", "execution engine: step, block, or closure (counts are engine-independent)")
	cacheCap := flag.Int64("artifact-cache-cap", 128<<20, "artifact cache size bound in bytes (0 = unbounded)")
	verbose := flag.Bool("v", false, "log session lifecycle events")
	flag.Parse()

	cfg := bench.DefaultConfig()
	eng, err := machine.ParseEngine(*engine)
	if err != nil {
		return err
	}
	cfg.Engine = eng
	cfg.Artifacts = bench.NewArtifactCache()
	cfg.Artifacts.SetCapBytes(*cacheCap)

	opts := mrsnet.Options{
		Shards:              *shards,
		QueueCap:            *queue,
		MaxSessionsPerShard: *maxSessions,
		Batch:               *batch,
		Flush:               *flush,
		ReconcileTimeout:    *reconcile,
		Programs:            cfg.ProgramSource(),
		NewMachine:          cfg.MachineFactory(),
	}
	if *verbose {
		opts.Log = os.Stderr
	}
	d, err := mrsnet.NewDaemon(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "mrsd: serving on %s (%d shards, engine %s)\n", *addr, d.Shards(), eng)
	return serve(d, ln, sig, os.Stderr, func() string {
		st := cfg.Artifacts.Stats()
		return fmt.Sprintf("artifact cache: %d entries, %d bytes (%d in compiled closures), %d evictions",
			st.Entries, st.Bytes, st.TraceBytes, st.Evictions)
	})
}

// serve runs d on ln until a signal arrives on sig or accepting fails. On a
// signal it shuts down gracefully — listeners stop, sessions detach, and
// each shard drains its hit queue — and returns only once Close has
// finished and the drain summary (summary's line) is written to w.
func serve(d *mrsnet.Daemon, ln net.Listener, sig <-chan os.Signal, w io.Writer, summary func() string) error {
	served := make(chan error, 1)
	go func() { served <- d.Serve(ln) }()
	select {
	case err := <-served:
		d.Close()
		return err
	case s := <-sig:
		fmt.Fprintf(w, "mrsd: %v: shutting down (%d sessions served)\n", s, d.Attached())
		start := time.Now()
		d.Close()
		<-served
		fmt.Fprintf(w, "mrsd: drained in %v; %s\n", time.Since(start), summary())
		return nil
	}
}
