// Command mrsbench regenerates the paper's tables and figures on the
// simulated machine. See EXPERIMENTS.md for the mapping to the paper.
//
// Usage:
//
//	mrsbench -table 1          Table 1 (write check implementations)
//	mrsbench -table 2          Table 2 (write check elimination)
//	mrsbench -table fig3       Figure 3 (segment cache locality)
//	mrsbench -table strategies §1 strategy comparison
//	mrsbench -table breakeven  §3.3.3 break-even analysis
//	mrsbench -table kinds      region kinds (load/transition watchpoints)
//	mrsbench -table all        everything
//	mrsbench -stress N         N concurrent monitored sessions with mid-run
//	                           region churn, differentially checked against
//	                           serial runs (1 = one session per workload)
//	mrsbench -mrsd self        drive an in-process mrsd daemon with the load
//	                           generator (-sessions N concurrent sessions);
//	                           any other value is a running daemon's TCP
//	                           address. Emits sessions/sec, hits/sec, and
//	                           p50/p99 attach-to-first-hit latency; with
//	                           -json, writes BENCH_mrsd.json.
//
// The benchmark matrix runs on a worker pool (-workers, default one per
// CPU); table contents are identical for any worker count. -json also
// writes each table as BENCH_<table>.json with wall-clock timing.
//
// -cpuprofile and -memprofile write pprof profiles of the harness itself
// (inspect with go tool pprof); they profile the host-side interpreter, not
// the simulated machine, and do not perturb any simulated count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"databreak/internal/bench"
	"databreak/internal/machine"
	"databreak/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	table := flag.String("table", "all", "which table to regenerate: 1, 2, fig3, strategies, breakeven, ablation, kinds, all")
	engine := flag.String("engine", "closure", "execution engine for every run: step or closure (counts are engine-independent)")
	scale := flag.Int("scale", 1, "workload scale factor")
	only := flag.String("program", "", "run a single benchmark by name")
	workers := flag.Int("workers", 0, "benchmark cells run concurrently (0 = one per CPU)")
	jsonOut := flag.Bool("json", false, "also write each table as BENCH_<table>.json")
	stress := flag.Int("stress", 0, "run the concurrency stress harness with this many sessions instead of tables (1 = one per workload)")
	churn := flag.Int("churn", 0, "stress: mid-run region add/remove rounds per session (0 = default)")
	patchChurn := flag.Bool("patch-churn", true, "stress: odd sessions also patch live text mid-run (copy-on-write exercise)")
	artifactCache := flag.Bool("artifact-cache", true, "memoize compiled+patched+assembled programs across tables and repeats (results are byte-identical either way)")
	artifactCacheCap := flag.Int64("artifact-cache-cap", 0, "artifact cache size bound in bytes, enforced by LRU eviction (0 = unbounded)")
	mrsd := flag.String("mrsd", "", "drive an mrsd daemon with the load generator: a TCP address, or 'self' for in-process")
	sessions := flag.Int("sessions", 0, "mrsd: concurrent sessions in the scale phase (0 = one per workload)")
	hitSessions := flag.Int("hit-sessions", 0, "mrsd: sessions in the hit/latency phase (0 = two per workload, -1 = skip)")
	batch := flag.Int("batch", 0, "mrsd: hit-coalescing batch size for the main pass (0 = daemon default)")
	traceStats := flag.Bool("trace-stats", false, "report fusion coverage of each program's baseline and Nops32 builds (dynamic pair/triple frequencies, fused and nop-run retirement shares, items per retired instruction) instead of tables")
	verbose := flag.Bool("v", false, "progress output")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the harness to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile of the harness to this file on exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		// Deferred so the profile is written even when a table fails
		// partway; runs before StopCPUProfile's deferral is irrelevant
		// since the two profiles are independent.
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			defer f.Close()
			runtime.GC() // get up-to-date allocation statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	cfg := bench.DefaultConfig()
	eng, err := machine.ParseEngine(*engine)
	if err != nil {
		return err
	}
	cfg.Engine = eng
	cfg.Scale = *scale
	cfg.Workers = *workers
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if *verbose {
		cfg.Log = os.Stderr
	}
	if *artifactCache {
		cfg.Artifacts = bench.NewArtifactCache()
		cfg.Artifacts.SetCapBytes(*artifactCacheCap)
	}
	// cacheStats prints the final artifact-cache tally and, with -json,
	// writes it as BENCH_cachestats.json for CI to archive — the one
	// canonical copy of these stats (per-table reports don't repeat them).
	cacheStats := func() error {
		if cfg.Artifacts == nil {
			return nil
		}
		st := cfg.Artifacts.Stats()
		fmt.Fprintf(os.Stderr, "artifact cache: %d entries (%d hits, %d misses), %d runs (%d hits, %d misses), %d bytes retained\n",
			st.Entries, st.Hits, st.Misses, st.Runs, st.RunHits, st.RunMisses, st.Bytes)
		if !*jsonOut {
			return nil
		}
		data, err := json.MarshalIndent(st, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile("BENCH_cachestats.json", append(data, '\n'), 0o644)
	}
	programs := workload.All(*scale)
	if *only != "" {
		p, ok := workload.ByName(*only, *scale)
		if !ok {
			return fmt.Errorf("unknown program %q", *only)
		}
		programs = []workload.Program{p}
	}

	if *mrsd != "" {
		addr := *mrsd
		if addr == "self" {
			addr = ""
		}
		start := time.Now()
		rep, err := cfg.MrsdLoad(bench.MrsdOptions{
			Addr:           addr,
			Sessions:       *sessions,
			Batch:          *batch,
			Churn:          *churn,
			PatchChurn:     *patchChurn,
			HitSessions:    *hitSessions,
			PerHitBaseline: true,
		})
		if err != nil {
			return err
		}
		wall := time.Since(start)
		where := addr
		if where == "" {
			where = "in-process pipe"
		}
		fmt.Printf("mrsd load (%s, %d shards, %d conns): all sessions byte-identical to serial\n",
			where, rep.Shards, rep.Conns)
		fmt.Printf("  scale: %d sessions (%d churn, %d patch) in %.0f ms = %.1f sessions/sec\n",
			rep.Sessions, rep.ChurnSessions, rep.PatchSessions, rep.ScaleWallMS, rep.SessionsPerSec)
		if rep.HitSessions > 0 {
			fmt.Printf("  hits:  %d sessions, %d hits in %.0f ms = %.0f hits/sec (batched)\n",
				rep.HitSessions, rep.Hits, rep.HitWallMS, rep.HitsPerSec)
			fmt.Printf("  attach-to-first-hit latency: p50 %.2f ms, p99 %.2f ms\n",
				rep.AttachP50MS, rep.AttachP99MS)
			if rep.BatchSpeedup > 0 {
				fmt.Printf("  per-hit baseline: %.0f hits/sec → batching speedup %.2fx\n",
					rep.PerHitHitsPerSec, rep.BatchSpeedup)
			}
		}
		if *jsonOut {
			if err := bench.NewReport("mrsd", cfg, wall, rep).WriteFile("BENCH_mrsd.json"); err != nil {
				return err
			}
		}
		return cacheStats()
	}

	if *stress > 0 {
		start := time.Now()
		rep, err := cfg.Stress(bench.StressConfig{Sessions: *stress, Churn: *churn, PatchChurn: *patchChurn})
		if err != nil {
			return err
		}
		wall := time.Since(start)
		fmt.Printf("stress: %d concurrent sessions, %d fan-in hits, all counts bit-identical to serial (%.0f ms)\n",
			len(rep.Sessions), rep.Hits, float64(wall.Microseconds())/1000)
		for _, s := range rep.Sessions {
			tag := ""
			if s.Patched {
				tag = "  (patched live text; cycles not compared)"
			}
			fmt.Printf("  session %2d  %-10s  cycles=%d instrs=%d%s\n", s.Session, s.Program, s.Cycles, s.Instrs, tag)
		}
		if *jsonOut {
			if err := bench.NewReport("stress", cfg, wall, rep.Sessions).WriteFile("BENCH_stress.json"); err != nil {
				return err
			}
		}
		return cacheStats()
	}

	if *traceStats {
		start := time.Now()
		rows, err := bench.TraceStats(cfg, programs)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		fmt.Println("Fusion coverage: dispatch items per retired instruction under the shared trace builder")
		fmt.Print(bench.FormatTraceStats(rows))
		if *jsonOut {
			if err := bench.NewReport("tracestats", cfg, wall, rows).WriteFile("BENCH_tracestats.json"); err != nil {
				return err
			}
		}
		return cacheStats()
	}

	// report writes BENCH_<name>.json when -json is set; text output to
	// stdout is identical with and without it.
	report := func(name string, wall time.Duration, rows any) error {
		if !*jsonOut {
			return nil
		}
		path := "BENCH_" + name + ".json"
		if err := bench.NewReport(name, cfg, wall, rows).WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%.0f ms, %d workers)\n",
			path, float64(wall.Microseconds())/1000, cfg.Workers)
		return nil
	}

	runT1 := func() error {
		start := time.Now()
		rows, err := bench.Table1(cfg, programs)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		fmt.Println("Table 1: monitored region service overhead by write check implementation")
		fmt.Print(bench.FormatTable1(rows))
		fmt.Println()
		return report("table1", wall, bench.Table1JSON(rows))
	}
	runT2 := func() error {
		start := time.Now()
		rows, err := bench.Table2(cfg, programs)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		fmt.Println("Table 2: write check elimination")
		fmt.Print(bench.FormatTable2(rows))
		fmt.Println()
		return report("table2", wall, bench.Table2JSON(rows))
	}
	runF3 := func() error {
		start := time.Now()
		series, err := bench.Figure3(cfg, programs)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		fmt.Println("Figure 3: segment cache locality vs segment size (hit rate)")
		fmt.Print(bench.FormatFigure3(series, programs))
		fmt.Println()
		return report("fig3", wall, bench.Figure3JSON(series, programs))
	}
	runStrat := func() error {
		start := time.Now()
		rows, err := bench.StrategyTable(cfg, programs)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		fmt.Println("Strategy comparison (paper §1)")
		fmt.Print(bench.FormatStrategyTable(rows))
		fmt.Println()
		return report("strategies", wall, rows)
	}
	runBE := func() error {
		start := time.Now()
		fmt.Println("Break-even analysis (paper §3.3.3)")
		fmt.Print(bench.FormatBreakEven())
		fmt.Println()
		return report("breakeven", time.Since(start), bench.BreakEvenRows())
	}
	runAbl := func() error {
		start := time.Now()
		rows, err := bench.Ablation(cfg, programs)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		fmt.Println("Ablations: read monitoring (§5) and the segment-flag bit")
		fmt.Print(bench.FormatAblation(rows))
		fmt.Println()
		return report("ablation", wall, rows)
	}
	runKinds := func() error {
		start := time.Now()
		rows, err := bench.Kinds(cfg, programs)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		fmt.Println("Region kinds: load and transition watchpoint overhead vs store-only")
		fmt.Print(bench.FormatKinds(rows))
		fmt.Println()
		return report("kinds", wall, rows)
	}

	runTables := func() error {
		switch *table {
		case "1":
			return runT1()
		case "2":
			return runT2()
		case "fig3":
			return runF3()
		case "strategies":
			return runStrat()
		case "breakeven":
			return runBE()
		case "ablation":
			return runAbl()
		case "kinds":
			return runKinds()
		case "all":
			for _, f := range []func() error{runT1, runT2, runF3, runStrat, runBE, runAbl, runKinds} {
				if err := f(); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("unknown table %q", *table)
		}
	}
	if err := runTables(); err != nil {
		return err
	}
	// BENCH_hostperf.json tracks host throughput per engine (the same unit
	// of work as BenchmarkRunWorkload), not just table wall time; HostPerf
	// also cross-checks that every engine produces identical counts.
	if *jsonOut {
		start := time.Now()
		rows, err := bench.HostPerf(cfg, 9)
		if err != nil {
			return err
		}
		if err := report("hostperf", time.Since(start), rows); err != nil {
			return err
		}
	}
	return cacheStats()
}
