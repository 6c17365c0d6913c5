package bench

import (
	"fmt"
	"sort"
	"time"

	"databreak/internal/machine"
	"databreak/internal/workload"
)

// HostPerfRow is one engine's host-time measurement of the same unit of work
// BenchmarkRunWorkload times: one full eqntott compile-load-run on a fresh
// machine. NsPerOp is the MEDIAN of Runs wall times — the statistic the CI
// speedup gate reads, chosen because best-of overstates stability on shared
// runners (one lucky scheduling quantum sets the record and every later
// regeneration looks like a regression). NsPerOpMin is the best-of number
// `go test -bench` converges to, kept alongside so both views are tracked.
type HostPerfRow struct {
	Engine     string  `json:"engine"`
	NsPerOp    float64 `json:"ns_per_op"`
	NsPerOpMin float64 `json:"ns_per_op_min"`
	Runs       int     `json:"runs"`
	Cycles     int64   `json:"sim_cycles"`
	Instrs     int64   `json:"sim_instrs"`
}

// HostPerf runs the BenchmarkRunWorkload workload `runs` times under each
// execution engine and reports median and best-of wall time per run. Rounds
// are INTERLEAVED — every round times each engine once, in order — so slow
// host drift (thermal throttling, a noisy neighbor arriving mid-measurement)
// lands on all engines roughly equally instead of biasing whichever engine
// happened to run last. It doubles as a cheap cross-engine differential
// check: simulated cycles and instructions must be identical for every
// engine, and any divergence is an error, not a number in a report.
func HostPerf(cfg Config, runs int) ([]HostPerfRow, error) {
	if runs <= 0 {
		runs = 5
	}
	p, ok := workload.ByName("eqntott", 1)
	if !ok {
		return nil, fmt.Errorf("hostperf: workload eqntott missing")
	}
	u, err := Compile(p)
	if err != nil {
		return nil, err
	}
	prog, err := cfg.baselineProgram(p.Source, u)
	if err != nil {
		return nil, err
	}

	engines := []machine.Engine{machine.EngineStep, machine.EngineBlock, machine.EngineClosure}
	rows := make([]HostPerfRow, len(engines))
	times := make([][]time.Duration, len(engines))
	for i, e := range engines {
		rows[i] = HostPerfRow{Engine: e.String(), Runs: runs}
		times[i] = make([]time.Duration, 0, runs)
	}
	for r := 0; r < runs; r++ {
		for i, e := range engines {
			// Time New+LoadShared+Run, the exact per-iteration work of
			// BenchmarkRunWorkload and of every cached-artifact run in the
			// benchmark matrix, so the numbers are comparable to both.
			start := time.Now()
			m := machine.New(cfg.Cache, cfg.Costs)
			m.SetEngine(e)
			prog.LoadShared(m)
			if _, err := m.Run(); err != nil {
				return nil, fmt.Errorf("hostperf %s: %w", e, err)
			}
			times[i] = append(times[i], time.Since(start))
			if r == 0 {
				rows[i].Cycles, rows[i].Instrs = m.Cycles(), m.Instrs()
			} else if m.Cycles() != rows[i].Cycles || m.Instrs() != rows[i].Instrs {
				return nil, fmt.Errorf("hostperf %s: round %d cycles/instrs %d/%d, want %d/%d",
					e, r, m.Cycles(), m.Instrs(), rows[i].Cycles, rows[i].Instrs)
			}
		}
	}
	for i := range rows {
		ds := times[i]
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		med := ds[len(ds)/2]
		if len(ds)%2 == 0 {
			med = (ds[len(ds)/2-1] + ds[len(ds)/2]) / 2
		}
		rows[i].NsPerOp = float64(med.Nanoseconds())
		rows[i].NsPerOpMin = float64(ds[0].Nanoseconds())
	}
	for _, r := range rows[1:] {
		if r.Cycles != rows[0].Cycles || r.Instrs != rows[0].Instrs {
			return nil, fmt.Errorf("hostperf: engine %s counts %d/%d diverge from %s counts %d/%d",
				r.Engine, r.Cycles, r.Instrs, rows[0].Engine, rows[0].Cycles, rows[0].Instrs)
		}
	}
	return rows, nil
}
