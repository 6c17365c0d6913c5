package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"

	"databreak/internal/bench"
	"databreak/internal/cache"
	"databreak/internal/machine"
	"databreak/internal/monitor"
	"databreak/internal/patch"
)

// outcome is one operation's simulated result as the benchmark observed it.
type outcome struct {
	cycles, instrs int64
	output         string // digest
	cache          cache.Stats
	hasCache       bool
	hits           int64
	runNS          int64 // host time of the run call, where the benchmark made it
}

// digest is the reference form of a program's output.
func digest(out string) string {
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:16])
}

// resultRef is the expected simulated result of one table cell or one
// session program.
type resultRef struct {
	Cycles int64  `json:"cycles"`
	Instrs int64  `json:"instrs"`
	Output string `json:"output"`
	Hits   int64  `json:"hits"`
	// Cache statistics, per access kind; table cells only.
	CacheAccesses []uint64 `json:"cache_accesses,omitempty"`
	CacheMisses   []uint64 `json:"cache_misses,omitempty"`
}

// reference is the committed gate: expected results made with the step
// engine, the reference semantics every other engine must reproduce.
type reference struct {
	Engine   string               `json:"engine"`
	Cells    map[string]resultRef `json:"cells"`
	Sessions map[string]resultRef `json:"sessions"`
}

// check compares got with the reference. Cycles are compared only when
// withCycles is set: requests sent into a running session invalidate
// simulated cache lines, so such a session's cycle count is its own.
func (r resultRef) check(got outcome, withCycles bool) error {
	switch {
	case r.Instrs == 0 && r.Output == "":
		return fmt.Errorf("no reference result")
	case withCycles && got.cycles != r.Cycles:
		return fmt.Errorf("cycles %d, reference %d", got.cycles, r.Cycles)
	case got.instrs != r.Instrs:
		return fmt.Errorf("instructions %d, reference %d", got.instrs, r.Instrs)
	case got.output != r.Output:
		return fmt.Errorf("output digest %s, reference %s", got.output, r.Output)
	case got.hits != r.Hits:
		return fmt.Errorf("hit total %d, reference %d", got.hits, r.Hits)
	}
	if got.hasCache {
		if !slices.Equal(got.cache.Accesses[:], r.CacheAccesses) || !slices.Equal(got.cache.Misses[:], r.CacheMisses) {
			return fmt.Errorf("cache stats %v/%v, reference %v/%v",
				got.cache.Accesses, got.cache.Misses, r.CacheAccesses, r.CacheMisses)
		}
	}
	return nil
}

func loadReference(path string) (*reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var ref reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("reference %s: %w", path, err)
	}
	return &ref, nil
}

// genReference makes the reference with the step engine: every table cell
// as the tables workload runs it, and every session program as an
// in-process run watching bench.HitRegion.
func genReference(path string) error {
	cfg := bench.DefaultConfig()
	cfg.Engine = machine.EngineStep
	newMachine := cfg.MachineFactory()
	workers := runtime.GOMAXPROCS(0)
	ref := reference{Engine: machine.EngineStep.String(), Cells: map[string]resultRef{}, Sessions: map[string]resultRef{}}

	cells, _, err := tablesSetup(nil, 0, workers, newMachine)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	err = parallelErr(len(cells), workers, func(i int) error {
		got, err := runCell(span{}, cells[i], newMachine)
		if err != nil {
			return fmt.Errorf("cell %s: %w", cells[i].id, err)
		}
		mu.Lock()
		ref.Cells[cells[i].id] = resultRef{
			Cycles: got.cycles, Instrs: got.instrs, Output: got.output, Hits: got.hits,
			CacheAccesses: got.cache.Accesses[:], CacheMisses: got.cache.Misses[:],
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}

	names := append(append([]string(nil), hitsPrograms...), churnPrograms...)
	sort.Strings(names)
	err = parallelErr(len(names), workers, func(i int) error {
		got, err := hitRegionRun(names[i], cfg)
		if err != nil {
			return fmt.Errorf("session program %s: %w", names[i], err)
		}
		mu.Lock()
		ref.Sessions[names[i]] = resultRef{Cycles: got.cycles, Instrs: got.instrs, Output: got.output, Hits: got.hits}
		mu.Unlock()
		return nil
	})
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hitRegionRun runs one program the way an mrsd session of the hits and
// churn workloads does — the program the daemon's source builds
// (BitmapInlineRegisters), the default monitor config, bench.HitRegion
// watched — but in-process on a machine from cfg.
func hitRegionRun(name string, cfg bench.Config) (outcome, error) {
	bin, err := cfg.ProgramSource()(name, 1, patch.BitmapInlineRegisters)
	if err != nil {
		return outcome{}, err
	}
	m := cfg.MachineFactory()()
	bin.LoadShared(m)
	svc, err := monitor.NewService(monitor.DefaultConfig, m)
	if err != nil {
		return outcome{}, err
	}
	if err := svc.CreateRegion(bench.HitRegion, bench.HitRegionSize); err != nil {
		return outcome{}, err
	}
	svc.Reinstall()
	if _, err := m.Run(); err != nil {
		return outcome{}, err
	}
	return outcome{cycles: m.Cycles(), instrs: m.Instrs(), output: digest(m.Output()), hits: svc.HitCount}, nil
}
