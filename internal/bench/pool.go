package bench

import (
	"io"
	"runtime"
	"sync"

	"databreak/internal/asm"
	"databreak/internal/workload"
)

// This file is the parallel execution engine for the benchmark matrix. The
// paper's evaluation is a grid of independent (program, variant) simulator
// runs; every table driver enumerates its cells, fans them out over
// Config.Workers goroutines, and collects results in deterministic input
// order, so the rendered tables are byte-identical to a serial run.

// syncWriter serializes a progress log shared by concurrent workers.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// SyncWriter wraps w so that concurrent workers may share it. A nil writer
// and an already-wrapped writer pass through unchanged.
func SyncWriter(w io.Writer) io.Writer {
	if w == nil {
		return nil
	}
	if _, ok := w.(*syncWriter); ok {
		return w
	}
	return &syncWriter{w: w}
}

// normalized returns a copy of c with Workers defaulted to the host
// parallelism and Log made goroutine-safe. Every table driver calls it on
// entry, so callers may pass a plain Config.
func (c Config) normalized() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	c.Log = SyncWriter(c.Log)
	return c
}

// parallelMap runs fn(0..n-1) over cfg.Workers goroutines and returns the
// results indexed by input position. After the first error no new cells are
// issued; in-flight cells finish and the lowest-index error is returned, so
// the reported failure does not depend on goroutine scheduling.
func parallelMap[T any](cfg Config, n int, fn func(int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	errs := make([]error, n)
	idxc := make(chan int)
	done := make(chan struct{})
	var once sync.Once
	cancel := func() { once.Do(func() { close(done) }) }
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxc {
				v, err := fn(i)
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				out[i] = v
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idxc <- i:
		case <-done:
			break feed
		}
	}
	close(idxc)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// prepped is a workload ready for the variant cells: compiled once, with its
// baseline run (the denominator of every overhead column) measured once. The
// unit may come from the shared artifact cache and is read-only.
type prepped struct {
	prog workload.Program
	unit *asm.Unit
	base Run
}

// prepare compiles every program and, when needBase is set, measures its
// baseline, in parallel. what tags progress lines.
func (c Config) prepare(programs []workload.Program, what string, needBase bool) ([]prepped, error) {
	return parallelMap(c, len(programs), func(i int) (prepped, error) {
		p := programs[i]
		c.logf("%s: %s", what, p.Name)
		u, err := c.unitFor(p)
		if err != nil {
			return prepped{}, err
		}
		pr := prepped{prog: p, unit: u}
		if needBase {
			if pr.base, err = c.runBaseline(p.Source, u); err != nil {
				return prepped{}, err
			}
		}
		return pr, nil
	})
}

// matrix fans fn over every (program, variant) cell — the benchmark grid —
// and returns results as rows[program][variant]. Cells are independent:
// each builds new units from the read-only prepped one, so any
// interleaving produces the same grid.
func matrix[T any](cfg Config, preps []prepped, nVar int, fn func(p prepped, v int) (T, error)) ([][]T, error) {
	flat, err := parallelMap(cfg, len(preps)*nVar, func(k int) (T, error) {
		return fn(preps[k/nVar], k%nVar)
	})
	if err != nil {
		return nil, err
	}
	rows := make([][]T, len(preps))
	for i := range rows {
		rows[i] = flat[i*nVar : (i+1)*nVar]
	}
	return rows, nil
}
