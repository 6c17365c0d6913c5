package bench

import (
	"fmt"
	"strings"

	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// The kinds table monitors HitRegion (see mrsd.go) — the one stack word
// every workload's entry frame writes. Unlike FarRegion it produces hits, so
// the table can compare delivered hit counts across region kinds, not just
// check overhead.

// KindsRow quantifies the region-kind extension on one program — the
// overhead table row for load and transition watchpoints against the
// paper's store-only baseline:
//
//   - StoreOnly: write checks, a store-kind region on HitRegion.
//   - LoadWatch: read+write checks (§5), a load-kind region on HitRegion —
//     what arming a read watchpoint costs.
//   - Transition: write checks, a transition (value-change) region on
//     HitRegion. Transition filtering happens debugger-side at delivery, so
//     its simulated overhead equals StoreOnly by construction; the row pins
//     that claim, and the hit columns show the suppression.
//
// Overheads are percent over the unmonitored baseline; the hit columns are
// delivered hit counts.
type KindsRow struct {
	Name       string
	StoreOnly  float64
	LoadWatch  float64
	Transition float64
	StoreHits  int64
	LoadHits   int64
	TransHits  int64
}

// kindsVariant describes one cell of the kinds table.
type kindsVariant struct {
	key   string
	popts patch.Options
	setup func(svc *monitor.Service) error
}

func kindsVariants() []kindsVariant {
	store := patch.Options{Strategy: patch.BitmapInlineRegisters}
	readwrite := patch.Options{Strategy: patch.BitmapInlineRegisters, CheckReads: true}
	return []kindsVariant{
		{
			key:   "kind=store",
			popts: store,
			setup: func(svc *monitor.Service) error {
				return svc.CreateRegionKind(HitRegion, 4, monitor.KindStore)
			},
		},
		{
			key:   "kind=load",
			popts: readwrite,
			setup: func(svc *monitor.Service) error {
				return svc.CreateRegionKind(HitRegion, 4, monitor.KindLoad)
			},
		},
		{
			key:   "kind=transition",
			popts: store,
			setup: func(svc *monitor.Service) error {
				return svc.CreateTransitionRegion(HitRegion, 4,
					monitor.Predicate{Kind: monitor.PredChanged})
			},
		},
	}
}

// runKinds executes one kinds-table cell: patch with v.popts, install
// FarRegion (keeps checks enabled without extra hits) plus the variant's
// region on HitRegion, run, and collect cycles and delivered hits.
func (c Config) runKinds(src string, p prepped, v kindsVariant) (Run, error) {
	mcfg := monitor.DefaultConfig
	desc := descPatch(v.popts) + "|exec|" + descMonitor(mcfg) + "|" + v.key
	return c.memoRun(src, desc, func() (Run, error) {
		prog, err := c.patchedProgram(src, p.unit, v.popts)
		if err != nil {
			return Run{}, err
		}
		m := c.newMachine()
		prog.LoadShared(m)
		svc, err := monitor.NewService(mcfg, m)
		if err != nil {
			return Run{}, err
		}
		if err := svc.CreateRegion(FarRegion, 4); err != nil {
			return Run{}, err
		}
		if err := v.setup(svc); err != nil {
			return Run{}, err
		}
		svc.Reinstall()
		if _, err := m.Run(); err != nil {
			return Run{}, err
		}
		run := collect(prog, m)
		run.Hits = svc.HitCount
		return run, nil
	})
}

// Kinds measures the region-kind overhead table. Cells run on the worker
// pool; rows come back in input order.
func Kinds(cfg Config, programs []workload.Program) ([]KindsRow, error) {
	cfg = cfg.normalized()
	preps, err := cfg.prepare(programs, "kinds", true)
	if err != nil {
		return nil, err
	}
	variants := kindsVariants()
	type cell struct {
		pct  float64
		hits int64
	}
	grid, err := matrix(cfg, preps, len(variants), func(p prepped, v int) (cell, error) {
		cfg.logf("kinds: %s/%s", p.prog.Name, variants[v].key)
		r, err := cfg.runKinds(p.prog.Source, p, variants[v])
		if err != nil {
			return cell{}, err
		}
		if err := checkOutput(p.prog, p.base.Output, r.Output, "kinds"); err != nil {
			return cell{}, err
		}
		return cell{pct: overheadPct(p.base.Cycles, r.Cycles), hits: r.Hits}, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]KindsRow, len(preps))
	for i, p := range preps {
		rows[i] = KindsRow{
			Name:       p.prog.Name,
			StoreOnly:  grid[i][0].pct,
			LoadWatch:  grid[i][1].pct,
			Transition: grid[i][2].pct,
			StoreHits:  grid[i][0].hits,
			LoadHits:   grid[i][1].hits,
			TransHits:  grid[i][2].hits,
		}
	}
	return rows, nil
}

// FormatKinds renders the rows.
func FormatKinds(rows []KindsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %9s %10s | %9s %9s %9s\n",
		"Program", "StoreOnly", "LoadWatch", "Transition", "StHits", "LdHits", "TrHits")
	var so, lw, tr float64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %8.1f%% %8.1f%% %9.1f%% | %9d %9d %9d\n",
			r.Name, r.StoreOnly, r.LoadWatch, r.Transition,
			r.StoreHits, r.LoadHits, r.TransHits)
		so += r.StoreOnly
		lw += r.LoadWatch
		tr += r.Transition
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(&b, "%-12s %8.1f%% %8.1f%% %9.1f%% |\n",
			"AVERAGE", so/n, lw/n, tr/n)
	}
	return b.String()
}
