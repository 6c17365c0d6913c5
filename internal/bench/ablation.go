package bench

import (
	"fmt"
	"strings"

	"databreak/internal/asm"
	"databreak/internal/monitor"
	"databreak/internal/patch"
	"databreak/internal/workload"
)

// AblationRow isolates individual design choices on one program:
//
//   - ReadWrite vs WriteOnly: the §5 extension (access anomaly detection
//     requires monitoring reads, which outnumber writes 2-3x).
//   - FlagsOn vs FlagsOff: the cost, for the plain reserved-register check,
//     of keeping the monitored flag in the segment-table entry's low bit
//     (one extra mask instruction per check) — the price paid to make
//     segment caching possible at all.
type AblationRow struct {
	Name      string
	WriteOnly float64 // BitmapInlineRegisters, writes only
	ReadWrite float64 // BitmapInlineRegisters, reads + writes
	FlagsOff  float64 // same as WriteOnly (clean pointers)
	FlagsOn   float64 // flag bit in the entry: checks must mask it
}

func (c Config) runPatched(src string, u *asm.Unit, popts patch.Options, disabled bool) (Run, error) {
	effCfg := popts.Monitor
	if effCfg.SegWords == 0 {
		effCfg = monitor.DefaultConfig
	}
	if popts.Strategy == patch.Cache || popts.Strategy == patch.CacheInline {
		effCfg.Flags = true
	}
	var regions [][2]uint32
	if !disabled {
		regions = [][2]uint32{{FarRegion, 4}}
	}
	// Keyed identically to runStrategy: ablation variant 0 and Table 1's
	// BmInlReg cell are the same run and execute once.
	desc := descPatch(popts) + "|exec|" + descMonitor(effCfg) + "|" + descRegions(regions, disabled)
	return c.memoRun(src, desc, func() (Run, error) {
		prog, err := c.patchedProgram(src, u, popts)
		if err != nil {
			return Run{}, err
		}
		return c.execute(prog, effCfg, regions, disabled)
	})
}

// Ablation measures the design-choice deltas for each program. The three
// patch configurations of each program are independent cells on the worker
// pool.
func Ablation(cfg Config, programs []workload.Program) ([]AblationRow, error) {
	cfg = cfg.normalized()
	preps, err := cfg.prepare(programs, "ablation", true)
	if err != nil {
		return nil, err
	}
	variants := []patch.Options{
		{Strategy: patch.BitmapInlineRegisters},
		{Strategy: patch.BitmapInlineRegisters, CheckReads: true},
		{Strategy: patch.BitmapInlineRegisters,
			Monitor: monitor.Config{SegWords: monitor.DefaultConfig.SegWords, Flags: true}},
	}
	grid, err := matrix(cfg, preps, len(variants), func(p prepped, v int) (float64, error) {
		cfg.logf("ablation: %s/%d", p.prog.Name, v)
		r, err := cfg.runPatched(p.prog.Source, p.unit, variants[v], false)
		if err != nil {
			return 0, err
		}
		if err := checkOutput(p.prog, p.base.Output, r.Output, "ablation"); err != nil {
			return 0, err
		}
		return overheadPct(p.base.Cycles, r.Cycles), nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]AblationRow, len(preps))
	for i, p := range preps {
		rows[i] = AblationRow{
			Name:      p.prog.Name,
			WriteOnly: grid[i][0],
			ReadWrite: grid[i][1],
			FlagsOff:  grid[i][0],
			FlagsOn:   grid[i][2],
		}
	}
	return rows, nil
}

// FormatAblation renders the rows.
func FormatAblation(rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %10s %10s %8s | %9s %8s %8s\n",
		"Program", "WriteOnly", "Read+Write", "ratio", "FlagsOff", "FlagsOn", "delta")
	var wo, rw, fo, fn float64
	for _, r := range rows {
		ratio := 0.0
		if r.WriteOnly != 0 {
			ratio = r.ReadWrite / r.WriteOnly
		}
		fmt.Fprintf(&b, "%-12s %9.1f%% %9.1f%% %7.2fx | %8.1f%% %7.1f%% %+7.1f%%\n",
			r.Name, r.WriteOnly, r.ReadWrite, ratio, r.FlagsOff, r.FlagsOn, r.FlagsOn-r.FlagsOff)
		wo += r.WriteOnly
		rw += r.ReadWrite
		fo += r.FlagsOff
		fn += r.FlagsOn
	}
	if n := float64(len(rows)); n > 0 {
		fmt.Fprintf(&b, "%-12s %9.1f%% %9.1f%% %7.2fx | %8.1f%% %7.1f%% %+7.1f%%\n",
			"AVERAGE", wo/n, rw/n, (rw/n)/(wo/n), fo/n, fn/n, (fn-fo)/n)
	}
	return b.String()
}
