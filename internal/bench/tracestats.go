package bench

import (
	"fmt"
	"sort"
	"strings"

	"databreak/internal/machine"
	"databreak/internal/sparc"
	"databreak/internal/workload"
)

// SeqCount is one adjacent opcode sequence (pair or triple) with its dynamic
// frequency: Count occurrences, Pct of all adjacent sequences of that length.
type SeqCount struct {
	Seq   string  `json:"seq"`
	Count int64   `json:"count"`
	Pct   float64 `json:"pct"`
}

// TraceStatsRow reports the fusion coverage of one workload: how the trace
// builder's fusion rules (machine.FusionPlan — the compiler's own decision
// procedure, not a reimplementation) tile the dynamic instruction stream.
//
// Instrs counts retired instructions; Items the dispatch items the closure
// tier would retire for them; Fused2/Fused3 the instructions retired
// inside two- and three-wide items. ItemsPerInstr = Items/Instrs is the
// dispatch density the closure tier's hot loop actually pays; FusedPct =
// (Fused2+Fused3)/Instrs is the share of retirement covered by fused ops.
type TraceStatsRow struct {
	Program       string     `json:"program"`
	Instrs        int64      `json:"instrs"`
	Items         int64      `json:"items"`
	Fused2        int64      `json:"fused2_instrs"`
	Fused3        int64      `json:"fused3_instrs"`
	FusedPct      float64    `json:"fused_pct"`
	ItemsPerInstr float64    `json:"items_per_instr"`
	TopPairs      []SeqCount `json:"top_pairs"`
	TopTriples    []SeqCount `json:"top_triples"`
}

// traceStatsTop bounds the pair/triple frequency lists per row.
const traceStatsTop = 12

// TraceStats drives each workload's baseline program under the Step engine,
// records the dynamic opcode stream, and reduces it to fusion-coverage rows.
// Adjacency is dynamic: two retirements are adjacent when the second's pc is
// the first's +1, i.e. exactly the straight-line runs the trace builder sees
// (a taken branch or any other transfer breaks the run). Coverage applies
// machine.FusionPlan to each run, so the numbers are what the current
// compiler achieves — rerun after a fusion change to attribute the win.
func TraceStats(cfg Config, programs []workload.Program) ([]TraceStatsRow, error) {
	rows := make([]TraceStatsRow, 0, len(programs))
	for _, p := range programs {
		u, err := cfg.unitFor(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		prog, err := cfg.baselineProgram(p.Source, u)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
		stepCfg := cfg
		stepCfg.Engine = machine.EngineStep
		m := stepCfg.newMachine()
		prog.LoadShared(m)

		var (
			row     = TraceStatsRow{Program: p.Name}
			pairs   = make(map[[2]sparc.Op]int64)
			triples = make(map[[3]sparc.Op]int64)
			run     []sparc.Instr
			prevPC  = int32(-2)
		)
		flush := func() {
			if len(run) == 0 {
				return
			}
			for _, w := range machine.FusionPlan(run) {
				row.Items++
				switch w {
				case 2:
					row.Fused2 += 2
				case 3:
					row.Fused3 += 3
				}
			}
			run = run[:0]
		}
		for !m.Halted() {
			pc := m.PC()
			in, ok := m.InstrAt(pc)
			if !ok {
				break
			}
			if pc != prevPC+1 {
				flush()
			}
			if n := len(run); n > 0 {
				pairs[[2]sparc.Op{run[n-1].Op, in.Op}]++
				if n > 1 {
					triples[[3]sparc.Op{run[n-2].Op, run[n-1].Op, in.Op}]++
				}
			}
			run = append(run, in)
			row.Instrs++
			prevPC = pc
			if err := m.Step(); err != nil {
				return nil, fmt.Errorf("%s: step at pc=%d: %w", p.Name, pc, err)
			}
		}
		flush()

		if row.Instrs > 0 {
			row.FusedPct = 100 * float64(row.Fused2+row.Fused3) / float64(row.Instrs)
			row.ItemsPerInstr = float64(row.Items) / float64(row.Instrs)
		}
		row.TopPairs = topSeqs(pairs, traceStatsTop)
		row.TopTriples = topSeqs(triples, traceStatsTop)
		rows = append(rows, row)
	}
	return rows, nil
}

// topSeqs reduces a sequence-frequency map to its top n entries, ties broken
// by sequence text so the output is deterministic.
func topSeqs[K interface{ ~[2]sparc.Op | ~[3]sparc.Op }](m map[K]int64, n int) []SeqCount {
	var total int64
	out := make([]SeqCount, 0, len(m))
	for k, c := range m {
		total += c
		var parts []string
		switch k := any(k).(type) {
		case [2]sparc.Op:
			parts = []string{k[0].String(), k[1].String()}
		case [3]sparc.Op:
			parts = []string{k[0].String(), k[1].String(), k[2].String()}
		}
		out = append(out, SeqCount{Seq: strings.Join(parts, "+"), Count: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Seq < out[j].Seq
	})
	if len(out) > n {
		out = out[:n]
	}
	for i := range out {
		out[i].Pct = 100 * float64(out[i].Count) / float64(total)
	}
	return out
}

// FormatTraceStats renders the rows as the aligned text table mrsbench
// prints for -trace-stats.
func FormatTraceStats(rows []TraceStatsRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s %9s %9s %8s %10s\n",
		"program", "instrs", "items", "fused2", "fused3", "fused%", "items/in")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %12d %12d %9d %9d %7.1f%% %10.3f\n",
			r.Program, r.Instrs, r.Items, r.Fused2, r.Fused3,
			r.FusedPct, r.ItemsPerInstr)
	}
	b.WriteString("\ntop adjacent sequences (dynamic, straight-line):\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s pairs:", r.Program)
		for _, s := range r.TopPairs {
			fmt.Fprintf(&b, " %s %.1f%%", s.Seq, s.Pct)
		}
		fmt.Fprintf(&b, "\n%s triples:", r.Program)
		for _, s := range r.TopTriples {
			fmt.Fprintf(&b, " %s %.1f%%", s.Seq, s.Pct)
		}
		b.WriteString("\n")
	}
	return b.String()
}
