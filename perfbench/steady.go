package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runResult is the JSON line a run prints last.
type runResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	// all holds every end_to_end line the run printed, including the
	// workload's metrics that BENCHMARK.json does not gate.
	all map[string]float64
}

// steady is the steadiness check. For each workload it runs two sets of
// untraced runs, interleaved (A B, B A, A B, ...), every run with its own
// seed, and prints per end-to-end metric each set's median and quartiles,
// the spread (interquartile range over median) of each set and of all runs,
// and the difference between the set medians against the metric's bound.
// It fails when the spread of all runs (setup_s excepted), or a worsening
// between the sets, exceeds the bound.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ExitOnError)
	runs := fs.Int("runs", 10, "runs per set")
	only := fs.String("workload", "", "check only this workload (any workload, gated or not)")
	seconds := fs.Int("seconds", 0, "run length (0: run_seconds from BENCHMARK.json)")
	seed := fs.Uint64("seed", 1000, "seed of the first run; each run takes the next")
	fs.Parse(args)
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	workloads := []string{*only}
	if *only == "" {
		workloads = nil
		for _, w := range spec.Workloads {
			workloads = append(workloads, w.Name)
		}
	}
	ok := true
	next := *seed
	for _, w := range workloads {
		sets := [2][]runResult{}
		for i := 0; i < *runs; i++ {
			for _, s := range [][2]int{{0, 1}, {1, 0}}[i%2] {
				res, err := runChild(exe, w, next, *seconds)
				fmt.Fprintf(os.Stderr, "steady: %s set %c run %d seed %d: %s\n", w, 'A'+s, i, next, summary(res, err))
				next++
				if err != nil || !res.Correct {
					ok = false
					continue
				}
				sets[s] = append(sets[s], res)
			}
		}
		gated := map[string]bool{}
		for _, m := range spec.EndToEnd {
			gated[m.Name] = true
			line, good := compareSets(m, values(sets[0], m.Name), values(sets[1], m.Name))
			fmt.Printf("%-7s %s\n", w, line)
			ok = ok && good
		}
		if len(sets[0]) == 0 {
			continue
		}
		for _, name := range sortedKeys(sets[0][0].all) {
			if !gated[name] {
				line, _ := compareSets(specMetric{Name: name, Bound: math.Inf(1)}, values(sets[0], name), values(sets[1], name))
				fmt.Printf("%-7s %s (not gated)\n", w, line)
			}
		}
	}
	if !ok {
		return fmt.Errorf("steadiness check failed")
	}
	return nil
}

// compareSets formats one metric's two sets and reports whether the spread
// of all runs together (setup_s excepted) and the worsening of B against A
// stay within the bound. The per-set spreads, from five runs or so, are
// printed but too rough to judge by.
func compareSets(m specMetric, a, b []float64) (string, bool) {
	if len(a) < 2 || len(b) < 2 {
		return fmt.Sprintf("%-16s too few runs", m.Name), false
	}
	desc := func(v []float64) string {
		q1, q3 := quartiles(v)
		return fmt.Sprintf("median %.4g [%.4g, %.4g] spread %5.1f%%", median(v), q1, q3, 100*spread(v))
	}
	all := append(append([]float64(nil), a...), b...)
	diff := median(b)/median(a) - 1
	worse := diff
	if m.Better == "higher" {
		worse = -diff
	}
	good := worse <= m.Bound
	if m.Name != "setup_s" {
		good = good && spread(all) <= m.Bound
	}
	verdict := "ok"
	if !good {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%-16s A %s | B %s | all %5.1f%% | B/A %+6.1f%% bound %.0f%% %s",
		m.Name, desc(a), desc(b), 100*spread(all), 100*diff, 100*m.Bound, verdict), good
}

func values(rs []runResult, name string) []float64 {
	var v []float64
	for _, r := range rs {
		v = append(v, r.all[name])
	}
	return v
}

// runChild runs one untraced benchmark run in a child process and parses
// its result line.
func runChild(exe, workload string, seed uint64, seconds int) (runResult, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	res := runResult{all: map[string]float64{}}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	for _, l := range lines {
		var name string
		var v float64
		if n, _ := fmt.Sscanf(l, "end_to_end: %s = %g", &name, &v); n == 2 {
			res.all[name] = v
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("result line: %w", err)
	}
	return res, runErr
}

func summary(r runResult, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "correct=%t failed=%d/%d", r.Correct, r.Failed, r.Attempted)
	for _, k := range sortedKeys(r.Metrics) {
		fmt.Fprintf(&b, " %s=%.4g", k, r.Metrics[k].Value)
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
