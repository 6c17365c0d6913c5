// Command perfbench is the repository benchmark. It runs one workload —
// tables, hits or churn — against the programs' defaults, checks every
// simulated result against the committed step-engine reference, and prints
// its metrics; the last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics. NOTES.md explains the
// workloads, the metric → layer → workload map and the measured noise.
//
//	perfbench --workload tables --seed 1 --seconds 30 --trace 0
//	perfbench steady [-runs 5] [-workload churn]  # two interleaved sets per workload
//	perfbench genref                              # rewrite reference.json (step engine)
//
// Run it through run.sh from the repository root, which builds it first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// runOpts are one run's settings.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	tr       *tracer // nil: the untraced run
	ref      *reference
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			exitOn(steady(os.Args[2:]))
			return
		case "genref":
			fs := flag.NewFlagSet("genref", flag.ExitOnError)
			ref := fs.String("ref", defaultRef, "where to write the reference")
			fs.Parse(os.Args[2:])
			exitOn(genReference(*ref))
			return
		}
	}
	wl := flag.String("workload", "", "workload: tables, hits or churn")
	seed := flag.Uint64("seed", 1, "seed for the cell order, the session sequence and the churn rounds")
	seconds := flag.Float64("seconds", 30, "how long the measured phase runs")
	trace := flag.Int("trace", 0, "1: record spans and report per-layer metrics instead of end-to-end ones")
	refPath := flag.String("ref", defaultRef, "reference results to check against")
	flag.Parse()

	spec, err := loadSpec(specPath)
	exitOn(err)
	ref, err := loadReference(*refPath)
	exitOn(err)
	o := runOpts{workload: *wl, seed: *seed, seconds: *seconds, ref: ref}
	// A run that hangs (a session that never completes) must still end, and
	// end as a failure, well before anything outside gives up on it.
	time.AfterFunc(time.Duration(*seconds*float64(time.Second))+watchdog, func() {
		fmt.Fprintf(os.Stderr, "perfbench: run did not finish within %gs of its run length\n", watchdog.Seconds())
		os.Exit(1)
	})
	if *trace == 1 {
		o.tr = newTracer()
	}
	var rep *report
	switch *wl {
	case "tables":
		rep, err = tablesBench(o)
	case "hits":
		rep, err = mrsdBench(o, false)
	case "churn":
		rep, err = mrsdBench(o, true)
	default:
		err = fmt.Errorf("unknown workload %q (want tables, hits or churn)", *wl)
	}
	exitOn(err)
	if o.tr != nil {
		path := filepath.Join(buildDir(), fmt.Sprintf("spans-%s-%d.json", *wl, *seed))
		exitOn(o.tr.write(path))
		fmt.Printf("spans: %s\n", path)
	}
	if !rep.print(spec, o.tr != nil) {
		os.Exit(1)
	}
}

const (
	specPath   = "BENCHMARK.json"
	defaultRef = "perfbench/reference.json"
	watchdog   = 120 * time.Second
)

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// buildDir is where build outputs and span files go, inside the checkout.
func buildDir() string {
	if d := os.Getenv("CARGO_TARGET_DIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// specMetric is one metric declared in BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
	RunSeconds int          `json:"run_seconds"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// metric is one reported value. n is the sample count behind a percentile
// or median, 0 for totals and ratios.
type metric struct {
	value float64
	unit  string
	n     int
}

// report gathers one run's metrics.
type report struct {
	o         runOpts
	engine    string
	attempted int
	failed    int
	failures  []string
	e2eM      map[string]metric
	layerM    map[string]metric
	rounds    []roundStat // the measured phase's rounds, for the report
	cpu, wall time.Duration
}

func newReport(o runOpts) *report {
	return &report{o: o, e2eM: map[string]metric{}, layerM: map[string]metric{}}
}

func (r *report) e2e(name string, v float64, unit string, n int) {
	r.e2eM[name] = metric{v, unit, n}
}

func (r *report) layer(name string, v float64, unit string) {
	r.layerM[name] = metric{v, unit, 0}
}

// pct reports the p-quantile of s as an end-to-end metric. In an untraced
// run, a sample too small for it fails the run.
func (r *report) pct(name string, s sample, p float64) {
	if r.o.tr == nil && !enough(len(s), p) {
		r.failures = append(r.failures, fmt.Sprintf("%s: %d samples are too few for the %.0fth percentile", name, len(s), 100*p))
		r.failed++
	}
	r.e2eM[name] = quantile(s, p)
}

// layerPct reports a per-layer percentile; the traced round may hold fewer
// samples than the rule wants, which the human-readable line shows. An
// operation the workload never makes reads 0.
func (r *report) layerPct(name string, s sample, p float64) {
	if len(s) == 0 {
		r.layer(name, 0, "ms")
		return
	}
	r.layerM[name] = quantile(s, p)
}

func quantile(s sample, p float64) metric {
	v := percentile(s, p)
	if math.IsInf(v, 1) || math.IsNaN(v) {
		v = math.MaxFloat64
	}
	return metric{v, "ms", len(s)}
}

// pOf is the quantile a metric name reports, from its _pNN part; 0 for a
// name without one.
func pOf(name string) float64 {
	for _, q := range []struct {
		tag string
		p   float64
	}{{"_p50", 0.5}, {"_p90", 0.9}, {"_p99", 0.99}} {
		if strings.Contains(name, q.tag) {
			return q.p
		}
	}
	return 0
}

// rates reports the throughput metrics every workload has.
func (r *report) rates(ps phaseStats) {
	r.rounds, r.cpu, r.wall = ps.rounds, ps.cpu, ps.wall
	n := len(ps.rounds)
	r.e2e("sim_mips", ps.rate(func(r roundStat) int64 { return r.instrs })/1e6, "Minstr/s", n)
	r.e2e("sessions_per_s", ps.rate(func(r roundStat) int64 { return r.done }), "1/s", n)
}

// absorb adds a phase's operation counts and failures to the report.
func (r *report) absorb(ps phaseStats) {
	r.attempted += ps.attempted
	r.failed += ps.failed
	r.failures = append(r.failures, ps.failures...)
}

// knownSpans are the layer-boundary spans whose busy time and call count
// the traced run reports as <name>_ms and <name>_calls.
var knownSpans = []string{
	"minic.compile", "asm.parse", "asm.assemble", "patch.apply", "elim.apply",
	"machine.image", "machine.warm_attach", "machine.new", "asm.load",
	"monitor.setup", "machine.run", "bench.program_source",
}

// spanLayers reports busy time and calls per span name, and self time per
// layer, over the traced set-up round and the traced measured round, and
// the tables' per-program run rates of the traced round.
func (r *report) spanLayers(spans []spanRec, traced *phaseStats) {
	self, calls := spanTotals(spans)
	for _, n := range knownSpans {
		r.layer(n+"_ms", float64(self[n])/1e6, "ms")
		r.layer(n+"_calls", float64(calls[n]), "count")
	}
	layers := map[string]int64{}
	for n, ns := range self {
		layers[layerOf(n)] += ns
	}
	for l, ns := range layers {
		r.layer("self_ms."+l, float64(ns)/1e6, "ms")
	}
	r.layer("trace.spans", float64(len(spans)), "count")
	if len(traced.perProg) > 0 {
		var instrs, ns int64
		for p, pr := range traced.perProg {
			r.layer("machine.run_mips."+p, float64(pr.instrs)/(float64(pr.runNS)/1e9)/1e6, "Minstr/s")
			instrs += pr.instrs
			ns += pr.runNS
		}
		r.layer("machine.run_mips", float64(instrs)/(float64(ns)/1e9)/1e6, "Minstr/s")
	}
}

// overhead reports the traced round's wall time per round against the
// untraced rounds' of the same run, and the runtime metrics of the
// untraced rounds (per round, so the tracer's own allocations stay out).
func (r *report) overhead(untraced phaseStats, traced *phaseStats) {
	perRound := func(ps phaseStats) float64 { return ps.wall.Seconds() / float64(len(ps.rounds)) }
	r.layer("trace.overhead_pct", 100*(perRound(*traced)/perRound(untraced)-1), "%")
	rt := untraced.rt1.minus(untraced.rt0)
	n := float64(len(untraced.rounds))
	r.layer("runtime.sched_wait_p50_ms", rt.schedQuantile(0.5)*1e3, "ms")
	r.layer("runtime.sched_wait_p99_ms", rt.schedQuantile(0.99)*1e3, "ms")
	r.layer("runtime.gc_cycles", float64(rt.gcCycles)/n, "count")
	r.layer("runtime.gc_pause_ms", float64(rt.pauseNS)/1e6/n, "ms")
	r.layer("runtime.alloc_mb", float64(rt.allocBytes)/1e6/n, "MB")
}

// print writes the human-readable result and then the JSON result line. It
// returns whether the run was correct.
func (r *report) print(spec *benchSpec, traced bool) bool {
	fmt.Printf("env: workload=%s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d go=%s engine=%s\n",
		r.o.workload, r.o.seed, r.o.seconds, traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), r.engine)
	show := func(kind string, m map[string]metric) {
		for _, n := range sortedKeys(m) {
			v := m[n]
			switch p := pOf(n); {
			case v.n > 0 && p > 0:
				fmt.Printf("%s: %s = %.6g %s (n=%d, %d beyond)\n", kind, n, v.value, v.unit, v.n, beyond(v.n, p))
			case v.n > 0:
				fmt.Printf("%s: %s = %.6g %s (median of %d)\n", kind, n, v.value, v.unit, v.n)
			default:
				fmt.Printf("%s: %s = %.6g %s\n", kind, n, v.value, v.unit)
			}
		}
	}
	show("end_to_end", r.e2eM)
	if len(r.rounds) > 0 {
		var b strings.Builder
		for _, rs := range r.rounds {
			fmt.Fprintf(&b, " %.4g", float64(rs.instrs)/rs.wall.Seconds()/1e6)
		}
		fmt.Printf("rounds: %d, Minstr/s per round:%s\n", len(r.rounds), b.String())
		// CPU time well under GOMAXPROCS × wall time on a CPU-bound phase
		// means the host took the CPUs away, not that the program slowed.
		fmt.Printf("cpu: %.3g s of process CPU time in %.3g s of wall time\n", r.cpu.Seconds(), r.wall.Seconds())
	}
	if traced {
		show("per_layer", r.layerM)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Printf("fail_frac = %g (%d failed of %d operations)\n", frac, r.failed, r.attempted)
	for i, f := range r.failures {
		if i == 20 {
			fmt.Printf("failure: ... %d more\n", len(r.failures)-i)
			break
		}
		fmt.Printf("failure: %s\n", f)
	}

	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]jm{}
	list, have := spec.EndToEnd, r.e2eM
	if traced {
		list, have = spec.PerLayer, r.layerM
	}
	var missing []string
	for _, sm := range list {
		m, ok := have[sm.Name]
		if !ok {
			if !traced {
				fmt.Fprintf(os.Stderr, "perfbench: workload %s does not report %s\n", r.o.workload, sm.Name)
				return false
			}
			missing = append(missing, sm.Name)
			m = metric{0, sm.Unit, 0} // a layer this workload does not exercise
		}
		out[sm.Name] = jm{m.value, sm.Unit}
	}
	if len(missing) > 0 {
		fmt.Printf("not exercised by %s (reported as 0): %s\n", r.o.workload, strings.Join(missing, " "))
	}
	correct := r.failed == 0 && r.attempted > 0
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return false
	}
	fmt.Println(string(line))
	return correct
}

// progRun accumulates one program's simulated instructions and the host
// time of its run calls.
type progRun struct{ instrs, runNS int64 }

// roundStat is the work one round completed and its wall time.
type roundStat struct {
	instrs, done, hits int64
	wall               time.Duration
}

// phaseStats is what one measured phase observed.
type phaseStats struct {
	rounds    []roundStat
	mark      roundStat // totals, and the phase time, when the current round began
	attempted int
	done      int
	failed    int
	failures  []string
	instrs    int64
	hits      int64
	firstHit  sample
	runTo1st  sample
	ctl       sample
	rtt       map[string]sample
	toggles   int
	applied   int
	perProg   map[string]progRun
	start     time.Time
	wall      time.Duration
	heapMB    float64
	cpu       time.Duration // process CPU time (user + system) over the phase
	rt0, rt1  rtSnap
	wire      wireSnap
}

func newPhaseStats() phaseStats {
	return phaseStats{rtt: map[string]sample{}, perProg: map[string]progRun{}}
}

// begin starts the phase's clock and runtime counters.
func (ps *phaseStats) begin() {
	ps.rt0 = readRuntime()
	ps.cpu = -cpuTime()
	ps.start = time.Now()
}

// endRound closes a round: its work is what completed since the last one.
func (ps *phaseStats) endRound() {
	now := time.Since(ps.start)
	ps.rounds = append(ps.rounds, roundStat{
		instrs: ps.instrs - ps.mark.instrs, done: int64(ps.done) - ps.mark.done,
		hits: ps.hits - ps.mark.hits, wall: now - ps.mark.wall,
	})
	ps.mark = roundStat{instrs: ps.instrs, done: int64(ps.done), hits: ps.hits, wall: now}
}

// rate is the median over rounds of a per-round count per second. Rounds
// do equal work, so a round slowed by something else on the host moves
// this median less than it moves a whole-phase ratio.
func (ps *phaseStats) rate(count func(roundStat) int64) float64 {
	var xs []float64
	for _, r := range ps.rounds {
		xs = append(xs, float64(count(r))/r.wall.Seconds())
	}
	return median(xs)
}

// finish closes the phase: wall time, runtime counters, and the live heap
// after forced collections (two, so sync.Pool contents are gone too).
func (ps *phaseStats) finish() {
	ps.wall = time.Since(ps.start)
	ps.cpu += cpuTime()
	ps.rt1 = readRuntime()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ps.heapMB = float64(ms.HeapAlloc) / 1e6
}

func (ps *phaseStats) fail(err error) {
	ps.failed++
	ps.failures = append(ps.failures, err.Error())
}

// addCell folds one table cell in.
func (ps *phaseStats) addCell(c cell, got outcome, err error) {
	ps.attempted++
	if err != nil {
		ps.fail(fmt.Errorf("cell %s: %w", c.id, err))
		return
	}
	ps.done++
	ps.instrs += got.instrs
	ps.hits += got.hits
	pr := ps.perProg[c.prog]
	pr.instrs += got.instrs
	pr.runNS += got.runNS
	ps.perProg[c.prog] = pr
}

// addSession folds one session in.
func (ps *phaseStats) addSession(sid string, out sessOut, err error) {
	ps.attempted++
	for op, ds := range out.rtt {
		for _, d := range ds {
			s := ps.rtt[op]
			s.add(d)
			ps.rtt[op] = s
		}
	}
	ps.toggles += out.toggles
	ps.applied += out.applied
	if err != nil {
		ps.fail(fmt.Errorf("session %s: %w", sid, err))
		ps.firstHit.fail()
		ps.ctl.fail()
		return
	}
	ps.done++
	ps.instrs += out.instrs
	ps.hits += out.hits
	ps.firstHit.add(out.firstHit)
	ps.runTo1st.add(out.runToFirst)
	for _, d := range out.ctl {
		ps.ctl.add(d)
	}
}

// phaseFunc runs a workload's measured phase as rounds of equal work. It
// starts another round while more allows it or, if sampled is set, while
// its latency samples are too small for a percentile it reports.
type phaseFunc func(tr *tracer, more func(rounds int) bool, sampled bool, seed uint64) phaseStats

// measure runs the measured phase. Untraced, it runs rounds for the run
// length and until the samples are large enough. Traced, it runs untraced
// rounds for half the run length, as the base for the tracing overhead,
// and then exactly one traced round, which gives the per-layer numbers.
func measure(o runOpts, phase phaseFunc) (untraced phaseStats, traced *phaseStats) {
	until := func(seconds float64) func(int) bool {
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
		return func(int) bool { return time.Now().Before(deadline) }
	}
	if o.tr == nil {
		return phase(nil, until(o.seconds), true, o.seed), nil
	}
	untraced = phase(nil, until(o.seconds/2), false, o.seed)
	t := phase(o.tr, func(int) bool { return false }, false, o.seed)
	return untraced, &t
}

// cpuTime is the process's CPU time so far, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSnap is a reading of the Go runtime's counters.
type rtSnap struct {
	sched      *metrics.Float64Histogram
	gcCycles   uint64
	allocBytes uint64
	pauseNS    uint64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/sched/latencies:seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtSnap{
		sched:      s[0].Value.Float64Histogram(),
		gcCycles:   s[1].Value.Uint64(),
		allocBytes: s[2].Value.Uint64(),
		pauseNS:    ms.PauseTotalNs,
	}
}

// minus is the change from b to a.
func (a rtSnap) minus(b rtSnap) rtSnap {
	h := &metrics.Float64Histogram{Buckets: a.sched.Buckets, Counts: make([]uint64, len(a.sched.Counts))}
	for i := range h.Counts {
		h.Counts[i] = a.sched.Counts[i] - b.sched.Counts[i]
	}
	return rtSnap{sched: h, gcCycles: a.gcCycles - b.gcCycles, allocBytes: a.allocBytes - b.allocBytes, pauseNS: a.pauseNS - b.pauseNS}
}

// schedQuantile is the p-quantile of the scheduler-latency histogram, in
// seconds: the upper edge of the bucket holding the nearest-rank sample.
func (a rtSnap) schedQuantile(p float64) float64 {
	var total uint64
	for _, c := range a.sched.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(rank(int(total), p))
	var cum uint64
	for i, c := range a.sched.Counts {
		cum += c
		if cum >= want {
			if hi := a.sched.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return a.sched.Buckets[i]
		}
	}
	return 0
}

// wireSnap is a reading of wireStats.
type wireSnap struct {
	serverWriteNS, serverBytes, serverFrames int64
	clientBusyNS                             int64
	hitFrames, hits                          int64
}

func (w *wireStats) snapshot() wireSnap {
	return wireSnap{
		serverWriteNS: w.serverWriteNS.Load(), serverBytes: w.serverBytes.Load(), serverFrames: w.serverFrames.Load(),
		clientBusyNS: w.clientBusyNS.Load(),
		hitFrames:    w.hitFrames.Load(), hits: w.hits.Load(),
	}
}

func (a wireSnap) minus(b wireSnap) wireSnap {
	return wireSnap{
		serverWriteNS: a.serverWriteNS - b.serverWriteNS, serverBytes: a.serverBytes - b.serverBytes,
		serverFrames: a.serverFrames - b.serverFrames, clientBusyNS: a.clientBusyNS - b.clientBusyNS,
		hitFrames: a.hitFrames - b.hitFrames, hits: a.hits - b.hits,
	}
}
