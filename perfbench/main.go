// Command perfbench is the repository's benchmark. It boots the exam
// service in process, drives one workload through pkg/client as a closed
// loop for a fixed time, checks every output, and prints the metrics.
//
// Usage (from the root of the repository):
//
//	bash perfbench/run.sh --workload fixed-live|adaptive|review --seed N --seconds S --trace 0|1
//
// Every line but the last is a report for people: the environment, the
// set-up times, each metric under its descriptive name, and the checks. The
// last line is one JSON object, {"correct", "attempted", "failed",
// "metrics"}: with --trace 0 the end-to-end metrics of an untraced run,
// with --trace 1 the per-layer metrics of a traced run and the tracing
// overhead (traced minus untraced). See README.md for the workloads and
// the metric catalogue.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"mineassess/internal/cognition"
)

const (
	// setupRuns is how many times a run sets the system up; setup_s is
	// the median over the set-ups the hypervisor stole least from.
	setupRuns = 31
	// minQuietSetups is the fewest set-ups setup_s is the median of.
	minQuietSetups = 11
	// minQuietOps is the fewest operations the end-to-end metrics pool:
	// enough for ten beyond the p90.
	minQuietOps = 100
	// warmup runs the workload before each measured window so connections,
	// caches and lazily built state are in place.
	warmup = time.Second
	// sliceWidth is the length of the slices a window is cut into.
	sliceWidth = 100 * time.Millisecond
	// reviewCohort is the number of fixed sittings seeded for review: big
	// enough that export and analysis dominate a cycle, small enough for
	// about a hundred cycles in a ten-second run.
	reviewCohort = 1000
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "length of each measured window")
	traced := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: also a traced run, per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench-results"), "directory for journals, reports and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloads, ", "))
		return 2
	}
	b := &bench{workload: *workload, seed: *seed, window: time.Duration(*seconds) * time.Second, out: *out}
	if err := b.run(*traced == 1, stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

type bench struct {
	workload string
	seed     int64
	window   time.Duration
	out      string
	boots    int
}

func (b *bench) run(traced bool, stdout io.Writer) error {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}
	env := fingerprint(b.out, string(syncPolicy))
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", b.workload, b.seed, b.window.Seconds(), traced)
	fmt.Fprintf(stdout, "env %s\n", formatEnv(env))

	var setups []float64
	var setupSteal []int64
	var sys *system
	for i := 0; i < setupRuns; i++ {
		t0, st0 := time.Now(), stealTicks()
		s, err := b.setUp(nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		setupSteal = append(setupSteal, stealTicks()-st0)
		if i == setupRuns-1 {
			sys = s
		} else if err := s.close(); err != nil {
			return err
		}
	}
	plain, err := b.drive(sys)
	if cerr := sys.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	e2e := plain.endToEnd(b.workload)
	one := make([]int, setupRuns)
	for i := range one {
		one[i] = 1
	}
	var quietSetups []float64
	for _, i := range quietest(setupSteal, one, minQuietSetups) {
		quietSetups = append(quietSetups, setups[i])
	}
	e2e["setup_s"] = medianFloat(quietSetups)
	fmt.Fprintf(stdout, "setup_s runs %v\n", setups)
	fmt.Fprintln(stdout, "untraced run:")
	named := plain.named(b.workload, e2e["setup_s"])
	printNamed(stdout, named)
	printChecks(stdout, plain)

	report := map[string]any{"workload": b.workload, "seed": b.seed, "seconds": b.window.Seconds(), "env": env, "setup_s": setups, "named": named}
	result := resultLine{Correct: plain.failed == 0, Attempted: plain.attempted, Failed: plain.failed, Metrics: map[string]metricValue{}}
	if !traced {
		for _, m := range endToEnd {
			result.Metrics[m.Name] = metricValue{Value: e2e[m.Name], Unit: m.Unit}
		}
		report["end_to_end"] = result.Metrics
	} else {
		rec := newRecorder()
		tsys, err := b.setUp(rec)
		if err != nil {
			return err
		}
		tr, err := b.drive(tsys)
		if cerr := tsys.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := rec.writeJSONL(filepath.Join(b.out, fmt.Sprintf("spans-%s-seed%d.jsonl", b.workload, b.seed))); err != nil {
			return err
		}
		te2e := tr.endToEnd(b.workload)
		layers, layerNamed := tr.layers(b.workload)
		for _, name := range []string{"throughput_per_s", "latency_p50_ms", "latency_p90_ms", "cpu_us_per_op"} {
			layers["trace_overhead."+name] = te2e[name] - e2e[name]
		}
		fmt.Fprintf(stdout, "traced run (tracing overhead: %s):\n", formatOverhead(layers))
		printNamed(stdout, layerNamed)
		printChecks(stdout, tr)
		for _, m := range perLayer {
			result.Metrics[m.Name] = metricValue{Value: layers[m.Name], Unit: m.Unit}
		}
		result.Correct = result.Correct && tr.failed == 0
		result.Attempted += tr.attempted
		result.Failed += tr.failed
		report["per_layer"] = result.Metrics
		report["per_layer_named"] = layerNamed
	}
	report["correct"], report["attempted"], report["failed"] = result.Correct, result.Attempted, result.Failed
	raw, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("report-%s-seed%d-trace%v.json", b.workload, b.seed, traced)
	if err := os.WriteFile(filepath.Join(b.out, name), raw, 0o644); err != nil {
		return err
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// setUp boots a fresh system and seeds the bank.
func (b *bench) setUp(rec *recorder) (*system, error) {
	b.boots++
	sys, err := boot(filepath.Join(b.out, fmt.Sprintf("wal-%d-%d", os.Getpid(), b.boots)), rec)
	if err != nil {
		return nil, err
	}
	tr := newTransport(1)
	defer tr.CloseIdleConnections()
	if err := sys.seed(b.seed, reviewCohort, tr); err != nil {
		return nil, errors.Join(err, sys.close())
	}
	return sys, nil
}

// outcome is one measured window.
type outcome struct {
	tally
	window      time.Duration // the measured window, as planned
	syscw       int64
	heapGrowth  float64
	watcher     *watcher
	obs0, obs1  map[string]float64
	rt0, rt1    runtimeSnap
	seqLag      []float64
	spans       []span
	slices      int             // equal slices the window is cut into
	sliceCPU    []time.Duration // process CPU time at each slice boundary
	sliceSteal  []int64         // machine-wide stolen CPU ticks at each boundary
	workers     int
	connections int
	unit        string
}

// drive warms the system up, then runs the workload's closed loop for one
// window and collects what it measured.
func (b *bench) drive(sys *system) (*outcome, error) {
	ncpu := runtime.NumCPU()
	o := &outcome{unit: unitName(b.workload)}
	bank := sys.banks[b.workload]
	exam := bank.examID
	// Learners leave one CPU to the server's own goroutines (WAL
	// committer, bus, SSE writer): with every CPU busy on the client side,
	// latency measures the run queue and whoever else shares the host.
	switch b.workload {
	case wlFixedLive:
		o.workers, o.connections = max(1, ncpu-1), max(1, ncpu-1)+1
	case wlAdaptive:
		o.workers, o.connections = max(1, ncpu-1), max(1, ncpu-1)
	case wlReview:
		o.workers, o.connections = 1, 1
	}
	tr := newTransport(o.connections)
	defer tr.CloseIdleConnections()
	concepts := cognition.NumberedConcepts(reviewGroups)

	loop := func(d time.Duration, round int) *tally {
		epoch := time.Now()
		deadline := epoch.Add(d)
		ws := make([]*worker, o.workers)
		var wg sync.WaitGroup
		for i := range ws {
			ws[i] = newWorker(sys, tr, round*o.workers+i, b.seed, epoch)
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				for k := 0; time.Now().Before(deadline) && w.t.failed < 100; k++ {
					switch b.workload {
					case wlFixedLive:
						w.fixedSitting(bank, k)
					case wlAdaptive:
						w.catSitting(bank, k)
					case wlReview:
						w.reviewCycle(bank, k, concepts)
					}
				}
			}(ws[i])
		}
		wg.Wait()
		t := &tally{}
		for _, w := range ws {
			t.merge(&w.t)
		}
		return t
	}

	// Warm-up operations and failures count; its latencies and units do not.
	warm := loop(warmup, 1)
	o.attempted, o.failed, o.failures = warm.attempted, warm.failed, warm.failures
	var err error
	if b.workload == wlFixedLive {
		if o.watcher, err = startWatcher(sys, tr, exam); err != nil {
			return nil, err
		}
	}
	var stopSampler func()
	if sys.rec != nil {
		stopSampler = o.sampleSeqLag(sys, exam)
		sys.rec.reset()
	}
	o.obs0, o.rt0 = obsValues(sys.reg), readRuntime()
	heap0 := liveHeap()
	sc0 := writeSyscalls()
	// Slices short enough that quiet stretches between bursts of outside
	// interference can be told apart (see quietSlices).
	o.slices = max(1, int(b.window/sliceWidth))
	o.window = b.window
	stopCPU := o.sampleSlices()

	t := loop(b.window, 0)

	stopCPU()
	o.syscw = writeSyscalls() - sc0
	o.obs1, o.rt1 = obsValues(sys.reg), readRuntime()
	if stopSampler != nil {
		stopSampler()
		o.spans = sys.rec.snapshot()
	}
	o.tally.merge(t)
	if o.watcher != nil {
		o.watcher.finish(sys, exam, t.caused)
		o.tally.merge(&o.watcher.t)
	}
	tr.CloseIdleConnections()
	if t.units > 0 {
		o.heapGrowth = (liveHeap() - heap0) / float64(t.units)
	}
	if t.units == 0 {
		o.fail("no %s completed in %s", o.unit, b.window)
	}
	return o, nil
}

// sampleSlices reads the process CPU time and the machine's stolen CPU
// time at the start of the window and at the end of each slice; stop waits
// for the last reading. The readings are on time as long as the window
// starts right after the call.
func (o *outcome) sampleSlices() (stop func()) {
	start := time.Now()
	o.sliceCPU, o.sliceSteal = []time.Duration{cpuTime()}, []int64{stealTicks()}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 1; i <= o.slices; i++ {
			time.Sleep(time.Until(start.Add(o.window * time.Duration(i) / time.Duration(o.slices))))
			o.sliceCPU = append(o.sliceCPU, cpuTime())
			o.sliceSteal = append(o.sliceSteal, stealTicks())
		}
	}()
	return func() { <-finished }
}

// quietSlices returns, in time order, the slices the hypervisor stole
// least from (see quietest) that hold at least minQuietOps of the
// workload's operations.
func (o *outcome) quietSlices(workload string) []int {
	steal := make([]int64, o.slices)
	for i := range steal {
		steal[i] = o.sliceSteal[i+1] - o.sliceSteal[i]
	}
	ops := make([]int, o.slices)
	for _, s := range o.ops(workload) {
		if i := o.sliceOf(s.at); i < o.slices {
			ops[i]++
		}
	}
	return quietest(steal, ops, minQuietOps)
}

// sliceOf returns the slice a moment of the window (ns since its start)
// falls in; o.slices for a moment after the window.
func (o *outcome) sliceOf(at int64) int {
	return min(o.slices, int(at*int64(o.slices)/o.window.Nanoseconds()))
}

// sampleSeqLag samples how far the live statistics trail the bus on the
// workload's exam, every 10ms, until the returned stop is called.
func (o *outcome) sampleSeqLag(sys *system, exam string) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				folded, _ := sys.live.Seq(exam)
				o.seqLag = append(o.seqLag, float64(sys.bus.Seq(exam))-float64(folded))
			}
		}
	}()
	return func() { close(done); <-finished }
}

func unitName(workload string) string {
	if workload == wlReview {
		return "review cycles"
	}
	return "sittings"
}

// ops returns the operation samples: learner requests, or review cycles.
func (o *outcome) ops(workload string) []sample {
	if workload == wlReview {
		return o.cyc
	}
	return o.req
}

// stealShares returns the share of the machine's CPU time stolen over the
// whole window and over its quiet slices, in percent.
func (o *outcome) stealShares(workload string) (all, quiet float64) {
	perSlice := o.window.Seconds() / float64(o.slices) * float64(runtime.NumCPU()) * clockTicks
	all = 100 * float64(o.sliceSteal[o.slices]-o.sliceSteal[0]) / (perSlice * float64(o.slices))
	q := o.quietSlices(workload)
	var stolen int64
	for _, i := range q {
		stolen += o.sliceSteal[i+1] - o.sliceSteal[i]
	}
	return all, 100 * float64(stolen) / (perSlice * float64(len(q)))
}

// endToEnd computes the end-to-end metrics but setup_s over the quiet
// slices of the window (see quietSlices), pooling their samples;
// retained_bytes_per_op covers the whole window.
func (o *outcome) endToEnd(workload string) map[string]float64 {
	quiet := make([]bool, o.slices)
	var cpu time.Duration
	for _, i := range o.quietSlices(workload) {
		quiet[i] = true
		cpu += o.sliceCPU[i+1] - o.sliceCPU[i]
	}
	in := func(at int64) bool {
		i := o.sliceOf(at)
		return i < o.slices && quiet[i]
	}
	var durs []int64
	for _, s := range o.ops(workload) {
		if in(s.at) {
			durs = append(durs, s.dur)
		}
	}
	// A closed loop keeps every worker busy, so the worker count over the
	// mean time a unit took is the rate units complete at.
	var units int
	var unitTime int64
	for _, u := range o.unitsAt {
		if in(u.at) {
			units++
			unitTime += u.dur
		}
	}
	m := map[string]float64{
		"latency_p50_ms":        quantileMs(durs, 0.50),
		"latency_p90_ms":        quantileMs(durs, 0.90),
		"latency_p99_ms":        quantileMs(durs, 0.99),
		"retained_bytes_per_op": o.heapGrowth,
	}
	if unitTime > 0 {
		m["throughput_per_s"] = float64(o.workers*units) / (float64(unitTime) / 1e9)
	}
	if len(durs) > 0 {
		m["cpu_us_per_op"] = float64(cpu.Nanoseconds()) / 1e3 / float64(len(durs))
	}
	return m
}

// named returns the untraced run's metrics under their descriptive,
// workload-specific names.
func (o *outcome) named(workload string, setup float64) []namedValue {
	e := o.endToEnd(workload)
	errRate := 0.0
	if o.attempted > 0 {
		errRate = float64(o.failed) / float64(o.attempted)
	}
	out := []namedValue{{"setup_s", setup, "s"}}
	switch workload {
	case wlReview:
		out = append(out,
			namedValue{"review_cycle_p50_ms", e["latency_p50_ms"], "ms"},
			namedValue{"review_cycle_p90_ms", e["latency_p90_ms"], "ms"},
			namedValue{"review_cpu_ms_per_cycle", e["cpu_us_per_op"] / 1000, "ms"},
			namedValue{"retained_bytes_per_cycle", e["retained_bytes_per_op"], "B"},
			namedValue{"review_cycles", float64(len(o.cyc)), "count"},
			namedValue{"slices", float64(o.slices), "count"})
	default:
		out = append(out,
			namedValue{"sittings_per_s", e["throughput_per_s"], "1/s"},
			namedValue{"request_p50_ms", e["latency_p50_ms"], "ms"},
			namedValue{"request_p90_ms", e["latency_p90_ms"], "ms"},
			namedValue{"request_p99_ms", e["latency_p99_ms"], "ms"},
			namedValue{"cpu_us_per_request", e["cpu_us_per_op"], "us"},
			namedValue{"retained_bytes_per_sitting", e["retained_bytes_per_op"], "B"},
			namedValue{"requests", float64(len(o.req)), "count"},
			namedValue{"slices", float64(o.slices), "count"})
	}
	if w := o.watcher; w != nil {
		lag := slices.Clone(w.lag)
		out = append(out,
			namedValue{"live_lag_p50_ms", quantileMs(lag, 0.50), "ms"},
			namedValue{"live_lag_p99_ms", quantileMs(lag, 0.99), "ms"},
			namedValue{"live_gap_frames", float64(w.gaps), "count"})
	}
	all, quiet := o.stealShares(workload)
	return append(out,
		namedValue{"error_rate", errRate, "ratio"},
		namedValue{"steal_window_pct", all, "%"},
		namedValue{"steal_quiet_slices_pct", quiet, "%"})
}

// layers computes the per-layer metrics of a traced window, and the
// workload-specific breakdown under descriptive names.
func (o *outcome) layers(workload string) (map[string]float64, []namedValue) {
	opName := spanClient
	if workload == wlReview {
		opName = spanCycle
	}
	a := attribute(o.spans, opName)
	d := func(name string) float64 { return o.obs1[name] - o.obs0[name] }
	m := map[string]float64{
		"wire.p50_ms":                   quantileMs(a.wire, 0.50),
		"wire.p99_ms":                   quantileMs(a.wire, 0.99),
		"httpapi.serve.p50_ms":          quantileMs(a.serve, 0.50),
		"httpapi.serve.p99_ms":          quantileMs(a.serve, 0.99),
		"httpapi.self.p50_ms":           quantileMs(a.self, 0.50),
		"bank.read.p50_us":              quantile(a.bankRead, 0.50) / 1e3,
		"share.wire_pct":                share(a.sumWire, a.total),
		"share.httpapi_self_pct":        share(a.sumSelf, a.total),
		"share.bank_read_pct":           share(a.sumRead, a.total),
		"share.bank_write_pct":          share(a.sumWrite, a.total),
		"share.analysis_pct":            share(a.sumAnalyze, a.total),
		"share.cognition_pct":           share(a.sumCoverage, a.total),
		"bank.read.count":               float64(len(a.bankRead)),
		"bank.write.count":              float64(len(a.bankWrite)),
		"events.published":              d("events_published_total"),
		"events.dropped":                d("events_dropped_total"),
		"events.queue_highwater":        o.obs1["events_queue_highwater"],
		"livestats.fold_p99_us":         o.obs1["livestats_fold_seconds_p99"] * 1e6,
		"livestats.seq_lag":             mean(o.seqLag),
		"runtime.heap_live_mb":          float64(o.rt1.heapLive) / (1 << 20),
		"catdelivery.items_per_sitting": 0,
	}
	if n := len(a.bankWrite); n > 0 {
		m["bank.fsyncs_per_write"] = d("journal_fsync_total") / float64(n)
		m["bank.wal_bytes_per_write"] = d("journal_wal_bytes_total") / float64(n)
	}
	if w := o.watcher; w != nil {
		m["httpapi.sse.frames"] = float64(w.events + w.stats + w.gaps)
		m["live.gap_frames"] = float64(w.gaps)
		if w.events > 0 {
			m["httpapi.sse.stats_per_event"] = float64(w.stats) / float64(w.events)
		}
	}
	if reqs := len(o.req) + int(m["httpapi.sse.frames"]); reqs > 0 {
		m["proc.write_syscalls_per_op"] = float64(o.syscw) / float64(reqs)
	}
	if workload == wlAdaptive && o.units > 0 {
		m["catdelivery.items_per_sitting"] = float64(o.items) / float64(o.units)
	}
	m["runtime.gc_cpu_fraction"], m["runtime.sched_latency_p99_us"] = runtimeDelta(o.rt0, o.rt1)

	var named []namedValue
	for _, r := range routes {
		if xs := a.serveByRoute[r]; len(xs) > 0 {
			named = append(named,
				namedValue{"httpapi.serve." + r + ".p50_ms", quantileMs(xs, 0.50), "ms"},
				namedValue{"httpapi.serve." + r + ".p99_ms", quantileMs(xs, 0.99), "ms"},
				namedValue{"httpapi.self." + r + ".p50_ms", quantileMs(a.selfByRoute[r], 0.50), "ms"})
		}
	}
	if len(a.bankWrite) > 0 {
		named = append(named,
			namedValue{"bank.write.p50_ms", quantileMs(a.bankWrite, 0.50), "ms"},
			namedValue{"bank.write.p99_ms", quantileMs(a.bankWrite, 0.99), "ms"})
	}
	if len(a.analyze) > 0 {
		named = append(named,
			namedValue{"analysis.analyze.p50_ms", quantileMs(a.analyze, 0.50), "ms"},
			namedValue{"analysis.analyze.p90_ms", quantileMs(a.analyze, 0.90), "ms"},
			namedValue{"cognition.coverage.p50_ms", quantileMs(a.coverage, 0.50), "ms"})
	}
	named = append(named,
		namedValue{"bank.calls_tied_to_request", float64(a.bankAttributed), "count"},
		namedValue{"bank.calls", float64(a.bankCalls), "count"})
	for _, def := range perLayer {
		if !strings.HasPrefix(def.Name, "trace_overhead.") {
			named = append(named, namedValue{def.Name, m[def.Name], def.Unit})
		}
	}
	return m, named
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// --- output ---

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type namedValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printNamed(w io.Writer, vs []namedValue) {
	for _, v := range vs {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", v.Name, v.Value, v.Unit)
	}
}

func printChecks(w io.Writer, o *outcome) {
	fmt.Fprintf(w, "  checks: %d %s, %d operations attempted, %d failed (%d workers, %d connections)\n",
		o.units, o.unit, o.attempted, o.failed, o.workers, o.connections)
	for _, f := range o.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

func formatEnv(env map[string]string) string {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, env[k])
	}
	return strings.Join(parts, " ")
}

func formatOverhead(m map[string]float64) string {
	var parts []string
	for _, def := range perLayer {
		if name, ok := strings.CutPrefix(def.Name, "trace_overhead."); ok {
			parts = append(parts, fmt.Sprintf("%s %+.4g %s", name, m[def.Name], def.Unit))
		}
	}
	return strings.Join(parts, ", ")
}
