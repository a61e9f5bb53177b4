package main

// The metric catalogue: every metric the benchmark prints in its result
// line, with its unit and, for per-layer metrics, the end-to-end metric it
// should move and on which workload. BENCHMARK.json at the root of the
// repository lists the same names (a test keeps them in step).

// Workload names.
const (
	wlFixedLive = "fixed-live"
	wlAdaptive  = "adaptive"
	wlReview    = "review"
)

var workloads = []string{wlFixedLive, wlAdaptive, wlReview}

// Route names of the requests the workloads make.
const (
	routeFixedStart     = "fixed.start"
	routeFixedAnswer    = "fixed.answer"
	routeFixedFinish    = "fixed.finish"
	routeCATStart       = "cat.start"
	routeCATRespond     = "cat.respond"
	routeCATFinish      = "cat.finish"
	routeProblemsUpdate = "problems.update"
	routeResultsExport  = "results.export"
)

var routes = []string{
	routeFixedStart, routeFixedAnswer, routeFixedFinish,
	routeCATStart, routeCATRespond, routeCATFinish,
	routeProblemsUpdate, routeResultsExport,
}

// metricDef describes one metric of the result line.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric a per-layer metric should move,
	// and on which workload.
	Moves string
}

// An operation is the unit a workload repeats: one learner request on
// fixed-live and adaptive, one review cycle on review. Every end-to-end
// metric is defined on every workload through it.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "retained_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.15},
}

var perLayer = []metricDef{
	{Name: "wire.p50_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on fixed-live and adaptive"},
	{Name: "wire.p99_ms", Unit: "ms", Better: "lower", Moves: "latency_p90_ms on fixed-live and adaptive"},
	{Name: "httpapi.serve.p50_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on every workload"},
	{Name: "httpapi.serve.p99_ms", Unit: "ms", Better: "lower", Moves: "latency_p90_ms on every workload"},
	{Name: "httpapi.self.p50_ms", Unit: "ms", Better: "lower", Moves: "latency_p50_ms on every workload"},
	{Name: "bank.read.p50_us", Unit: "us", Better: "lower", Moves: "latency_p50_ms on every workload"},
	{Name: "share.wire_pct", Unit: "%", Better: "lower", Moves: "latency_p50_ms on fixed-live and adaptive"},
	{Name: "share.httpapi_self_pct", Unit: "%", Better: "lower", Moves: "latency_p50_ms on every workload"},
	{Name: "share.bank_read_pct", Unit: "%", Better: "lower", Moves: "latency_p50_ms on every workload"},
	{Name: "share.bank_write_pct", Unit: "%", Better: "lower", Moves: "latency_p50_ms and throughput_per_s on adaptive, latency_p50_ms on review"},
	{Name: "share.analysis_pct", Unit: "%", Better: "lower", Moves: "latency_p50_ms and latency_p90_ms on review"},
	{Name: "share.cognition_pct", Unit: "%", Better: "lower", Moves: "latency_p50_ms on review"},
	{Name: "bank.read.count", Unit: "count", Better: "lower", Moves: "cpu_us_per_op on every workload"},
	{Name: "bank.write.count", Unit: "count", Better: "lower", Moves: "latency_p50_ms and throughput_per_s on adaptive, latency_p50_ms on review; 0 on fixed-live"},
	{Name: "bank.fsyncs_per_write", Unit: "ratio", Better: "lower", Moves: "latency_p50_ms on adaptive and review"},
	{Name: "bank.wal_bytes_per_write", Unit: "B", Better: "lower", Moves: "latency_p50_ms and cpu_us_per_op on adaptive"},
	{Name: "httpapi.sse.frames", Unit: "count", Better: "higher", Moves: "cpu_us_per_op and throughput_per_s on fixed-live"},
	{Name: "httpapi.sse.stats_per_event", Unit: "ratio", Better: "lower", Moves: "cpu_us_per_op on fixed-live"},
	{Name: "live.gap_frames", Unit: "count", Better: "lower", Moves: "the watcher's view of fixed-live (gaps mean dropped events)"},
	{Name: "proc.write_syscalls_per_op", Unit: "ratio", Better: "lower", Moves: "cpu_us_per_op and throughput_per_s on fixed-live, not on adaptive"},
	{Name: "catdelivery.items_per_sitting", Unit: "count", Better: "lower", Moves: "throughput_per_s on adaptive (only if selection or stopping changes)"},
	{Name: "events.published", Unit: "count", Better: "higher", Moves: "cpu_us_per_op on fixed-live"},
	{Name: "events.dropped", Unit: "count", Better: "lower", Moves: "live.gap_frames on fixed-live"},
	{Name: "events.queue_highwater", Unit: "count", Better: "lower", Moves: "live.gap_frames on fixed-live"},
	{Name: "livestats.fold_p99_us", Unit: "us", Better: "lower", Moves: "cpu_us_per_op on fixed-live and adaptive"},
	{Name: "livestats.seq_lag", Unit: "count", Better: "lower", Moves: "the watcher's stats freshness on fixed-live"},
	{Name: "runtime.gc_cpu_fraction", Unit: "ratio", Better: "lower", Moves: "cpu_us_per_op and latency_p90_ms on every workload"},
	{Name: "runtime.sched_latency_p99_us", Unit: "us", Better: "lower", Moves: "latency_p90_ms on every workload"},
	{Name: "runtime.heap_live_mb", Unit: "MB", Better: "lower", Moves: "retained_bytes_per_op and cpu_us_per_op on every workload"},
	{Name: "trace_overhead.throughput_per_s", Unit: "1/s", Better: "lower", Moves: "nothing: traced minus untraced throughput_per_s"},
	{Name: "trace_overhead.latency_p50_ms", Unit: "ms", Better: "lower", Moves: "nothing: traced minus untraced latency_p50_ms"},
	{Name: "trace_overhead.latency_p90_ms", Unit: "ms", Better: "lower", Moves: "nothing: traced minus untraced latency_p90_ms"},
	{Name: "trace_overhead.cpu_us_per_op", Unit: "us", Better: "lower", Moves: "nothing: traced minus untraced cpu_us_per_op"},
}
