package main

// Tracing overhead (experiment E26 and the -trace baseline section): the
// E21 journal write path and the E24 load harness re-measured at three
// tracing levels — off (nil tracer), sampled (the production tail-sampling
// configuration) and always-on (every trace retained, the worst case) — so
// the cost of the span machinery is a recorded number, not a hope. The
// acceptance contract is that sampled-mode overhead on the journal path
// stays within ~5% of off, and that recording one child span (start, two
// attrs, end) allocates nothing amortized — pinned to zero by -check-allocs
// alongside the obs record paths.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/item"
	"mineassess/internal/loadgen"
	"mineassess/internal/obs"
	"mineassess/internal/trace"
)

// TraceSection is the "trace" block of BENCH_BASELINE.json.
type TraceSection struct {
	// Journal holds the group-commit write benchmark at each tracing level.
	Journal []JournalResult `json:"journal"`
	// Loadgen holds the open-loop harness smoke run at each tracing level.
	Loadgen []TraceLoadResult `json:"loadgen"`
	// Allocs holds the span-record allocation probe.
	Allocs []HotpathResult `json:"allocs"`
}

// TraceLoadResult is one harness run under a tracing level.
type TraceLoadResult struct {
	Name         string  `json:"name"`
	Requests     int64   `json:"requests"`
	Errors       int64   `json:"errors"`
	RequestP99Ms float64 `json:"requestP99Ms"`
	// Retained is how many traces the tail sampler held at the end — zero
	// when tracing is off, bounded by the retain ring otherwise.
	Retained int `json:"retained"`
}

// traceMode is one tracing level under measurement.
type traceMode struct {
	name   string
	tracer func(reg *obs.Registry) *trace.Tracer
	policy trace.Policy
	on     bool
}

func traceModes() []traceMode {
	return []traceMode{
		{name: "off", tracer: func(*obs.Registry) *trace.Tracer { return nil }},
		{name: "sampled", on: true, policy: trace.PolicySampled,
			tracer: func(reg *obs.Registry) *trace.Tracer {
				return trace.New(trace.Options{Slow: 250 * time.Millisecond,
					SampleEvery: 16, Obs: reg})
			}},
		{name: "always", on: true, policy: trace.PolicyAlways,
			tracer: func(reg *obs.Registry) *trace.Tracer {
				return trace.New(trace.Options{Slow: 250 * time.Millisecond,
					Policy: trace.PolicyAlways, Obs: reg})
			}},
	}
}

// tracedJournal adapts the journaled write path to the journalWriter bench
// interface with every write under a fresh root span — the per-request
// shape the HTTP edge produces, so the measured overhead includes root
// start, the wal.commit child with its retroactive phase spans, and the
// tail-sampling decision at End.
type tracedJournal struct {
	j *bank.Journal
	t *trace.Tracer
}

func (w *tracedJournal) AddProblem(p *item.Problem) error {
	ctx, sp := w.t.StartRoot(context.Background(), "bench.add")
	err := w.j.AddProblemCtx(ctx, p)
	sp.EndErr(err)
	return err
}

func (w *tracedJournal) Close() error { return w.j.Close() }

// measureTraceJournal runs one pass of the E21-shaped journal write
// benchmark at one tracing level.
func measureTraceJournal(m traceMode) (JournalResult, error) {
	open := func(dir string) (journalWriter, error) {
		j, err := bank.OpenJournalWith(dir, bank.NewSharded(0),
			bank.JournalOptions{CompactEvery: 1_000_000, Sync: bank.SyncGroup, Obs: obs.NewRegistry()})
		if err != nil {
			return nil, err
		}
		return &tracedJournal{j: j, t: m.tracer(nil)}, nil
	}
	name := fmt.Sprintf("journal/group/%dw/trace-%s", journalBenchWorkers, m.name)
	return measureJournalWrites(name, open, journalBenchWorkers, 192)
}

// measureTraceLoadgen runs a smoke-scale E24 harness pass at one tracing
// level and reports the merged request p99.
func measureTraceLoadgen(seed int64, m traceMode) (TraceLoadResult, error) {
	ip, err := loadgen.StartInProcess(loadgen.InProcessConfig{
		Trace: m.on, TracePolicy: m.policy,
	})
	if err != nil {
		return TraceLoadResult{}, err
	}
	defer ip.Close()
	runner, err := loadgen.NewRunner(loadgen.Config{
		BaseURL: ip.URL, Mix: e24Mix(), RatePerSec: 150,
		Ramp: time.Second, Soak: 3 * time.Second, Seed: seed,
	})
	if err != nil {
		return TraceLoadResult{}, err
	}
	res, err := runner.Run(context.Background())
	if err != nil {
		return TraceLoadResult{}, err
	}
	out := TraceLoadResult{
		Name:         "loadgen/150ps/trace-" + m.name,
		Requests:     res.RequestCount,
		Errors:       res.Errors,
		RequestP99Ms: res.RequestP99Ms,
	}
	if ip.Tracer != nil {
		out.Retained = len(ip.Tracer.Retained())
	}
	return out, nil
}

// measureTraceAllocs benchmarks the span-record hot path: one child span
// started under a live root, two attributes set, ended. The root is cycled
// every MaxSpans-1 children so every child lands in a fresh slot (an
// overflowing trace would measure the cheaper dropped-span path instead);
// the root's buffer comes from the tracer pool, so its cost amortizes to
// ~0.02 allocs/op across the cycle and the probe pins to zero.
func measureTraceAllocs() []HotpathResult {
	t := trace.New(trace.Options{Slow: time.Hour, SampleEvery: 1 << 30})
	r := testing.Benchmark(func(b *testing.B) {
		var root trace.Span
		left := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if left == 0 {
				if root.Valid() {
					root.End()
				}
				_, root = t.StartRoot(context.Background(), "bench.root")
				left = trace.MaxSpans - 1
			}
			sp := root.Child("bench.child")
			sp.SetStr("bench.kind", "probe")
			sp.SetInt("bench.i", int64(i))
			sp.End()
			left--
		}
		if root.Valid() {
			root.End()
		}
	})
	return []HotpathResult{
		{Name: "trace/span-record", NsPerOp: float64(r.NsPerOp()),
			AllocsPerOp: float64(r.AllocsPerOp())},
	}
}

// measureTraceSuite runs the full E26 measurement set. The journal leg
// interleaves the three modes across rounds and keeps each mode's best
// pass: short group-commit runs are scheduler- and warmup-noisy, and
// interleaving keeps machine drift (CPU frequency, page cache) from
// landing on one mode systematically.
func measureTraceSuite(seed int64) (*TraceSection, error) {
	sec := &TraceSection{}
	modes := traceModes()
	best := make([]JournalResult, len(modes))
	for round := 0; round < 3; round++ {
		for i, m := range modes {
			res, err := measureTraceJournal(m)
			if err != nil {
				return nil, err
			}
			if res.OpsPerSec > best[i].OpsPerSec {
				best[i] = res
			}
		}
	}
	sec.Journal = best
	for _, m := range traceModes() {
		res, err := measureTraceLoadgen(seed, m)
		if err != nil {
			return nil, err
		}
		sec.Loadgen = append(sec.Loadgen, res)
	}
	sec.Allocs = measureTraceAllocs()
	return sec, nil
}

// runE26 prints the tracing overhead comparison.
func runE26(seed int64) error {
	sec, err := measureTraceSuite(seed)
	if err != nil {
		return err
	}
	fmt.Println("journal write throughput, group-commit, tracing off vs sampled vs always-on:")
	for _, r := range sec.Journal {
		fmt.Printf("  %-34s %9.0f ops/s (p50 %.3fms p99 %.3fms)\n", r.Name, r.OpsPerSec, r.P50Ms, r.P99Ms)
	}
	if off, on := sec.Journal[0], sec.Journal[1]; off.OpsPerSec > 0 {
		fmt.Printf("  journal sampled-tracing overhead: %.1f%%\n", 100*(1-on.OpsPerSec/off.OpsPerSec))
	}
	if off, on := sec.Journal[0], sec.Journal[2]; off.OpsPerSec > 0 {
		fmt.Printf("  journal always-on overhead:       %.1f%%\n", 100*(1-on.OpsPerSec/off.OpsPerSec))
	}
	fmt.Println("open-loop harness p99, tracing off vs sampled vs always-on:")
	for _, r := range sec.Loadgen {
		fmt.Printf("  %-34s %6d requests, %d errors, p99 %.2fms, %d traces retained\n",
			r.Name, r.Requests, r.Errors, r.RequestP99Ms, r.Retained)
	}
	fmt.Println("span-record allocation probe (must be zero amortized):")
	for _, r := range sec.Allocs {
		fmt.Printf("  %-34s %8.0f ns/op %8.2f allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	fmt.Println("expected shape: sampled-mode journal throughput within ~5% of off; span record allocates nothing amortized")
	return nil
}

// writeTrace measures the suite and merges it into the baseline file as the
// "trace" section, leaving every other section untouched.
func writeTrace(path string, seed int64) error {
	fmt.Fprintln(os.Stderr, "benchreport: measuring E26 tracing overhead (journal + loadgen at 3 levels)...")
	sec, err := measureTraceSuite(seed)
	if err != nil {
		return err
	}
	doc := map[string]json.RawMessage{}
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &doc); err != nil {
			return fmt.Errorf("existing baseline %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	secRaw, err := json.Marshal(sec)
	if err != nil {
		return err
	}
	doc["trace"] = secRaw
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	fmt.Printf("merged trace section into %s\n", path)
	return nil
}
