package httpapi

import (
	"bytes"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mineassess/internal/delivery"
	"mineassess/internal/obs"
	"mineassess/internal/trace"
)

// TestSlowRequestCorrelation: with -slow-request armed on a traced
// server, one slow request produces a Warn "slow request" access-log line
// carrying both its request ID and its trace ID, and that trace ID
// resolves in the tracer to a trace retained as slow whose tree holds the
// engine call — the path from a slow HTTP line to the layer behind it.
func TestSlowRequestCorrelation(t *testing.T) {
	store, examID := examFixture(t, false)
	eng := delivery.NewEngine(store, nil, 8)
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	tracer := trace.New(trace.Options{Slow: time.Nanosecond})
	srv := httptest.NewServer(NewServer(eng, store, Options{
		Logger:      logger,
		SlowRequest: time.Nanosecond, // everything is "slow"
		Tracer:      tracer,
	}))
	defer srv.Close()

	body := strings.NewReader(`{"studentId":"s1"}`)
	req, err := http.NewRequest(http.MethodPost, srv.URL+"/v1/exams/"+examID+"/sessions", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "corr-99")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("start session = %d", resp.StatusCode)
	}

	logs := buf.String()
	var traceID string
	for _, line := range strings.Split(logs, "\n") {
		if !strings.Contains(line, `msg="slow request"`) {
			continue
		}
		if !strings.Contains(line, "request_id=corr-99") {
			t.Errorf("slow request line lost the request ID: %s", line)
		}
		for _, field := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(field, "trace_id="); ok {
				traceID = v
			}
		}
	}
	if traceID == "" {
		t.Fatalf("no slow request line with a trace_id; logs:\n%s", logs)
	}
	td := tracer.Trace(traceID)
	if td == nil {
		t.Fatalf("trace %s from the log line not in the tracer", traceID)
	}
	if td.Reason != "slow" {
		t.Errorf("trace retained as %q, want slow", td.Reason)
	}
	if findSpan(td.Root, "engine.start") == nil {
		t.Errorf("slow trace lacks engine.start: %s", dumpTree(t, td))
	}
}

// TestMetricsSnapshotQuantiles: routeStats carry a real latency histogram
// now, so the JSON snapshot exports interpolated quantiles alongside the
// old average, and a shared obs registry's samples ride along under
// Subsystems.
func TestMetricsSnapshotQuantiles(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetricsWith(reg)
	h := m.instrument("/v1/x", http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNoContent) }))
	for i := 0; i < 50; i++ {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/x", nil))
	}
	snap := m.Snapshot()
	if len(snap.Routes) != 1 {
		t.Fatalf("routes = %+v", snap.Routes)
	}
	rm := snap.Routes[0]
	if rm.Count != 50 {
		t.Errorf("count = %d", rm.Count)
	}
	if rm.AvgMs <= 0 || rm.P50Ms <= 0 || rm.P99Ms < rm.P50Ms || rm.P999Ms < rm.P99Ms || rm.MaxMs <= 0 {
		t.Errorf("latency stats inconsistent: %+v", rm)
	}
	var sawHist, sawInflight bool
	for _, s := range snap.Subsystems {
		if s.Name == "http_request_seconds_count" && s.Labels["route"] == "/v1/x" {
			sawHist = true
			if s.Value != 50 {
				t.Errorf("subsystem count sample = %v", s.Value)
			}
		}
		if s.Name == "http_requests_inflight" {
			sawInflight = true
		}
	}
	if !sawHist || !sawInflight {
		t.Errorf("subsystem samples missing (hist %v, inflight %v): %+v",
			sawHist, sawInflight, snap.Subsystems)
	}

	// The same cells feed the Prometheus exposition.
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`http_request_seconds_bucket{route="/v1/x",le="+Inf"} 50`,
		`http_request_seconds_count{route="/v1/x"} 50`,
		"# TYPE http_requests_inflight gauge",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("prometheus output missing %q", want)
		}
	}
}

// TestStandaloneMetricsUnchanged: without a registry the metrics still
// count and quantile — NewMetrics callers (benchmarks, old tests) see the
// extended shape with no Subsystems section.
func TestStandaloneMetricsUnchanged(t *testing.T) {
	m := NewMetrics()
	h := m.instrument("/v1/y", http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/y", nil))
	snap := m.Snapshot()
	if len(snap.Routes) != 1 || snap.Routes[0].Count != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Routes[0].P50Ms <= 0 {
		t.Errorf("standalone histogram recorded nothing: %+v", snap.Routes[0])
	}
	if snap.Subsystems != nil {
		t.Errorf("standalone snapshot grew subsystems: %+v", snap.Subsystems)
	}
}
