package httpapi

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mineassess/internal/delivery"
)

func TestChainOrder(t *testing.T) {
	var got []string
	mark := func(name string) Middleware {
		return func(next http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				got = append(got, name)
				next.ServeHTTP(w, r)
			})
		}
	}
	h := Chain(mark("outer"), mark("inner"))(http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) { got = append(got, "handler") }))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if strings.Join(got, ",") != "outer,inner,handler" {
		t.Errorf("order = %v", got)
	}
}

func TestRequestID(t *testing.T) {
	var seen string
	h := RequestID()(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestIDFrom(r.Context())
	}))

	// Generated when absent, echoed on the response.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if seen == "" || rec.Header().Get("X-Request-ID") != seen {
		t.Errorf("generated ID = %q, header %q", seen, rec.Header().Get("X-Request-ID"))
	}

	// Honoured when a proxy already assigned one.
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set("X-Request-ID", "upstream-7")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "upstream-7" {
		t.Errorf("inbound ID = %q, want upstream-7", seen)
	}
}

func TestAccessLogLine(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := Chain(RequestID(), AccessLog(logger, 0))(http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusTeapot)
			_, _ = w.Write([]byte("short and stout"))
		}))
	req := httptest.NewRequest(http.MethodGet, "/v1/teapot", nil)
	req.Header.Set("X-Learner-ID", "alice")
	h.ServeHTTP(httptest.NewRecorder(), req)
	line := buf.String()
	for _, want := range []string{"method=GET", "path=/v1/teapot", "status=418",
		"bytes=15", "learner=alice", "request_id="} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %s", want, line)
		}
	}
	// An untraced request's line has no trace_id key at all.
	if strings.Contains(line, "trace_id") {
		t.Errorf("untraced log line carries a trace_id: %s", line)
	}
}

func TestRecoverMiddleware(t *testing.T) {
	panics := 0
	h := Recover(slog.New(slog.NewTextHandler(io.Discard, nil)), func() { panics++ })(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			panic("boom")
		}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status = %d, want 500", rec.Code)
	}
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != CodeInternal {
		t.Errorf("body = %s, want INTERNAL envelope", rec.Body.Bytes())
	}
	if panics != 1 {
		t.Errorf("panic counter = %d", panics)
	}
}

func TestRateLimiterBuckets(t *testing.T) {
	clock := newFakeClock()
	l := NewRateLimiter(1, 2, clock.Now) // 1 token/s, burst 2
	for i := 0; i < 2; i++ {
		if !l.Allow("alice") {
			t.Fatalf("burst request %d denied", i)
		}
	}
	if l.Allow("alice") {
		t.Error("request beyond burst allowed")
	}
	// A different learner has their own bucket.
	if !l.Allow("bob") {
		t.Error("independent learner denied")
	}
	// Tokens refill with time.
	clock.Advance(1500 * time.Millisecond)
	if !l.Allow("alice") {
		t.Error("refilled request denied")
	}
	if l.Allow("alice") {
		t.Error("half-refilled token granted")
	}
}

func TestRateLimiterDisabled(t *testing.T) {
	if l := NewRateLimiter(0, 5, nil); l != nil {
		t.Error("rate 0 should disable the limiter")
	}
}

func TestRateLimitMiddleware(t *testing.T) {
	clock := newFakeClock()
	limited := 0
	h := RateLimit(NewRateLimiter(1, 1, clock.Now), nil, func() { limited++ })(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusOK)
		}))
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set("X-Learner-ID", "alice")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("first request = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("missing Retry-After")
	}
	var e Error
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Code != CodeRateLimited {
		t.Errorf("body = %s, want RATE_LIMITED envelope", rec.Body.Bytes())
	}
	if limited != 1 {
		t.Errorf("limited counter = %d", limited)
	}
}

// TestRateLimitHeaderSpoofBounded: cycling fabricated X-Learner-ID values
// defeats the per-learner bucket but not the per-IP aggregate bucket.
func TestRateLimitHeaderSpoofBounded(t *testing.T) {
	clock := newFakeClock()
	h := RateLimit(
		NewRateLimiter(1, 1, clock.Now),
		NewRateLimiter(4, 4, clock.Now), // IP aggregate: 4 burst
		nil,
	)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	allowed := 0
	for i := 0; i < 20; i++ {
		req := httptest.NewRequest(http.MethodGet, "/", nil) // same RemoteAddr
		req.Header.Set("X-Learner-ID", fmt.Sprintf("spoof-%d", i))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code == http.StatusOK {
			allowed++
		}
	}
	if allowed != 4 {
		t.Errorf("spoofing client got %d requests through, want the IP burst of 4", allowed)
	}
}

// TestRateLimitLearnerIsolation: a learner hammering under a fixed ID
// exhausts only their own bucket — the shared IP budget is checked after
// the learner bucket, so NAT peers are untouched.
func TestRateLimitLearnerIsolation(t *testing.T) {
	clock := newFakeClock()
	h := RateLimit(
		NewRateLimiter(1, 1, clock.Now),
		NewRateLimiter(100, 100, clock.Now),
		nil,
	)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	send := func(learner string) int {
		req := httptest.NewRequest(http.MethodGet, "/", nil) // same RemoteAddr
		req.Header.Set("X-Learner-ID", learner)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	send("spammer")
	for i := 0; i < 50; i++ {
		if code := send("spammer"); code != http.StatusTooManyRequests {
			t.Fatalf("spammer request %d = %d, want 429", i, code)
		}
	}
	// The peer behind the same address still has IP budget left because
	// the spammer's denied requests consumed none of it.
	if code := send("peer"); code != http.StatusOK {
		t.Errorf("peer = %d, want 200", code)
	}
}

// TestRateLimitHeaderlessUsesIPBucketOnly: browser/SCO traffic without
// X-Learner-ID is governed by the aggregate per-IP bucket, not squeezed
// into a single learner bucket at the base rate.
func TestRateLimitHeaderlessUsesIPBucketOnly(t *testing.T) {
	clock := newFakeClock()
	h := RateLimit(
		NewRateLimiter(1, 1, clock.Now), // would allow only 1 if misapplied
		NewRateLimiter(16, 16, clock.Now),
		nil,
	)(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	allowed := 0
	for i := 0; i < 20; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		if rec.Code == http.StatusOK {
			allowed++
		}
	}
	if allowed != 16 {
		t.Errorf("headerless traffic got %d through, want the IP burst of 16", allowed)
	}
}

// TestRecoverLogsRequestID: the server chain orders RequestID outside
// Recover, so panic lines carry the ID the client saw.
func TestRecoverLogsRequestID(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	h := Chain(RequestID(), Recover(logger, nil))(
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			panic("boom")
		}))
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.Header.Set("X-Request-ID", "corr-42")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if !strings.Contains(buf.String(), "request_id=corr-42") {
		t.Errorf("panic line missing request ID: %s", buf.String())
	}
}

// TestStreamingThroughMiddleware: a handler that flushes (SSE-style) must
// keep its http.Flusher capability behind the full logging + metrics
// wrapping — the statusRecorder forwards Flush instead of hiding it.
func TestStreamingThroughMiddleware(t *testing.T) {
	m := NewMetrics()
	flushed := 0
	h := Chain(RequestID(), AccessLog(slog.New(slog.NewTextHandler(io.Discard, nil)), 0), Recover(nil, nil))(
		m.instrument("/v1/stream", http.HandlerFunc(
			func(w http.ResponseWriter, r *http.Request) {
				f, ok := w.(http.Flusher)
				if !ok {
					t.Fatal("middleware chain hid http.Flusher from the handler")
				}
				_, _ = w.Write([]byte("data: tick\n\n"))
				f.Flush()
				flushed++
			})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stream", nil))
	if flushed != 1 {
		t.Fatalf("handler flushed %d times", flushed)
	}
	if !rec.Flushed {
		t.Error("flush never reached the underlying writer")
	}
}

// TestResponseControllerThroughMiddleware: the modern flush path —
// http.NewResponseController — must reach the underlying writer via the
// recorder's Unwrap chain.
func TestResponseControllerThroughMiddleware(t *testing.T) {
	m := NewMetrics()
	h := Chain(AccessLog(slog.New(slog.NewTextHandler(io.Discard, nil)), 0))(
		m.instrument("/v1/stream", http.HandlerFunc(
			func(w http.ResponseWriter, r *http.Request) {
				_, _ = w.Write([]byte("x"))
				if err := http.NewResponseController(w).Flush(); err != nil {
					t.Errorf("ResponseController.Flush: %v", err)
				}
			})))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stream", nil))
	if !rec.Flushed {
		t.Error("controller flush never reached the underlying writer")
	}
}

// hijackProbe is a ResponseWriter that records whether Hijack was reached.
type hijackProbe struct {
	http.ResponseWriter
	hijacked bool
}

func (h *hijackProbe) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	h.hijacked = true
	return nil, nil, nil
}

// TestHijackThroughMiddleware: the recorder forwards Hijack when the
// underlying writer supports it and reports http.ErrNotSupported when not.
func TestHijackThroughMiddleware(t *testing.T) {
	probe := &hijackProbe{ResponseWriter: httptest.NewRecorder()}
	h := AccessLog(slog.New(slog.NewTextHandler(io.Discard, nil)), 0)(http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("middleware chain hid http.Hijacker")
			}
			if _, _, err := hj.Hijack(); err != nil {
				t.Errorf("Hijack: %v", err)
			}
		}))
	h.ServeHTTP(probe, httptest.NewRequest(http.MethodGet, "/", nil))
	if !probe.hijacked {
		t.Error("hijack never reached the underlying writer")
	}

	// A plain recorder cannot hijack: the wrapper must say so, not panic.
	h = AccessLog(slog.New(slog.NewTextHandler(io.Discard, nil)), 0)(http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) {
			if _, _, err := w.(http.Hijacker).Hijack(); !errors.Is(err, http.ErrNotSupported) {
				t.Errorf("Hijack on non-hijacker = %v, want http.ErrNotSupported", err)
			}
		}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}

// TestMetricsConcurrentObserve: the per-route stats are pre-registered and
// lock-free; hammering one route from many goroutines (run with -race) must
// lose no count.
func TestMetricsConcurrentObserve(t *testing.T) {
	m := NewMetrics()
	h := m.instrument("/v1/hot", http.HandlerFunc(
		func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusNoContent) }))
	const workers, per = 16, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/hot", nil))
			}
		}()
	}
	wg.Wait()
	snap := m.Snapshot()
	if len(snap.Routes) != 1 || snap.Routes[0].Count != workers*per {
		t.Fatalf("snapshot = %+v, want one route with %d requests", snap.Routes, workers*per)
	}
	if snap.Routes[0].ByStatus["204"] != workers*per {
		t.Errorf("byStatus = %v", snap.Routes[0].ByStatus)
	}
}

func TestMetricsSnapshot(t *testing.T) {
	srv, _ := testServer(t)
	sr := startV1(t, srv.URL, "exam1", "alice")
	doJSON(t, http.MethodGet, srv.URL+"/v1/sessions/"+sr.SessionID, nil, nil)
	doJSON(t, http.MethodGet, srv.URL+"/v1/sessions/ghost", nil, nil)

	var snap MetricsSnapshot
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/v1/metrics", nil, &snap); code != http.StatusOK {
		t.Fatal("metrics fetch failed")
	}
	// Routes are labelled by pattern, not raw path, so the two session GETs
	// share one label.
	var sessions RouteMetrics
	for _, rm := range snap.Routes {
		if rm.Route == "/v1/sessions/" {
			sessions = rm
		}
	}
	if sessions.Count != 2 {
		t.Errorf("session route count = %d, want 2 (routes %+v)", sessions.Count, snap.Routes)
	}
	if sessions.ByStatus["200"] != 1 || sessions.ByStatus["404"] != 1 {
		t.Errorf("byStatus = %v", sessions.ByStatus)
	}
	if snap.Requests < 3 {
		t.Errorf("total requests = %d", snap.Requests)
	}
	if snap.Errors5xx != 0 {
		t.Errorf("errors5xx = %d", snap.Errors5xx)
	}
}

// TestRateLimitDisabledPassthrough: with both limiters nil the middleware
// must return the next handler itself — zero per-request overhead, not a
// wrapper that checks nil on every call.
func TestRateLimitDisabledPassthrough(t *testing.T) {
	next := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
	wrapped := RateLimit(nil, nil, func() { t.Error("onLimited fired with no limiters") })(next)
	if fmt.Sprintf("%p", wrapped) != fmt.Sprintf("%p", next) {
		t.Error("RateLimit(nil, nil) wrapped the handler instead of returning it")
	}
}

// TestRateLimitDisabledEndToEnd: Options.RatePerSec 0 (examserver -rate 0)
// must disable limiting through the whole served chain — one learner
// hammering far past any plausible bucket sees zero 429s and the
// rate-limited metric never ticks. Load harnesses (cmd/loadgen) point at
// servers in exactly this mode; a latent limiter would invalidate every
// capacity number they report.
func TestRateLimitDisabledEndToEnd(t *testing.T) {
	store, _ := examFixture(t, false)
	clock := newFakeClock()
	eng := delivery.NewEngine(store, clock.Now, 8)
	server := NewServer(eng, store, Options{RatePerSec: 0, Burst: 1, Now: clock.Now})
	srv := httptest.NewServer(server)
	t.Cleanup(srv.Close)

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/v1/exams", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Learner-ID", "hammer")
	for i := 0; i < 200; i++ {
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			t.Fatalf("request %d rate limited with RatePerSec 0", i)
		}
	}
	if n := server.Metrics().Snapshot().RateLimited; n != 0 {
		t.Errorf("rateLimited metric = %d, want 0", n)
	}
}
