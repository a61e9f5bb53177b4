package main

// The traced run's instrumentation. It lives entirely in the benchmark: it
// wraps the public entry points of each layer from the outside (the
// pkg/client transport, httpapi.Server.ServeHTTP, a bank.Storage decorator,
// and the calls into analysis and cognition) and records one span per call.
// Spans stay in memory until the run ends.

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mineassess/internal/bank"
	"mineassess/internal/item"
)

// Span names, one per layer boundary.
const (
	spanClient    = "client"
	spanServe     = "httpapi.serve"
	spanBankRead  = "bank.read"
	spanBankWrite = "bank.write"
	spanAnalyze   = "analysis.analyze"
	spanCoverage  = "cognition.coverage"
	spanCycle     = "review.cycle"
)

// parentHeader carries the client span's ID to the server so the serve span
// can name its parent.
const parentHeader = "X-Perfbench-Parent"

// span is one timed call. Start and End are nanoseconds since the
// recorder's epoch; Parent 0 means none is known.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder collects spans. A nil *recorder records nothing. Spans are
// stored without pointers (names interned to indexes), so a run's hundreds
// of thousands of spans add nothing to the garbage collector's marking work.
type recorder struct {
	epoch time.Time
	next  atomic.Uint64
	mu    sync.Mutex
	raw   []rawSpan
	names []string
	index map[string]uint16
}

type rawSpan struct {
	id, parent uint64
	name, op   uint16
	start, end int64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), index: map[string]uint16{}}
}

// begin allocates a span ID and reads the start time.
func (r *recorder) begin() (uint64, int64) {
	if r == nil {
		return 0, 0
	}
	return r.next.Add(1), int64(time.Since(r.epoch))
}

// end records a span that began at start.
func (r *recorder) end(id, parent uint64, name, op string, start int64) {
	if r == nil {
		return
	}
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.raw = append(r.raw, rawSpan{id: id, parent: parent, name: r.intern(name), op: r.intern(op), start: start, end: end})
	r.mu.Unlock()
}

// intern returns s's index in r.names; r.mu is held.
func (r *recorder) intern(s string) uint16 {
	i, ok := r.index[s]
	if !ok {
		i = uint16(len(r.names))
		r.names = append(r.names, s)
		r.index[s] = i
	}
	return i
}

// reset drops every span recorded so far (set-up traffic).
func (r *recorder) reset() {
	r.mu.Lock()
	r.raw = nil
	r.mu.Unlock()
}

// snapshot returns the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, len(r.raw))
	for i, x := range r.raw {
		out[i] = span{ID: x.id, Parent: x.parent, Name: r.names[x.name], Op: r.names[x.op], Start: x.start, End: x.end}
	}
	return out
}

// writeJSONL writes the spans one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type spanKey struct{}

// parentFrom returns the serve span a request context carries, or 0.
func parentFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(spanKey{}).(uint64)
	return id
}

// --- pkg/client side ---

// linkTransport stamps each request with the ID of the client span that is
// open on the worker that owns it. One worker issues one request at a time,
// and http.Client calls RoundTrip on the caller's goroutine, so cur needs
// no lock.
type linkTransport struct {
	base http.RoundTripper
	cur  uint64
}

func (t *linkTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set(parentHeader, strconv.FormatUint(t.cur, 10))
	return t.base.RoundTrip(req)
}

// --- httpapi side ---

// servedRoute names the benchmark routes; "" for anything else (the SSE
// stream, which lasts the whole run, is not a request).
func servedRoute(method, path string) string {
	switch {
	case method == http.MethodPost && strings.HasPrefix(path, "/v1/exams/") && strings.HasSuffix(path, "/sessions"):
		return routeFixedStart
	case method == http.MethodPost && strings.HasPrefix(path, "/v1/sessions/") && strings.HasSuffix(path, ":answer"):
		return routeFixedAnswer
	case method == http.MethodPost && strings.HasPrefix(path, "/v1/sessions/") && strings.HasSuffix(path, ":finish"):
		return routeFixedFinish
	case method == http.MethodPost && path == "/v1/adaptive-sessions":
		return routeCATStart
	case method == http.MethodPost && strings.HasPrefix(path, "/v1/adaptive-sessions/") && strings.HasSuffix(path, ":respond"):
		return routeCATRespond
	case method == http.MethodPost && strings.HasPrefix(path, "/v1/adaptive-sessions/") && strings.HasSuffix(path, ":finish"):
		return routeCATFinish
	case method == http.MethodPut && strings.HasPrefix(path, "/v1/problems/"):
		return routeProblemsUpdate
	case method == http.MethodGet && strings.HasPrefix(path, "/v1/exams/") && strings.HasSuffix(path, "/results"):
		return routeResultsExport
	}
	return ""
}

// tracedHandler times Server.ServeHTTP. The serve span's ID rides the
// request context down to the bank decorator.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	route := servedRoute(r.Method, r.URL.Path)
	if route == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseUint(r.Header.Get(parentHeader), 10, 64)
	id, t0 := h.rec.begin()
	h.next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanKey{}, id)))
	h.rec.end(id, parent, spanServe, route, t0)
}

// --- bank side ---

// tracedStorage is a bank.Storage decorator over the journal, timing every
// mutation and the record reads the request path makes. It provides the
// journal's *Ctx forms, so the engines keep journaling with the request's
// context (and the spans get their parent from it); the plain forms carry
// no context, so their spans are unparented. Methods not overridden pass
// through untimed.
type tracedStorage struct {
	*bank.Journal
	rec *recorder
}

// ctxJournal is the context-aware write API the engines and handlers look
// for on their store.
type ctxJournal interface {
	AddProblemCtx(ctx context.Context, p *item.Problem) error
	PutAdaptiveSessionCtx(ctx context.Context, rec *bank.AdaptiveSessionRecord) error
}

var (
	_ bank.Storage = (*tracedStorage)(nil)
	_ ctxJournal   = (*tracedStorage)(nil)
)

func (s *tracedStorage) timed(parent uint64, name, op string, call func() error) error {
	id, t0 := s.rec.begin()
	err := call()
	s.rec.end(id, parent, name, op, t0)
	return err
}

func (s *tracedStorage) AddProblem(p *item.Problem) error {
	return s.timed(0, spanBankWrite, "AddProblem", func() error { return s.Journal.AddProblem(p) })
}

func (s *tracedStorage) AddProblemCtx(ctx context.Context, p *item.Problem) error {
	return s.timed(parentFrom(ctx), spanBankWrite, "AddProblemCtx", func() error { return s.Journal.AddProblemCtx(ctx, p) })
}

func (s *tracedStorage) UpdateProblem(p *item.Problem) error {
	return s.timed(0, spanBankWrite, "UpdateProblem", func() error { return s.Journal.UpdateProblem(p) })
}

func (s *tracedStorage) DeleteProblem(id string) error {
	return s.timed(0, spanBankWrite, "DeleteProblem", func() error { return s.Journal.DeleteProblem(id) })
}

func (s *tracedStorage) AddExam(e *bank.ExamRecord) error {
	return s.timed(0, spanBankWrite, "AddExam", func() error { return s.Journal.AddExam(e) })
}

func (s *tracedStorage) UpdateExam(e *bank.ExamRecord) error {
	return s.timed(0, spanBankWrite, "UpdateExam", func() error { return s.Journal.UpdateExam(e) })
}

func (s *tracedStorage) DeleteExam(id string) error {
	return s.timed(0, spanBankWrite, "DeleteExam", func() error { return s.Journal.DeleteExam(id) })
}

func (s *tracedStorage) PutAdaptiveSession(rec *bank.AdaptiveSessionRecord) error {
	return s.timed(0, spanBankWrite, "PutAdaptiveSession", func() error { return s.Journal.PutAdaptiveSession(rec) })
}

func (s *tracedStorage) PutAdaptiveSessionCtx(ctx context.Context, rec *bank.AdaptiveSessionRecord) error {
	return s.timed(parentFrom(ctx), spanBankWrite, "PutAdaptiveSessionCtx", func() error {
		return s.Journal.PutAdaptiveSessionCtx(ctx, rec)
	})
}

func (s *tracedStorage) DeleteAdaptiveSession(id string) error {
	return s.timed(0, spanBankWrite, "DeleteAdaptiveSession", func() error { return s.Journal.DeleteAdaptiveSession(id) })
}

func (s *tracedStorage) Rollback(id string) (p *item.Problem, err error) {
	err = s.timed(0, spanBankWrite, "Rollback", func() (err error) {
		p, err = s.Journal.Rollback(id)
		return err
	})
	return p, err
}

func (s *tracedStorage) Problem(id string) (p *item.Problem, err error) {
	err = s.timed(0, spanBankRead, "Problem", func() (err error) {
		p, err = s.Journal.Problem(id)
		return err
	})
	return p, err
}

func (s *tracedStorage) Problems(ids []string) (ps []*item.Problem, err error) {
	err = s.timed(0, spanBankRead, "Problems", func() (err error) {
		ps, err = s.Journal.Problems(ids)
		return err
	})
	return ps, err
}

func (s *tracedStorage) Exam(id string) (e *bank.ExamRecord, err error) {
	err = s.timed(0, spanBankRead, "Exam", func() (err error) {
		e, err = s.Journal.Exam(id)
		return err
	})
	return e, err
}

func (s *tracedStorage) AdaptiveSession(id string) (rec *bank.AdaptiveSessionRecord, err error) {
	err = s.timed(0, spanBankRead, "AdaptiveSession", func() (err error) {
		rec, err = s.Journal.AdaptiveSession(id)
		return err
	})
	return rec, err
}

// --- attribution ---

// attribution is what the traced run's spans say about where time went.
type attribution struct {
	// Latencies in nanoseconds, one entry per span.
	wire, serve, self, bankRead, bankWrite, analyze, coverage []int64
	serveByRoute, selfByRoute                                 map[string][]int64
	// Summed nanoseconds per layer, over the workload's operations.
	total, sumWire, sumSelf, sumRead, sumWrite, sumAnalyze, sumCoverage int64
	// Bank calls and how many could be tied to the serve span that made
	// them (through the context, or as the only request in flight).
	bankCalls, bankAttributed int
}

// attribute joins the spans into per-layer times. opName is the span whose
// durations make up the workload's operation time: the client call for
// learner workloads, the review cycle for review.
func attribute(spans []span, opName string) *attribution {
	a := &attribution{serveByRoute: map[string][]int64{}, selfByRoute: map[string][]int64{}}
	clients := map[uint64]span{}
	var serves []span
	var banks []span
	for _, s := range spans {
		switch s.Name {
		case spanClient:
			clients[s.ID] = s
		case spanServe:
			serves = append(serves, s)
		case spanBankRead, spanBankWrite:
			banks = append(banks, s)
		case spanAnalyze:
			a.analyze = append(a.analyze, s.dur())
			a.sumAnalyze += s.dur()
		case spanCoverage:
			a.coverage = append(a.coverage, s.dur())
			a.sumCoverage += s.dur()
		}
		if s.Name == opName {
			a.total += s.dur()
		}
	}
	// Serve spans do not nest, and at most one per worker is open at a
	// time, so containment finds the request an unparented bank call ran
	// in whenever exactly one was in flight.
	slices.SortFunc(serves, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
	serveIdx := make(map[uint64]int, len(serves))
	for i, s := range serves {
		serveIdx[s.ID] = i
	}
	children := make([]int64, len(serves))
	for _, b := range banks {
		a.bankCalls++
		if b.Name == spanBankRead {
			a.bankRead = append(a.bankRead, b.dur())
		} else {
			a.bankWrite = append(a.bankWrite, b.dur())
		}
		i, ok := serveIdx[b.Parent]
		if !ok {
			i, ok = containing(serves, b)
		}
		if !ok {
			continue
		}
		a.bankAttributed++
		children[i] += b.dur()
		if b.Name == spanBankRead {
			a.sumRead += b.dur()
		} else {
			a.sumWrite += b.dur()
		}
	}
	for i, s := range serves {
		self := s.dur() - children[i]
		a.serve = append(a.serve, s.dur())
		a.self = append(a.self, self)
		a.serveByRoute[s.Op] = append(a.serveByRoute[s.Op], s.dur())
		a.selfByRoute[s.Op] = append(a.selfByRoute[s.Op], self)
		a.sumSelf += self
		if c, ok := clients[s.Parent]; ok {
			w := c.dur() - s.dur()
			a.wire = append(a.wire, w)
			a.sumWire += w
		}
	}
	return a
}

// containing returns the index of the only serve span whose interval holds
// b, if exactly one does.
func containing(serves []span, b span) (int, bool) {
	// Last serve span starting at or before b.
	lo, hi := 0, len(serves)
	for lo < hi {
		m := (lo + hi) / 2
		if serves[m].Start <= b.Start {
			lo = m + 1
		} else {
			hi = m
		}
	}
	found, n := -1, 0
	// Requests in flight overlap by at most the worker count, so a short
	// look back covers every candidate.
	for i := lo - 1; i >= 0 && i >= lo-64; i-- {
		if serves[i].End >= b.End {
			found = i
			n++
		}
	}
	return found, n == 1
}

// share returns part as a percentage of whole.
func share(part, whole int64) float64 {
	if whole <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
