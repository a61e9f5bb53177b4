package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"mineassess/internal/analysis"
	"mineassess/internal/catdelivery"
	"mineassess/internal/cognition"
	"mineassess/internal/item"
	"mineassess/pkg/api"
	"mineassess/pkg/client"
)

// sample is one timed operation: when it completed, in ns since the window
// started, and how long it took.
type sample struct{ at, dur int64 }

// tally is one worker's share of a measured window.
type tally struct {
	req       []sample // learner requests
	cyc       []sample // review cycles
	unitsAt   []sample // sittings or review cycles
	units     int      // completed sittings or review cycles
	attempted int      // operations issued
	failed    int      // failed operations plus failed checks
	caused    int      // events the worker's successful requests published
	items     int      // adaptive items administered
	failures  []string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 5 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.req = append(t.req, o.req...)
	t.cyc = append(t.cyc, o.cyc...)
	t.unitsAt = append(t.unitsAt, o.unitsAt...)
	t.units += o.units
	t.attempted += o.attempted
	t.failed += o.failed
	t.caused += o.caused
	t.items += o.items
	for _, f := range o.failures {
		if len(t.failures) < 5 {
			t.failures = append(t.failures, f)
		}
	}
}

// worker is one closed-loop client: it sends its next request only after
// the previous reply arrived.
type worker struct {
	idx   int
	seed  int64
	epoch time.Time // window start
	c     *client.Client
	link  *linkTransport // non-nil in the traced run
	rec   *recorder
	t     tally
}

func newWorker(sys *system, tr http.RoundTripper, idx int, seed int64, epoch time.Time) *worker {
	w := &worker{idx: idx, seed: seed, epoch: epoch, rec: sys.rec}
	rt := tr
	if sys.rec != nil {
		w.link = &linkTransport{base: tr}
		rt = w.link
	}
	w.c = client.New(sys.url, client.WithTransport(rt), client.WithLearnerID(fmt.Sprintf("worker-%d", idx)))
	return w
}

// call times one request through pkg/client.
func (w *worker) call(route string, fn func() error) bool {
	var id uint64
	var s0 int64
	if w.link != nil {
		id, s0 = w.rec.begin()
		w.link.cur = id
	}
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	if w.link != nil {
		w.rec.end(id, 0, spanClient, route, s0)
	}
	w.t.attempted++
	if err != nil {
		w.t.fail("%s: %v", route, err)
		return false
	}
	w.t.req = append(w.t.req, sample{at: int64(time.Since(w.epoch)), dur: int64(d)})
	return true
}

// done counts one sitting or review cycle that began at t0.
func (w *worker) done(t0 time.Time) {
	w.t.units++
	w.t.unitsAt = append(w.t.unitsAt, sample{at: int64(time.Since(w.epoch)), dur: int64(time.Since(t0))})
}

// fixedSitting runs one fixed-form sitting: start, one answer per item,
// finish. The graded score must equal the script's own tally of key-A
// answers.
func (w *worker) fixedSitting(b *seededBank, k int) {
	t0 := time.Now()
	responses, correct := fixedScript(w.seed, w.idx, k, b.order, b.params)
	byID := make(map[string]string, len(b.order))
	for i, pid := range b.order {
		byID[pid] = responses[i]
	}
	var start *api.StartSessionResponse
	if !w.call(routeFixedStart, func() (err error) {
		start, err = w.c.StartSession(b.examID, fmt.Sprintf("w%d-s%d", w.idx, k), int64(k))
		return err
	}) {
		return
	}
	w.t.caused++
	for _, pid := range start.Order {
		if !w.call(routeFixedAnswer, func() error { return w.c.Answer(start.SessionID, pid, byID[pid]) }) {
			return
		}
		w.t.caused++
	}
	var res *analysis.StudentResult
	if !w.call(routeFixedFinish, func() (err error) {
		res, err = w.c.Finish(start.SessionID)
		return err
	}) {
		return
	}
	w.t.caused++
	if got := res.Score(nil); got != float64(correct) {
		w.t.fail("sitting %s: score %v, script tally %d", start.SessionID, got, correct)
	}
	w.done(t0)
}

// catSitting runs one adaptive sitting to the engine's stop decision. It
// must stop at the SE target or at the item cap, with a finite ability.
func (w *worker) catSitting(b *seededBank, k int) {
	t0 := time.Now()
	l := newLearner(w.seed, w.idx, k)
	var start *api.StartAdaptiveSessionResponse
	if !w.call(routeCATStart, func() (err error) {
		start, err = w.c.StartAdaptiveSession(api.StartAdaptiveSessionRequest{
			ExamID: b.examID, StudentID: fmt.Sprintf("w%d-s%d", w.idx, k), Seed: int64(k),
			AdaptiveConfig: api.AdaptiveConfig{TargetSE: catTargetSE, MaxItems: catMaxItems},
		})
		return err
	}) {
		return
	}
	for next := start.Next; next != nil; {
		response := l.answer(b.params[next.ProblemID])
		var prog *api.AdaptiveProgress
		if !w.call(routeCATRespond, func() (err error) {
			prog, err = w.c.AdaptiveRespond(start.SessionID, next.ProblemID, response)
			return err
		}) {
			return
		}
		if prog.Done {
			break
		}
		next = prog.Next
	}
	var out *api.AdaptiveOutcome
	if !w.call(routeCATFinish, func() (err error) {
		out, err = w.c.FinishAdaptiveSession(start.SessionID)
		return err
	}) {
		return
	}
	stopped := (out.StopReason == catdelivery.StopSETarget && out.SE <= catTargetSE) ||
		(out.StopReason == catdelivery.StopMaxItems && len(out.Administered) == catMaxItems)
	if !stopped || math.IsNaN(out.Theta) || math.IsInf(out.Theta, 0) {
		w.t.fail("sitting %s: stop %q after %d items at SE %v, theta %v",
			out.SessionID, out.StopReason, len(out.Administered), out.SE, out.Theta)
	}
	w.t.items += len(out.Administered)
	w.done(t0)
}

// reviewCycle is the teacher's loop: revise one question's wording, export
// the results, analyze them, and build the two-way coverage table. The
// benchmark's checks run after the timed cycle.
func (w *worker) reviewCycle(b *seededBank, k int, concepts []cognition.Concept) {
	cid, c0 := w.rec.begin()
	t0 := time.Now()
	orig := b.problems[b.order[k%len(b.order)]]
	revised := *orig
	revised.Question = fmt.Sprintf("%s (revision %d)", orig.Question, k+1)
	var res *analysis.ExamResult
	ok := w.call(routeProblemsUpdate, func() error { return w.c.UpdateProblem(&revised) }) &&
		w.call(routeResultsExport, func() (err error) {
			res, err = w.c.Results(b.examID)
			return err
		})
	var an *analysis.ExamAnalysis
	var table *cognition.TwoWayTable
	var err error
	if ok {
		id, s0 := w.rec.begin()
		an, err = analysis.Analyze(res, analysis.Options{})
		w.rec.end(id, cid, spanAnalyze, "", s0)
		w.t.attempted++
		if err != nil {
			w.t.fail("analyze: %v", err)
			ok = false
		}
	}
	if ok {
		id, s0 := w.rec.begin()
		table, err = coverageTable(res, concepts)
		w.rec.end(id, cid, spanCoverage, "", s0)
		w.t.attempted++
		if err != nil {
			w.t.fail("coverage: %v", err)
			ok = false
		}
	}
	d := time.Since(t0)
	w.rec.end(cid, 0, spanCycle, "", c0)
	if !ok {
		return
	}
	w.t.cyc = append(w.t.cyc, sample{at: int64(time.Since(w.epoch)), dur: int64(d)})
	w.done(t0)
	checkReview(&w.t, b, &revised, res, an, table)
}

// coverageTable builds the cognition two-way table of the exported
// problems and runs its coverage analysis.
func coverageTable(res *analysis.ExamResult, concepts []cognition.Concept) (*cognition.TwoWayTable, error) {
	table := cognition.NewTwoWayTable(concepts)
	for _, p := range res.Problems {
		if err := table.Add(p.ID, p.ConceptID, p.Level); err != nil {
			return nil, err
		}
	}
	table.Analyze()
	return table, nil
}

func checkReview(t *tally, b *seededBank, revised *item.Problem, res *analysis.ExamResult, an *analysis.ExamAnalysis, table *cognition.TwoWayTable) {
	if an.Groups.ClassSize != b.cohort || len(res.Students) != b.cohort {
		t.fail("class size %d (%d exported), cohort %d", an.Groups.ClassSize, len(res.Students), b.cohort)
	}
	for _, q := range an.Questions {
		if want := float64(b.correct[q.ProblemID]) / float64(b.cohort); q.OverallP != want {
			t.fail("question %s: P %v, cohort tally %v", q.ProblemID, q.OverallP, want)
		}
	}
	for _, p := range res.Problems {
		if p.ID == revised.ID && (p.Question != revised.Question || p.Answer != "A") {
			t.fail("problem %s: exported %q key %q after revision %q", p.ID, p.Question, p.Answer, revised.Question)
		}
	}
	if table.Total() != len(b.order) {
		t.fail("coverage table holds %d questions, exam has %d", table.Total(), len(b.order))
	}
}

// --- the live watcher ---

// watcher holds /v1/exams/{id}/live open for a whole window and checks the
// stream: event IDs run on without holes (events a gap marker announces as
// dropped count as seen), and no stats frame is ahead of the last event ID.
type watcher struct {
	stream *client.EventStream
	cancel context.CancelFunc
	done   chan struct{}
	seen   atomic.Uint64 // last event ID, for the catch-up wait
	base   uint64        // exam sequence when the stream opened

	// Owned by the reading goroutine until done is closed.
	last, skipped       uint64
	events, stats, gaps int
	lag                 []int64
	t                   tally
}

func startWatcher(sys *system, tr http.RoundTripper, examID string) (*watcher, error) {
	ctx, cancel := context.WithCancel(context.Background())
	c := client.New(sys.url, client.WithTransport(tr), client.WithLearnerID("watcher"))
	base := sys.bus.Seq(examID)
	stream, err := c.StreamExamLive(ctx, examID, "")
	if err != nil {
		cancel()
		return nil, fmt.Errorf("open live stream: %w", err)
	}
	w := &watcher{stream: stream, cancel: cancel, done: make(chan struct{}), base: base, last: base}
	w.seen.Store(base)
	go w.read(ctx)
	return w, nil
}

// frame is the part of an SSE payload the watcher reads.
type frame struct {
	Seq     uint64    `json:"seq"`
	Dropped uint64    `json:"dropped"`
	At      time.Time `json:"at"`
}

func (w *watcher) read(ctx context.Context) {
	defer close(w.done)
	for {
		f, err := w.stream.Next()
		now := time.Now()
		if err != nil {
			if ctx.Err() == nil {
				w.t.fail("live stream ended: %v", err)
			}
			return
		}
		var fr frame
		if err := json.Unmarshal(f.Data, &fr); err != nil {
			w.t.fail("live frame %q: %v", f.Event, err)
			continue
		}
		switch {
		case f.IsGap():
			w.gaps++
			w.skipped += fr.Dropped
		case f.IsStats():
			w.stats++
			if fr.Seq > w.last {
				w.t.fail("stats frame at seq %d ahead of last event %d", fr.Seq, w.last)
			}
		default:
			id, err := strconv.ParseUint(f.ID, 10, 64)
			if err != nil || id != w.last+1+w.skipped {
				w.t.fail("event id %q after %d with %d announced dropped", f.ID, w.last, w.skipped)
			}
			w.last, w.skipped = id, 0
			w.events++
			w.lag = append(w.lag, int64(now.Sub(fr.At)))
			w.seen.Store(id)
		}
	}
}

// finish waits (bounded) until the stream has delivered every event the
// learners caused, closes it, and checks the count.
func (w *watcher) finish(sys *system, examID string, caused int) {
	head := sys.bus.Seq(examID)
	for deadline := time.Now().Add(5 * time.Second); w.seen.Load() < head && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	w.cancel()
	w.stream.Close()
	<-w.done
	if got := head - w.base; got != uint64(caused) {
		w.t.fail("bus published %d events on %s, learners caused %d", got, examID, caused)
	}
	if got := w.last + w.skipped - w.base; got != uint64(caused) {
		w.t.fail("watcher accounted for %d events, learners caused %d", got, caused)
	}
}
