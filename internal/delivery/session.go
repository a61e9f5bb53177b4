// Package delivery is the on-line exam runtime: learners take exams through
// sessions with time limits (§3.4 II), pause/resume semantics (§3.2 VI B),
// automatic grading, and a monitor subsystem that captures client pictures
// during the exam (§5). Results stream into the analysis package's response
// matrices. The HTTP front end (versioned /v1 API, SCORM RTE bridge,
// authoring CRUD) lives in internal/httpapi.
//
// Concurrency model: the engine keeps sessions in a sharded registry
// (registry.go); each Session carries its own mutex. A per-learner operation
// — Answer, Status, Pause, Resume, Finish, AssignGrade — takes one shard
// read-lock for the lookup and then only that session's lock, so unrelated
// learners never contend and a slow grade computation stalls nobody else.
// Cross-session views (CollectResults, SessionSummaries, PendingGrades)
// iterate shard by shard without any stop-the-world lock.
package delivery

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mineassess/internal/analysis"
	"mineassess/internal/authoring"
	"mineassess/internal/bank"
	"mineassess/internal/events"
	"mineassess/internal/item"
	"mineassess/internal/scorm"
	"mineassess/internal/trace"
)

// SessionState is a session's lifecycle state.
type SessionState int

// Session states.
const (
	StateRunning SessionState = iota + 1
	StatePaused
	StateFinished
	StateExpired
)

// String returns the state name.
func (s SessionState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StatePaused:
		return "paused"
	case StateFinished:
		return "finished"
	case StateExpired:
		return "expired"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Errors callers may match.
var (
	ErrSessionNotFound  = errors.New("delivery: session not found")
	ErrSessionNotActive = errors.New("delivery: session is not running")
	ErrNotPaused        = errors.New("delivery: session is not paused")
	ErrNotResumable     = errors.New("delivery: exam is not resumable")
	ErrTimeExpired      = errors.New("delivery: test time expired")
	ErrUnknownProblem   = errors.New("delivery: problem not in this exam")
	ErrAlreadyAnswered  = errors.New("delivery: problem already answered")
)

// answer is one recorded response.
type answer struct {
	response string
	credit   float64
	gradable bool
	spent    time.Duration
}

// Session is one learner's sitting of one exam. ID, ExamID, StudentID and
// Order are fixed at Start and safe to read without locking; all other
// state — including the SCORM API and its data model — is guarded by mu.
// Engine operations and RTEExec take the lock; the raw RTE accessor is the
// single-threaded escape hatch (see its comment).
type Session struct {
	ID        string
	ExamID    string
	StudentID string
	// Order is the presentation order of problem IDs for this sitting.
	Order []string

	mu          sync.Mutex
	state       SessionState
	startedAt   time.Time
	lastEvent   time.Time // previous answer/pause boundary, for per-item time
	pausedAt    time.Time
	activeSpent time.Duration // running time excluding pauses
	limit       time.Duration // 0 = unlimited
	answers     map[string]answer
	problems    map[string]*item.Problem
	// optionMaps maps, per shuffled problem, the presented option key back
	// to the authored key (RandomOrder exams shuffle options per sitting).
	optionMaps map[string]map[string]string
	api        *scorm.API
	data       *scorm.DataModel
}

// snapshotStatus summarizes the session. Callers hold s.mu.
func (s *Session) snapshotStatus(now time.Time) Status {
	st := Status{
		SessionID: s.ID,
		ExamID:    s.ExamID,
		StudentID: s.StudentID,
		State:     s.state,
		Answered:  len(s.answers),
		Total:     len(s.Order),
	}
	if s.limit > 0 && (s.state == StateRunning || s.state == StatePaused) {
		remaining := s.limit - s.elapsedActive(now)
		if remaining < 0 {
			remaining = 0
		}
		// Round up: a live session with any time left — even a fraction of
		// a second — reports at least 1, so RemainingSeconds == 0 uniquely
		// means the clock has run out (truncation used to report 0 on a
		// session that was still accepting answers). Paused sessions report
		// the remainder they would resume with; their clock is stopped.
		st.RemainingSeconds = int((remaining + time.Second - 1) / time.Second)
	}
	return st
}

func (s *Session) elapsedActive(now time.Time) time.Duration {
	if s.state == StatePaused {
		return s.activeSpent
	}
	return s.activeSpent + now.Sub(s.lastEvent)
}

// Status is the externally visible session summary.
type Status struct {
	SessionID        string       `json:"sessionId"`
	ExamID           string       `json:"examId"`
	StudentID        string       `json:"studentId"`
	State            SessionState `json:"-"`
	StateName        string       `json:"state"`
	Answered         int          `json:"answered"`
	Total            int          `json:"total"`
	RemainingSeconds int          `json:"remainingSeconds"`
}

// Engine manages sessions over a problem/exam bank. The clock is injectable
// for tests and simulations. It holds no global lock: per-session operations
// synchronize only on the session itself (see the package comment).
type Engine struct {
	store    bank.Storage
	registry *registry
	now      func() time.Time
	monitor  *Monitor
	nextID   atomic.Int64
	// bus receives lifecycle events (nil disables emission — a nil
	// *events.Bus is a valid no-op publisher, so emit sites are
	// unconditional). Emission is fire-and-forget and never blocks, so it
	// adds only memory-op cost to the learner's request.
	bus *events.Bus
}

// SetEventBus attaches a live event bus; engine operations publish
// session.started / response.submitted / session.finished / session.expired
// events onto it. Call before serving traffic (the field is not
// synchronized against in-flight operations).
func (e *Engine) SetEventBus(b *events.Bus) { e.bus = b }

// NewEngine builds an engine over any bank.Storage with the default session
// shard count. now may be nil for wall-clock time; monitorCapacity bounds
// the per-session snapshot ring (0 disables monitoring).
func NewEngine(store bank.Storage, now func() time.Time, monitorCapacity int) *Engine {
	return NewShardedEngine(store, now, monitorCapacity, DefaultSessionShards)
}

// NewShardedEngine is NewEngine with an explicit session shard count.
// shards <= 0 means DefaultSessionShards; shards == 1 serializes all session
// lookups on one shard lock (per-session locks still apply) and exists
// mainly as a contention baseline for benchmarks.
func NewShardedEngine(store bank.Storage, now func() time.Time, monitorCapacity, shards int) *Engine {
	if now == nil {
		now = time.Now
	}
	return &Engine{
		store:    store,
		registry: newRegistry(shards),
		now:      now,
		monitor:  NewMonitor(monitorCapacity),
	}
}

// Monitor exposes the engine's monitor subsystem.
func (e *Engine) Monitor() *Monitor {
	return e.monitor
}

// SessionCount returns the number of sessions the engine has registered
// (any state).
func (e *Engine) SessionCount() int {
	return e.registry.count()
}

// HasSession reports whether a session ID is registered, in any state. The
// HTTP layer uses it to distinguish "no such session" (404) from "a session
// with no data yet" before reading monitor rings.
func (e *Engine) HasSession(sessionID string) bool {
	_, err := e.registry.get(sessionID)
	return err == nil
}

// Start opens a session for the student on the exam, computing the
// presentation order with the given seed (used only for RandomOrder exams).
// All assembly work happens before the session is published, so Start holds
// no lock while reading the bank or shuffling options.
func (e *Engine) Start(examID, studentID string, seed int64) (*Session, error) {
	return e.StartCtx(context.Background(), examID, studentID, seed)
}

// StartCtx is Start under a request context: a traced request gains an
// engine.start child span whose subtree includes the session.started bus
// publish. The context does not cancel the operation.
func (e *Engine) StartCtx(ctx context.Context, examID, studentID string, seed int64) (_ *Session, err error) {
	ctx, sp := trace.StartSpan(ctx, "engine.start")
	sp.SetStr("exam.id", examID)
	defer func() { sp.EndErr(err) }()
	rec, err := e.store.Exam(examID)
	if err != nil {
		return nil, err
	}
	order, err := authoring.PresentationOrder(rec, seed)
	if err != nil {
		return nil, err
	}
	problems, err := e.store.Problems(order)
	if err != nil {
		return nil, err
	}
	byID := make(map[string]*item.Problem, len(problems))
	optionMaps := make(map[string]map[string]string)
	for i, p := range problems {
		// RandomOrder exams also shuffle each problem's options so
		// neighbouring learners see different letters; responses are mapped
		// back to authored keys when results are collected.
		if rec.Display == item.RandomOrder && len(p.Options) > 1 {
			shuffled, mapping, err := authoring.ShuffleOptions(p, seed+int64(i)*2654435761)
			if err != nil {
				return nil, fmt.Errorf("delivery: shuffle %s: %w", p.ID, err)
			}
			p = shuffled
			optionMaps[p.ID] = mapping
		}
		byID[p.ID] = p
	}

	now := e.now()
	s := &Session{
		ID:         fmt.Sprintf("sess-%06d", e.nextID.Add(1)),
		ExamID:     examID,
		StudentID:  studentID,
		Order:      order,
		state:      StateRunning,
		startedAt:  now,
		lastEvent:  now,
		limit:      time.Duration(rec.TestTimeSeconds) * time.Second,
		answers:    make(map[string]answer, len(order)),
		problems:   byID,
		optionMaps: optionMaps,
	}
	s.data = scorm.NewDataModel(studentID, studentID)
	s.api = scorm.NewAPI(s.data, nil)
	if got := s.api.LMSInitialize(""); got != "true" {
		return nil, fmt.Errorf("delivery: RTE initialize failed (%s)", s.api.LMSGetLastError())
	}
	e.registry.put(s)
	e.monitor.Capture(s.ID, now)
	// Publishes detach from the request context: the event outlives the
	// request (cancelation must not reach subscribers) but keeps the trace
	// span and request ID so the bus.publish span parents correctly.
	e.bus.PublishCtx(trace.Detach(ctx), events.Event{
		Type: events.SessionStarted, ExamID: examID, SessionID: s.ID,
		StudentID: studentID, Problems: order, Total: len(order), At: now,
	})
	return s, nil
}

// lock looks up the session and returns it locked. The caller must Unlock.
func (e *Engine) lock(sessionID string) (*Session, error) {
	s, err := e.registry.get(sessionID)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	return s, nil
}

// checkTime expires the session once its limit is reached. The boundary is
// inclusive (>=) so the status contract stays exact: a running session
// always has remaining time and reports RemainingSeconds >= 1, and 0
// appears only together with the expired state. ctx scopes the expiry
// event's publish (see StartCtx). Callers hold s.mu.
func (e *Engine) checkTime(ctx context.Context, s *Session, now time.Time) error {
	if s.limit > 0 && s.state == StateRunning && s.elapsedActive(now) >= s.limit {
		s.activeSpent = s.limit
		s.state = StateExpired
		e.finishRTE(s)
		score, max := s.scoreLocked()
		e.bus.PublishCtx(trace.Detach(ctx), events.Event{
			Type: events.SessionExpired, ExamID: s.ExamID, SessionID: s.ID,
			StudentID: s.StudentID, Answered: len(s.answers), Total: len(s.Order),
			Score: score, MaxScore: max, At: now,
		})
		return fmt.Errorf("%w: session %s", ErrTimeExpired, s.ID)
	}
	return nil
}

// Answer records the learner's response to a problem and grades it. Every
// answer triggers a monitor capture ("monitor function captures the client
// picture", §5). Only this learner's session is locked; grading a slow
// problem never delays other sessions.
func (e *Engine) Answer(sessionID, problemID, response string) error {
	return e.AnswerCtx(context.Background(), sessionID, problemID, response)
}

// AnswerCtx is Answer under a request context (engine.answer span).
func (e *Engine) AnswerCtx(ctx context.Context, sessionID, problemID, response string) (err error) {
	ctx, sp := trace.StartSpan(ctx, "engine.answer")
	sp.SetStr("problem.id", problemID)
	defer func() { sp.EndErr(err) }()
	s, err := e.lock(sessionID)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	now := e.now()
	if err := e.checkTime(ctx, s, now); err != nil {
		return err
	}
	if s.state != StateRunning {
		return fmt.Errorf("%w: %s is %s", ErrSessionNotActive, s.ID, s.state)
	}
	p, ok := s.problems[problemID]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownProblem, problemID)
	}
	if _, dup := s.answers[problemID]; dup {
		return fmt.Errorf("%w: %s", ErrAlreadyAnswered, problemID)
	}
	credit, gradable := p.Grade(response)
	spent := now.Sub(s.lastEvent)
	s.activeSpent += spent
	s.lastEvent = now
	s.answers[problemID] = answer{
		response: response, credit: credit, gradable: gradable, spent: spent,
	}
	s.api.LMSSetValue("cmi.core.lesson_location", problemID)
	e.monitor.Capture(s.ID, now)
	e.bus.PublishCtx(trace.Detach(ctx), events.Event{
		Type: events.ResponseSubmitted, ExamID: s.ExamID, SessionID: s.ID,
		StudentID: s.StudentID, ProblemID: problemID,
		Correct: gradable && credit >= 1-1e-9, Credit: credit,
		Answered: len(s.answers), Total: len(s.Order), At: now,
	})
	return nil
}

// Pause suspends a session. Allowed only when every problem in the exam is
// resumable (§3.2 VI B: paused to resume at a later time).
func (e *Engine) Pause(sessionID string) error {
	s, err := e.lock(sessionID)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	now := e.now()
	if err := e.checkTime(context.Background(), s, now); err != nil {
		return err
	}
	if s.state != StateRunning {
		return fmt.Errorf("%w: %s is %s", ErrSessionNotActive, s.ID, s.state)
	}
	for _, p := range s.problems {
		if !p.Resumable {
			return fmt.Errorf("%w: problem %s", ErrNotResumable, p.ID)
		}
	}
	s.activeSpent += now.Sub(s.lastEvent)
	s.pausedAt = now
	s.state = StatePaused
	s.api.LMSSetValue("cmi.core.exit", "suspend")
	return nil
}

// Resume reactivates a paused session; paused time does not count against
// the limit.
func (e *Engine) Resume(sessionID string) error {
	s, err := e.lock(sessionID)
	if err != nil {
		return err
	}
	defer s.mu.Unlock()
	if s.state != StatePaused {
		return fmt.Errorf("%w: %s is %s", ErrNotPaused, s.ID, s.state)
	}
	s.lastEvent = e.now()
	s.state = StateRunning
	return nil
}

// Finish closes the session, grades it, and writes score and status into
// the CMI data model.
func (e *Engine) Finish(sessionID string) (*analysis.StudentResult, error) {
	return e.FinishCtx(context.Background(), sessionID)
}

// FinishCtx is Finish under a request context (engine.finish span).
func (e *Engine) FinishCtx(ctx context.Context, sessionID string) (_ *analysis.StudentResult, err error) {
	ctx, sp := trace.StartSpan(ctx, "engine.finish")
	defer func() { sp.EndErr(err) }()
	s, err := e.lock(sessionID)
	if err != nil {
		return nil, err
	}
	defer s.mu.Unlock()
	now := e.now()
	if s.state == StateRunning {
		_ = e.checkTime(ctx, s, now) // expiry still produces a result
	}
	finished := false
	switch s.state {
	case StateRunning:
		s.activeSpent += now.Sub(s.lastEvent)
		s.state = StateFinished
		e.finishRTE(s)
		finished = true
	case StateExpired:
		// already closed by checkTime
	case StatePaused:
		s.state = StateFinished
		e.finishRTE(s)
		finished = true
	case StateFinished:
		// idempotent: re-emit the result
	}
	if finished {
		// Only the transition emits; an idempotent re-finish does not
		// double-count the sitting in downstream aggregations.
		score, max := s.scoreLocked()
		e.bus.PublishCtx(trace.Detach(ctx), events.Event{
			Type: events.SessionFinished, ExamID: s.ExamID, SessionID: s.ID,
			StudentID: s.StudentID, Answered: len(s.answers), Total: len(s.Order),
			Score: score, MaxScore: max, At: now,
		})
	}
	res := s.result()
	return &res, nil
}

// finishRTE writes score/status and finishes the RTE attempt. Callers hold
// s.mu.
func (e *Engine) finishRTE(s *Session) {
	score, max := s.scoreLocked()
	if s.api.Running() {
		if max > 0 {
			raw := score / max * 100
			s.api.LMSSetValue("cmi.core.score.raw", fmt.Sprintf("%.2f", raw))
			status := "failed"
			if raw >= 60 {
				status = "passed"
			}
			s.api.LMSSetValue("cmi.core.lesson_status", status)
		} else {
			s.api.LMSSetValue("cmi.core.lesson_status", "completed")
		}
		secs := int(s.activeSpent / time.Second)
		s.api.LMSSetValue("cmi.core.session_time", fmt.Sprintf("%04d:%02d:%02d",
			secs/3600, (secs%3600)/60, secs%60))
		s.api.LMSFinish("")
	}
}

// scoreLocked totals earned and maximum weighted credit over the scored
// problems. Callers hold s.mu.
func (s *Session) scoreLocked() (score, max float64) {
	for _, p := range s.problems {
		if !p.Style.Scored() {
			continue
		}
		max += p.Weight()
		if a, ok := s.answers[p.ID]; ok && a.gradable {
			score += a.credit * p.Weight()
		}
	}
	return score, max
}

// result converts the session into an analysis row. Callers hold s.mu.
func (s *Session) result() analysis.StudentResult {
	res := analysis.StudentResult{StudentID: s.StudentID}
	for _, pid := range s.Order {
		p := s.problems[pid]
		r := analysis.Response{StudentID: s.StudentID, ProblemID: pid}
		if a, ok := s.answers[pid]; ok {
			r.Answered = true
			r.Credit = a.credit
			r.TimeSpent = a.spent
			// Choice answers keep their option key; questionnaire answers
			// keep the collected response for frequency analysis. Shuffled
			// sittings map presented keys back to authored keys so option
			// tables aggregate correctly across sittings.
			if p.CorrectKey() != "" || p.Style == item.Questionnaire {
				r.Option = authoring.UnshuffleResponse(s.optionMaps[pid], a.response)
			}
		}
		res.Responses = append(res.Responses, r)
	}
	return res
}

// Status reports a session's current summary.
func (e *Engine) Status(sessionID string) (Status, error) {
	s, err := e.lock(sessionID)
	if err != nil {
		return Status{}, err
	}
	defer s.mu.Unlock()
	now := e.now()
	_ = e.checkTime(context.Background(), s, now)
	st := s.snapshotStatus(now)
	st.StateName = st.State.String()
	return st, nil
}

// RTEExec runs fn against the session's SCORM API while holding the session
// lock, serializing SCO-originated RTE traffic with the learner operations
// (Answer/Pause/Finish) that write the same CMI data model. This is the only
// safe way to touch a live session's API concurrently.
func (e *Engine) RTEExec(sessionID string, fn func(api *scorm.API)) error {
	s, err := e.registry.get(sessionID)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.api)
	return nil
}

// RTE exposes a session's SCORM API without synchronization. The scorm.API
// is not thread-safe and engine operations mutate the same data model under
// the session lock, so callers must guarantee no concurrent engine calls
// for this session — single-threaded harnesses and tests only. Concurrent
// callers (the HTTP bridge) use RTEExec.
func (e *Engine) RTE(sessionID string) (*scorm.API, error) {
	s, err := e.registry.get(sessionID)
	if err != nil {
		return nil, err
	}
	return s.api, nil
}

// CollectResults assembles the full response matrix of an exam from every
// finished or expired session, ready for analysis. Sessions are visited
// shard by shard and locked one at a time — collection never blocks the
// whole engine, so learners on other exams keep answering while an
// instructor exports results.
func (e *Engine) CollectResults(examID string) (*analysis.ExamResult, error) {
	rec, err := e.store.Exam(examID)
	if err != nil {
		return nil, err
	}
	problems, err := e.store.Problems(rec.ProblemIDs)
	if err != nil {
		return nil, err
	}
	out := &analysis.ExamResult{
		ExamID:   examID,
		Problems: problems,
		TestTime: time.Duration(rec.TestTimeSeconds) * time.Second,
	}
	for _, s := range e.registry.all() {
		if s.ExamID != examID {
			continue
		}
		s.mu.Lock()
		if s.state == StateFinished || s.state == StateExpired {
			out.Students = append(out.Students, s.result())
		}
		s.mu.Unlock()
	}
	return out, nil
}
