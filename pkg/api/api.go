// Package api is the public contract of the LMS /v1 HTTP API: every
// request/response wire type, the machine-readable error taxonomy, and
// named aliases for the domain payloads (problems, exam records, session
// statuses, results) that travel in their canonical JSON forms.
//
// The server (internal/httpapi) and the Go SDK (pkg/client) are both built
// from these exact types, so they can never drift — and because the package
// lives outside internal/, external modules can import it to construct
// requests and destructure responses with real type names instead of raw
// JSON. Domain payloads are exported as type aliases (see domain.go): the
// alias is the public name of the same type the engine uses internally, so
// no conversion layer sits between the wire and the core.
package api

// StartSessionRequest opens a fixed-form session (POST
// /v1/exams/{id}/sessions); the exam ID comes from the URL.
type StartSessionRequest struct {
	StudentID string `json:"studentId"`
	Seed      int64  `json:"seed"`
}

// StartSessionResponse reports the opened session and its presentation
// order.
type StartSessionResponse struct {
	SessionID string   `json:"sessionId"`
	Order     []string `json:"order"`
}

// AnswerRequest records one response (POST /v1/sessions/{id}:answer and
// POST /v1/adaptive-sessions/{id}:respond).
type AnswerRequest struct {
	ProblemID string `json:"problemId"`
	Response  string `json:"response"`
}

// ActionResponse acknowledges a state-changing session action.
type ActionResponse struct {
	Status string `json:"status"`
}

// RTERequest is one SCORM RTE call bridged over HTTP
// (POST /v1/sessions/{id}/rte).
type RTERequest struct {
	Method  string `json:"method"`
	Element string `json:"element,omitempty"`
	Value   string `json:"value,omitempty"`
}

// RTEResponse carries the RTE result and the API's last error code.
type RTEResponse struct {
	Result    string `json:"result"`
	LastError string `json:"lastError"`
}

// GradeRequest assigns manual credit to an answered, not-auto-graded
// response (POST /v1/grades).
type GradeRequest struct {
	SessionID string  `json:"sessionId"`
	ProblemID string  `json:"problemId"`
	Credit    float64 `json:"credit"`
}

// ProblemList is the GET /v1/problems response.
type ProblemList struct {
	Problems []*Problem `json:"problems"`
	Total    int        `json:"total"`
}

// ExamList is the GET /v1/exams response.
type ExamList struct {
	ExamIDs []string `json:"examIds"`
}

// BlueprintCell is one (concept, cognition level) requirement of an
// assembly request. Level uses the cognition package's text form
// ("Knowledge".."Evaluation" or letters A-F).
type BlueprintCell struct {
	ConceptID string `json:"conceptId"`
	Level     Level  `json:"level"`
	Count     int    `json:"count"`
}

// AssembleExamRequest drives blueprint assembly (POST /v1/exams:assemble):
// the server selects problems satisfying every cell, finalizes the exam, and
// stores it. Display 0 defaults to FixedOrder.
type AssembleExamRequest struct {
	ID              string          `json:"id"`
	Title           string          `json:"title"`
	Display         DisplayOrder    `json:"display,omitempty"`
	TestTimeSeconds int             `json:"testTimeSeconds,omitempty"`
	Require         []BlueprintCell `json:"require"`
}

// AssembleExamResponse returns the stored exam record.
type AssembleExamResponse struct {
	Exam *ExamRecord `json:"exam"`
}

// --- Adaptive (CAT) delivery ---

// StartAdaptiveSessionRequest opens a live adaptive session on a calibrated
// exam (POST /v1/adaptive-sessions). The embedded AdaptiveConfig fields
// (maxItems, minItems, targetSE, selector, randomesqueK, maxExposure)
// select the stopping rules and item-selection strategy; zero values mean
// whole-pool max-information with no SE target or exposure cap.
type StartAdaptiveSessionRequest struct {
	ExamID    string `json:"examId"`
	StudentID string `json:"studentId"`
	Seed      int64  `json:"seed"`
	AdaptiveConfig
}

// StartAdaptiveSessionResponse reports the opened session and the first
// item to administer.
type StartAdaptiveSessionResponse struct {
	SessionID string        `json:"sessionId"`
	MaxItems  int           `json:"maxItems"`
	Next      *AdaptiveItem `json:"next"`
}

// RecalibrateRequest tunes a recalibration pass
// (POST /v1/exams/{id}:recalibrate). MinObservations 0 uses the server
// default.
type RecalibrateRequest struct {
	MinObservations int `json:"minObservations,omitempty"`
}

// RecalibrateResponse summarizes a recalibration pass: the refitted
// parameters now stored on the exam, the items skipped for thin data (with
// their observation counts), and the total responses consumed.
type RecalibrateResponse struct {
	Updated      map[string]IRTParams `json:"updated"`
	Skipped      map[string]int       `json:"skipped,omitempty"`
	Observations int                  `json:"observations"`
}

// PurgeAdaptiveSessionsResponse reports a retention pass
// (POST /v1/adaptive-sessions:purge): how many finished sessions were
// removed from the registry and the storage backend, and how many idle
// live-statistics exam aggregates were dropped alongside them.
type PurgeAdaptiveSessionsResponse struct {
	Purged int `json:"purged"`
	// StatsPurged counts live-statistics exam aggregates released (exams
	// with no active sessions and no open sittings); 0 when the server runs
	// without live statistics.
	StatsPurged int `json:"statsPurged,omitempty"`
}

// --- Metrics ---

// RouteMetrics is one route's exported counters (GET /v1/metrics). The
// latency fields beyond AvgMs come from a log-bucketed histogram, so the
// quantiles are interpolated within a bucket (~19% relative bucket width).
type RouteMetrics struct {
	Route    string           `json:"route"`
	Count    int64            `json:"count"`
	ByStatus map[string]int64 `json:"byStatus"`
	AvgMs    float64          `json:"avgMs"`
	P50Ms    float64          `json:"p50Ms"`
	P99Ms    float64          `json:"p99Ms"`
	P999Ms   float64          `json:"p999Ms"`
	MaxMs    float64          `json:"maxMs"`
}

// SubsystemMetric is one named sample from the process-wide metrics
// registry (journal, event bus, live statistics, ...). Histogram series
// appear as <name>_count/_sum/_p50/_p99/_p999/_max samples.
type SubsystemMetric struct {
	Name   string            `json:"name"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	// TraceID is the histogram exemplar on _p99 samples: a retained trace
	// ID whose observation landed in the p99 bucket, resolvable to a span
	// tree via GET /debug/traces?id= on the ops listener.
	TraceID string `json:"traceId,omitempty"`
}

// MetricsSnapshot is the GET /v1/metrics response body. Subsystems is
// present only when the server runs with a process metrics registry; old
// clients that ignore unknown fields are unaffected.
type MetricsSnapshot struct {
	UptimeSeconds float64           `json:"uptimeSeconds"`
	InFlight      int64             `json:"inFlight"`
	Requests      int64             `json:"requests"`
	Errors5xx     int64             `json:"errors5xx"`
	RateLimited   int64             `json:"rateLimited"`
	Panics        int64             `json:"panics"`
	Routes        []RouteMetrics    `json:"routes"`
	Subsystems    []SubsystemMetric `json:"subsystems,omitempty"`
}
