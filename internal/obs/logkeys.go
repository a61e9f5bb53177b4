package obs

// Structured log keys shared by every layer, so the spelling never drifts
// between call sites: the slow-request drill-down greps the access log's
// request_id and follows its trace_id into the tracer. The slogkeys
// analyzer enforces that every slog key is a compile-time snake_case
// constant; new keys belong here, not inline, once a second call site
// appears.
const (
	// LogKeyRequestID correlates one request's lines across layers.
	LogKeyRequestID = "request_id"
	// LogKeyTraceID is the request's trace ID (hex), present when the
	// request was traced; it resolves through the tracer's trace view.
	LogKeyTraceID = "trace_id"
	// LogKeyDurationMS is the elapsed wall time in milliseconds.
	LogKeyDurationMS = "duration_ms"
	// LogKeyMethod is the HTTP request method.
	LogKeyMethod = "method"
	// LogKeyPath is the HTTP request path.
	LogKeyPath = "path"
	// LogKeyStatus is the HTTP response status code.
	LogKeyStatus = "status"
	// LogKeyBytes is the HTTP response body size.
	LogKeyBytes = "bytes"
	// LogKeyLearner is the rate-limit bucket / learner identity.
	LogKeyLearner = "learner"
	// LogKeyPanic carries the recovered panic value.
	LogKeyPanic = "panic"
)
