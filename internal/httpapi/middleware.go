package httpapi

import (
	"bufio"
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"mineassess/internal/obs"
	"mineassess/internal/trace"
)

// Middleware wraps a handler. The chain composes outermost-first, so
// Chain(a, b)(h) runs a, then b, then h.
type Middleware func(http.Handler) http.Handler

// Chain composes middlewares into one.
func Chain(mws ...Middleware) Middleware {
	return func(next http.Handler) http.Handler {
		for i := len(mws) - 1; i >= 0; i-- {
			next = mws[i](next)
		}
		return next
	}
}

// RequestIDFrom returns the request's ID, or "" outside the middleware.
// The ID travels under the obs package's context key so engine and WAL
// layers read it without importing httpapi.
func RequestIDFrom(ctx context.Context) string {
	return obs.RequestIDFrom(ctx)
}

// requestIDSeq distinguishes requests within one process; the random prefix
// distinguishes processes, so IDs stay unique across restarts and replicas.
var (
	requestIDSeq    atomic.Uint64
	requestIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
)

// RequestID assigns every request an ID, honouring an inbound X-Request-ID
// so IDs correlate across proxies, and echoes it on the response.
func RequestID() Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id := r.Header.Get("X-Request-ID")
			if id == "" {
				id = fmt.Sprintf("%s-%06d", requestIDPrefix, requestIDSeq.Add(1))
			}
			w.Header().Set("X-Request-ID", id)
			next.ServeHTTP(w, r.WithContext(
				obs.WithRequestID(r.Context(), id)))
		})
	}
}

// statusRecorder captures the response status and size for logging and
// metrics. WriteHeader-less handlers are recorded as 200 on first Write.
//
// The wrapper must not hide the underlying writer's optional interfaces:
// a streaming handler that type-asserts http.Flusher (SSE, long polls) or
// http.Hijacker (websockets) has to keep working behind AccessLog, Recover
// and the metrics instrumentation, so both are forwarded, and Unwrap lets
// http.ResponseController reach every capability of the wrapped writer.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (sr *statusRecorder) WriteHeader(status int) {
	if sr.status == 0 {
		sr.status = status
	}
	sr.ResponseWriter.WriteHeader(status)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(p)
	sr.bytes += n
	return n, err
}

// Unwrap exposes the wrapped writer to http.ResponseController.
func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// Flush forwards to the underlying writer when it streams; flushing commits
// the headers, so an unset status is recorded as 200. A non-flushing
// underlying writer makes this a no-op — direct http.Flusher asserts have
// no error channel — so FlushError below is what reports the capability
// faithfully.
func (sr *statusRecorder) Flush() {
	f, ok := sr.ResponseWriter.(http.Flusher)
	if !ok {
		return
	}
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	f.Flush()
}

// FlushError is what http.ResponseController calls in preference to Flush:
// it delegates through the wrapped writer's own controller, so a
// non-flushing underlying writer yields http.ErrNotSupported instead of
// Flush's silent no-op — streaming handlers can trust the error to detect
// a writer that cannot stream.
func (sr *statusRecorder) FlushError() error {
	err := http.NewResponseController(sr.ResponseWriter).Flush()
	if err == nil && sr.status == 0 {
		sr.status = http.StatusOK
	}
	return err
}

// Hijack forwards to the underlying writer; writers that cannot hijack
// return the standard http.ErrNotSupported so callers distinguish "not a
// hijacker" from a hijack failure.
func (sr *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	if h, ok := sr.ResponseWriter.(http.Hijacker); ok {
		return h.Hijack()
	}
	return nil, nil, http.ErrNotSupported
}

// AccessLog emits one structured record per request: who asked for what,
// what came back, and how long it took. Requests that run for slow or
// longer (when slow > 0) are logged at Warn as "slow request" so they
// stand out. A traced request's line carries its trace_id, the key into
// the tracer's span tree (the tracer retains every trace past the same
// slow threshold). A nil logger disables logging.
func AccessLog(logger *slog.Logger, slow time.Duration) Middleware {
	return func(next http.Handler) http.Handler {
		if logger == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sr := &statusRecorder{ResponseWriter: w}
			start := time.Now()
			next.ServeHTTP(sr, r)
			if sr.status == 0 {
				sr.status = http.StatusOK
			}
			d := time.Since(start)
			level, msg := slog.LevelInfo, "request"
			if slow > 0 && d >= slow {
				level, msg = slog.LevelWarn, "slow request"
			}
			attrs := [...]slog.Attr{
				slog.String(obs.LogKeyRequestID, RequestIDFrom(r.Context())),
				slog.String(obs.LogKeyMethod, r.Method),
				slog.String(obs.LogKeyPath, r.URL.Path),
				slog.Int(obs.LogKeyStatus, sr.status),
				slog.Int(obs.LogKeyBytes, sr.bytes),
				slog.Float64(obs.LogKeyDurationMS, float64(d.Microseconds())/1000),
				slog.String(obs.LogKeyLearner, learnerKey(r)),
				{},
			}
			n := len(attrs) - 1
			if tid := trace.FromContext(r.Context()).TraceIDHex(); tid != "" {
				attrs[n] = slog.String(obs.LogKeyTraceID, tid)
				n++
			}
			logger.LogAttrs(r.Context(), level, msg, attrs[:n]...)
		})
	}
}

// Recover converts handler panics into 500 INTERNAL envelopes instead of
// dropped connections, keeping one broken request from looking like an
// outage to the load balancer.
func Recover(logger *slog.Logger, onPanic func()) Middleware {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			sr := &statusRecorder{ResponseWriter: w}
			defer func() {
				if rec := recover(); rec != nil {
					if onPanic != nil {
						onPanic()
					}
					if logger != nil {
						logger.LogAttrs(r.Context(), slog.LevelError, "panic",
							slog.String(obs.LogKeyRequestID, RequestIDFrom(r.Context())),
							slog.Any(obs.LogKeyPanic, rec),
							slog.String(obs.LogKeyPath, r.URL.Path),
						)
					}
					// If the handler already wrote headers the envelope
					// cannot be sent; the truncated body signals failure.
					if sr.status == 0 {
						writeErr(sr, &Error{Code: CodeInternal, Message: "internal error"})
					}
				}
			}()
			next.ServeHTTP(sr, r)
		})
	}
}

// clientIP extracts the connection's IP, the one identity a client cannot
// choose.
func clientIP(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// learnerKey identifies the learner a request belongs to for logging: the
// X-Learner-ID header when the client sets one (the SDK does), else the
// client IP.
func learnerKey(r *http.Request) string {
	if id := r.Header.Get("X-Learner-ID"); id != "" {
		return id
	}
	return clientIP(r)
}

// RateLimit rejects requests that exceed a token bucket with a 429
// RATE_LIMITED envelope. Two dimensions compose:
//
//   - perLearner shapes each identified learner (X-Learner-ID header) and
//     is checked first, so a learner hammering the API exhausts only their
//     own bucket — header-less peers behind the same NAT are untouched.
//     Requests without the header skip this bucket (browser and SCO
//     traffic never sets it; keying them all to one IP bucket at the
//     learner rate would throttle a whole classroom to one learner's
//     allowance).
//   - perIP bounds each connection address's aggregate. Because the
//     header is client-controlled, this is what stops a client cycling
//     fabricated learner IDs — every fabricated ID gets a fresh learner
//     bucket, but never a fresh IP bucket.
//
// Nil limiters disable their dimension.
func RateLimit(perLearner, perIP *RateLimiter, onLimited func()) Middleware {
	return func(next http.Handler) http.Handler {
		if perLearner == nil && perIP == nil {
			return next
		}
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			allowed := true
			if perLearner != nil {
				if id := r.Header.Get("X-Learner-ID"); id != "" {
					allowed = perLearner.Allow(id)
				}
			}
			if allowed && perIP != nil {
				allowed = perIP.Allow(clientIP(r))
			}
			if !allowed {
				if onLimited != nil {
					onLimited()
				}
				w.Header().Set("Retry-After", "1")
				writeErr(w, &Error{Code: CodeRateLimited,
					Message: "request rate exceeded"})
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}
