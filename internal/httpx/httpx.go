// Package httpx is the HTTP plumbing the gate and the replica server
// share, so the two hops answer the same bad request the same way: the
// X-Deadline middleware, the v1 error envelope, JSON responses, a
// bounded request-body decode, trace lookups, and per-route
// instrumentation over the telemetry registry. Handlers and routing
// policy stay with their servers.
package httpx

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/telemetry"
)

// WithDeadline enforces the X-Deadline budget a client (or the gate)
// stamped on the request: an already-spent budget is shed before the
// handler runs (no body read, no routing or batcher admission), and a
// live one becomes the request context's deadline so every downstream
// check observes it for free — the gate re-stamps it, relative, on each
// replica attempt. A malformed header is a client error, not a silently
// unbounded request.
func WithDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		remaining, ok, err := api.ParseDeadline(r.Header.Get(api.DeadlineHeader))
		if err != nil {
			WriteError(w, r, api.Errorf(api.CodeBadRequest, "%v", err))
			return
		}
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		if remaining <= 0 {
			WriteError(w, r, api.Errorf(api.CodeDeadlineExceeded,
				"request budget already spent (%s %s)", api.DeadlineHeader, r.Header.Get(api.DeadlineHeader)))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), remaining)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// WriteError renders the v1 error envelope under the code's canonical
// status; see WriteErrorStatus.
func WriteError(w http.ResponseWriter, r *http.Request, info *api.ErrorInfo) {
	WriteErrorStatus(w, r, api.StatusFor(info.Code), info)
}

// WriteErrorStatus renders the v1 error envelope under status, with the
// request's correlation ID in request_id and the Retry-After hint for
// backpressure codes, so clients pace retries off the server's word
// instead of guessing. The gate passes a replica's status through
// verbatim; everything else answers through WriteError.
func WriteErrorStatus(w http.ResponseWriter, r *http.Request, status int, info *api.ErrorInfo) {
	if secs := api.RetryAfterSecs(info.Code); secs > 0 {
		w.Header().Set(api.RetryAfterHeader, strconv.Itoa(secs))
	}
	WriteJSON(w, status, api.ErrorBody{Error: *info, RequestID: r.Header.Get(telemetry.TraceHeader)})
}

// WriteJSON writes one JSON response.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// DecodeJSON decodes a request body bounded by api.MaxRequestBytes into
// v and reports whether it did. On failure it answers graph_too_large
// for a body over the ceiling and bad_request for anything else that
// does not decode.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxRequestBytes)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		WriteError(w, r, api.Errorf(api.CodeGraphTooLarge, "request body over %d bytes", api.MaxRequestBytes))
	} else {
		WriteError(w, r, api.Errorf(api.CodeBadRequest, "decode request: %v", err))
	}
	return false
}

// AllowMethod reports whether r uses the want method, answering
// method_not_allowed when it does not.
func AllowMethod(w http.ResponseWriter, r *http.Request, want string) bool {
	if r.Method == want {
		return true
	}
	WriteError(w, r, api.Errorf(api.CodeMethodNotAllowed, "%s not allowed (want %s)", r.Method, want))
	return false
}

// NotFound answers an unknown route.
func NotFound(w http.ResponseWriter, r *http.Request) {
	WriteError(w, r, api.Errorf(api.CodeNotFound, "no route %s %s", r.Method, r.URL.Path))
}

// TraceHandler serves GET /v1/traces/{id}: the span timeline rec holds
// for one request, keyed by its X-Request-ID. Traces are a bounded
// in-memory window — an unknown ID means the request never reached this
// process or has been evicted. The same ID on the gate and on a replica
// shows the two halves of one request.
func TraceHandler(rec *telemetry.Recorder) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if !AllowMethod(w, r, http.MethodGet) {
			return
		}
		id := strings.TrimPrefix(r.URL.Path, api.PathTraces+"/")
		if id == "" || strings.Contains(id, "/") {
			NotFound(w, r)
			return
		}
		tr, ok := rec.Get(id)
		if !ok {
			WriteError(w, r, api.Errorf(api.CodeNotFound,
				"no trace %q (unknown, or evicted from the bounded trace window)", id))
			return
		}
		WriteJSON(w, http.StatusOK, tr)
	}
}

// Routes instruments a server's mux routes as the <prefix>_http_*
// telemetry families, and reads /v1/healthz route stats back from the
// same series, so the two views cannot disagree.
type Routes struct {
	reqs *telemetry.CounterVec
	errs *telemetry.CounterVec
	dur  *telemetry.HistogramVec

	mu      sync.Mutex // guards mounted; taken at mount and healthz, never per request
	mounted []route
}

// route holds one label's telemetry handles, resolved once at mount.
type route struct {
	label string
	reqs  *telemetry.Counter
	errs  *telemetry.Counter
	dur   *telemetry.Histogram
}

// NewRoutes registers the <prefix>_http_requests_total,
// <prefix>_http_errors_total and <prefix>_http_request_duration_seconds
// families on tel.
func NewRoutes(tel *telemetry.Registry, prefix string) *Routes {
	return &Routes{
		reqs: tel.CounterVec(prefix+"_http_requests_total",
			"HTTP requests served, by route.", "route"),
		errs: tel.CounterVec(prefix+"_http_errors_total",
			"HTTP responses with status >= 400, by route.", "route"),
		dur: tel.HistogramVec(prefix+"_http_request_duration_seconds",
			"HTTP request latency, by route.",
			telemetry.Seconds, telemetry.DurationBuckets, "route"),
	}
}

// routeLabel is the route label a mux pattern is reported under: the exact
// path for exact patterns, "{id}" appended to subtree patterns
// ("/v1/jobs/" → "/v1/jobs/{id}"), and "(unmatched)" for the catch-all
// "/". Labels come from patterns, never raw paths, so cardinality is
// fixed.
func routeLabel(pattern string) string {
	switch {
	case pattern == "/":
		return "(unmatched)"
	case strings.HasSuffix(pattern, "/"):
		return pattern + "{id}"
	}
	return pattern
}

// Handle mounts h on mux at pattern, instrumented under routeLabel(pattern).
// The request path pays atomic adds on pre-resolved handles; the status
// comes from the telemetry.StatusWriter the request-ID middleware
// already installed.
func (rt *Routes) Handle(mux *http.ServeMux, pattern string, h http.HandlerFunc) {
	label := routeLabel(pattern)
	m := route{label: label, reqs: rt.reqs.With(label), errs: rt.errs.With(label), dur: rt.dur.With(label)}
	rt.mu.Lock()
	rt.mounted = append(rt.mounted, m)
	rt.mu.Unlock()
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := telemetry.CaptureStatus(w)
		h(sw, r)
		m.dur.ObserveDuration(time.Since(start))
		m.reqs.Inc()
		if sw.Status >= 400 {
			m.errs.Inc()
		}
	})
}

// Stats reads the per-route healthz stats back from the telemetry
// series, listing only routes that have seen traffic.
func (rt *Routes) Stats() map[string]api.RouteStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := map[string]api.RouteStats{}
	for _, m := range rt.mounted {
		n := m.reqs.Value()
		if n == 0 {
			continue
		}
		st := api.RouteStats{Count: n, Errors: m.errs.Value()}
		if c := m.dur.Count(); c > 0 {
			st.AvgMillis = float64(m.dur.Sum()) / float64(c) / 1e6
		}
		out[m.label] = st
	}
	return out
}
