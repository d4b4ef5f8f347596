package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries the request's trace ID. It is deliberately the
// same header as the pre-existing correlation ID (X-Request-ID): one
// ID is minted at the first hop (gate or a direct client), echoed on
// every response, forwarded verbatim on every proxied replica call and
// peer model fetch, and keys the span timeline at GET /v1/traces/{id}
// on every process that touched the request.
const TraceHeader = "X-Request-ID"

type traceIDKey struct{}

// WithTraceID returns a context carrying the trace ID.
func WithTraceID(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceID returns the context's trace ID, "" when untraced.
func TraceID(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// newTraceID mints 12 hex chars of entropy. crypto/rand never fails on
// supported platforms; a silent fallback would risk colliding IDs, so
// fail loudly.
func newTraceID() string {
	b := make([]byte, 6)
	if _, err := rand.Read(b); err != nil {
		panic("telemetry: trace ID entropy unavailable: " + err.Error())
	}
	return hex.EncodeToString(b)
}

// Span is one timed step of a request within this process, offset
// against the trace's start.
type Span struct {
	Name    string            `json:"name"`
	StartNs int64             `json:"start_ns"` // offset from Trace.Start
	DurNs   int64             `json:"duration_ns"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Trace is the wire view of one request's span timeline in this
// process, served at GET /v1/traces/{id}. A request that crossed
// processes (gate → replica) has the same ID in each, each holding its
// own hops.
type Trace struct {
	ID      string    `json:"id"`
	Start   time.Time `json:"start"`
	Spans   []Span    `json:"spans"`
	Dropped int       `json:"dropped_spans,omitempty"`
}

type spanRec struct {
	name  string
	start time.Time
	dur   time.Duration
	attrs map[string]string
}

type traceRec struct {
	spans   []spanRec
	dropped int
}

// Recorder keeps a bounded in-process window of recent traces: at most
// maxTraces traces (FIFO eviction) of at most maxSpans spans each, so
// tracing is always on without unbounded memory. All methods are
// nil-safe — components hold a *Recorder that is simply nil outside a
// server.
type Recorder struct {
	maxTraces int
	maxSpans  int

	mu     sync.Mutex
	order  []string // insertion order, for FIFO eviction
	traces map[string]*traceRec

	logger   *slog.Logger
	logEvery int64
	roots    atomic.Int64
}

// NewRecorder builds a recorder holding up to maxTraces traces of
// maxSpans spans each (≤ 0 picks the defaults, 512 and 64).
func NewRecorder(maxTraces, maxSpans int) *Recorder {
	if maxTraces <= 0 {
		maxTraces = 512
	}
	if maxSpans <= 0 {
		maxSpans = 64
	}
	return &Recorder{
		maxTraces: maxTraces,
		maxSpans:  maxSpans,
		traces:    map[string]*traceRec{},
	}
}

// SetLogging samples every Nth root span into l as a structured slog
// record (0 disables). Call before serving traffic.
func (r *Recorder) SetLogging(l *slog.Logger, every int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.logger = l
	r.logEvery = int64(every)
	r.mu.Unlock()
}

// Add records one finished span under a trace ID, creating the trace
// on first use and evicting the oldest trace past the bound. Empty IDs
// (untraced work) are dropped.
func (r *Recorder) Add(id, name string, start time.Time, d time.Duration, attrs ...string) {
	if r == nil || id == "" {
		return
	}
	var m map[string]string
	if len(attrs) >= 2 {
		m = make(map[string]string, len(attrs)/2)
		for i := 0; i+1 < len(attrs); i += 2 {
			m[attrs[i]] = attrs[i+1]
		}
	}
	r.mu.Lock()
	tr, ok := r.traces[id]
	if !ok {
		for len(r.traces) >= r.maxTraces && len(r.order) > 0 {
			delete(r.traces, r.order[0])
			r.order = r.order[1:]
		}
		tr = &traceRec{}
		r.traces[id] = tr
		r.order = append(r.order, id)
	}
	if len(tr.spans) >= r.maxSpans {
		tr.dropped++
	} else {
		tr.spans = append(tr.spans, spanRec{name: name, start: start, dur: d, attrs: m})
	}
	r.mu.Unlock()
}

// Start begins a span on the context's trace and returns the function
// that ends it; extra attribute pairs may be appended at the end. When
// the recorder is nil or the context untraced, the returned func is a
// no-op — instrumented code never branches.
func (r *Recorder) Start(ctx context.Context, name string, attrs ...string) func(extra ...string) {
	id := TraceID(ctx)
	if r == nil || id == "" {
		return func(...string) {}
	}
	start := time.Now()
	return func(extra ...string) {
		r.Add(id, name, start, time.Since(start), append(attrs, extra...)...)
	}
}

// Get returns the wire view of one trace: spans sorted by start time
// and offset against the earliest one.
func (r *Recorder) Get(id string) (Trace, bool) {
	if r == nil {
		return Trace{}, false
	}
	r.mu.Lock()
	tr, ok := r.traces[id]
	if !ok {
		r.mu.Unlock()
		return Trace{}, false
	}
	spans := append([]spanRec(nil), tr.spans...)
	dropped := tr.dropped
	r.mu.Unlock()

	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	out := Trace{ID: id, Dropped: dropped}
	if len(spans) > 0 {
		out.Start = spans[0].start
	}
	for _, s := range spans {
		out.Spans = append(out.Spans, Span{
			Name:    s.name,
			StartNs: s.start.Sub(out.Start).Nanoseconds(),
			DurNs:   s.dur.Nanoseconds(),
			Attrs:   s.attrs,
		})
	}
	return out, true
}

// Len returns the number of retained traces.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.traces)
}

// maybeLog emits every logEvery-th root span as a structured record.
func (r *Recorder) maybeLog(id, method, path string, status int, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	l, every := r.logger, r.logEvery
	r.mu.Unlock()
	if l == nil || every <= 0 {
		return
	}
	if n := r.roots.Add(1); n%every != 0 {
		return
	}
	l.Info("request sampled",
		slog.String("trace", id),
		slog.String("method", method),
		slog.String("path", path),
		slog.Int("status", status),
		slog.Duration("duration", d),
	)
}

// WithRequestID is the request-correlation middleware shared by the
// gate and the replica server: echo the incoming X-Request-ID (so the
// first hop's ID survives every subsequent hop) or mint one, expose it
// on the response, inject it into the request context so outbound
// client calls re-stamp it, and record the root span for the request
// in rec (which may be nil to disable tracing).
func WithRequestID(rec *Recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(TraceHeader)
		if id == "" {
			id = newTraceID()
			r.Header.Set(TraceHeader, id)
		}
		w.Header().Set(TraceHeader, id)
		ctx := WithTraceID(r.Context(), id)
		if rec == nil {
			next.ServeHTTP(w, r.WithContext(ctx))
			return
		}
		start := time.Now()
		sw := CaptureStatus(w)
		next.ServeHTTP(sw, r.WithContext(ctx))
		d := time.Since(start)
		rec.Add(id, "http "+r.Method+" "+r.URL.Path, start, d,
			"status", strconv.Itoa(sw.Status))
		rec.maybeLog(id, r.Method, r.URL.Path, sw.Status, d)
	})
}

// StatusWriter records the status a handler answered with (200 when it
// never called WriteHeader). CaptureStatus reuses one an outer
// middleware already installed, so the trace root span and the
// per-route metrics of one request share a single writer.
type StatusWriter struct {
	http.ResponseWriter
	Status int
}

// CaptureStatus returns w as a *StatusWriter, wrapping it only when no
// outer middleware has.
func CaptureStatus(w http.ResponseWriter) *StatusWriter {
	if sw, ok := w.(*StatusWriter); ok {
		return sw
	}
	return &StatusWriter{ResponseWriter: w, Status: http.StatusOK}
}

func (w *StatusWriter) WriteHeader(status int) {
	w.Status = status
	w.ResponseWriter.WriteHeader(status)
}
