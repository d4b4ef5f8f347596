package httpx

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"pnptuner/internal/api"
	"pnptuner/internal/telemetry"
)

// TestRoutesStats: healthz stats are the telemetry series read back,
// only routes with traffic are listed, and the route wrapper reuses the
// status writer the request-ID middleware installed.
func TestRoutesStats(t *testing.T) {
	tel := telemetry.New()
	rt := NewRoutes(tel, "test")
	mux := http.NewServeMux()
	var outer http.ResponseWriter
	rt.Handle(mux, api.PathPredict, func(w http.ResponseWriter, r *http.Request) {
		if w != outer {
			t.Error("route wrapper allocated a second status writer")
		}
		if !AllowMethod(w, r, http.MethodPost) {
			return
		}
		WriteJSON(w, http.StatusOK, struct{}{})
	})
	rt.Handle(mux, api.PathTune, func(w http.ResponseWriter, r *http.Request) {})
	rt.Handle(mux, "/", NotFound)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		outer = telemetry.CaptureStatus(w)
		mux.ServeHTTP(outer, r)
	})

	for _, req := range []struct{ method, path string }{
		{http.MethodPost, api.PathPredict},
		{http.MethodPost, api.PathPredict},
		{http.MethodGet, api.PathPredict},
		{http.MethodGet, "/nowhere"},
	} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(req.method, req.path, nil))
	}
	stats := rt.Stats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v, want the two routes with traffic", stats)
	}
	for label, want := range map[string]api.RouteStats{
		api.PathPredict: {Count: 3, Errors: 1},
		"(unmatched)":   {Count: 1, Errors: 1},
	} {
		got := stats[label]
		if got.Count != want.Count || got.Errors != want.Errors || got.AvgMillis <= 0 {
			t.Errorf("%s stats = %+v, want %d requests, %d errors, a mean latency", label, got, want.Count, want.Errors)
		}
		if n := tel.CounterVec("test_http_requests_total", "", "route").With(label).Value(); n != got.Count {
			t.Errorf("%s: test_http_requests_total = %d, healthz %d", label, n, got.Count)
		}
	}
}
