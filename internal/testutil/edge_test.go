package testutil_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/gate"
	"pnptuner/internal/loadgen"
	"pnptuner/internal/registry"
	"pnptuner/internal/telemetry"
	"pnptuner/internal/testutil"
)

// edgeAnswer is the part of an error answer a client can act on.
type edgeAnswer struct {
	status     int
	code       string
	retryAfter string
	idHeader   string
	idBody     string
}

func askEdge(t *testing.T, method, url string, body []byte, header map[string]string) edgeAnswer {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env api.ErrorBody
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("%s %s: answer is not the error envelope: %v (%q)", method, url, err, raw)
	}
	return edgeAnswer{
		status:     resp.StatusCode,
		code:       env.Error.Code,
		retryAfter: resp.Header.Get(api.RetryAfterHeader),
		idHeader:   resp.Header.Get(telemetry.TraceHeader),
		idBody:     env.RequestID,
	}
}

// TestEdgeErrorParity sends the same bad request straight to a replica
// and through the gate in front of it: a client must not be able to
// tell the two hops apart by status, error code, Retry-After, or the
// echoed request ID.
func TestEdgeErrorParity(t *testing.T) {
	c := testutil.StartCluster(t, 1)

	oversized := func(field string) []byte {
		b := append([]byte(`{"`+field+`":"`), bytes.Repeat([]byte("x"), api.MaxRequestBytes+1)...)
		return append(b, `"}`...)
	}
	cases := []struct {
		name     string
		method   string
		path     string
		body     []byte
		deadline string
		code     string
	}{
		{"oversized predict", http.MethodPost, api.PathPredict, oversized("machine"), "", api.CodeGraphTooLarge},
		{"oversized tune", http.MethodPost, api.PathTune, oversized("region_id"), "", api.CodeGraphTooLarge},
		{"malformed predict JSON", http.MethodPost, api.PathPredict, []byte("{"), "", api.CodeBadRequest},
		{"malformed tune JSON", http.MethodPost, api.PathTune, []byte(`{"budget":"x"}`), "", api.CodeBadRequest},
		{"wrong method", http.MethodGet, api.PathPredict, nil, "", api.CodeMethodNotAllowed},
		{"malformed X-Deadline", http.MethodPost, api.PathPredict, []byte("{}"), "soon", api.CodeBadRequest},
		{"spent X-Deadline", http.MethodPost, api.PathPredict, []byte("{}"), "-1", api.CodeDeadlineExceeded},
		{"unknown route", http.MethodGet, "/v2/predict", nil, "", api.CodeNotFound},
	}
	for i, tc := range cases {
		id := fmt.Sprintf("edge-%d", i)
		header := map[string]string{telemetry.TraceHeader: id}
		if tc.deadline != "" {
			header[api.DeadlineHeader] = tc.deadline
		}
		direct := askEdge(t, tc.method, c.Replicas[0].URL+tc.path, tc.body, header)
		gated := askEdge(t, tc.method, c.GateURL+tc.path, tc.body, header)
		if direct != gated {
			t.Errorf("%s: replica answered %+v, gate %+v", tc.name, direct, gated)
		}
		want := edgeAnswer{status: api.StatusFor(tc.code), code: tc.code, idHeader: id, idBody: id}
		if direct != want {
			t.Errorf("%s: replica answered %+v, want %+v", tc.name, direct, want)
		}
	}
}

// TestHealthzRoutesMatchMetrics: after a fixed burst of traffic, each
// process's /v1/healthz route stats equal its <prefix>_http_* series on
// /metrics, under the same route labels at both hops.
func TestHealthzRoutesMatchMetrics(t *testing.T) {
	// No background probes: the replica's /v1/healthz traffic must be
	// the test's own.
	c := testutil.StartCluster(t, 1, testutil.WithGateHealth(gate.TrackerConfig{ProbeInterval: time.Hour}))
	cl := c.Client()
	ctx := context.Background()
	req := api.PredictRequest{Machine: "haswell", Objective: registry.ObjectiveTime, Graph: corpusGraph(t, 0)}
	for i := 0; i < 3; i++ {
		if _, err := cl.Predict(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.ListModels(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Job(ctx, "r0-missing"); err == nil {
		t.Fatal("a missing job was found")
	}
	for _, path := range []string{api.PathPredict, "/v2/predict"} { // 405 and 404
		resp, err := http.Get(c.GateURL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	for _, proc := range []struct{ name, url, prefix string }{
		{"gate", c.GateURL, "pnpgate"},
		{"replica", c.Replicas[0].URL, "pnp"},
	} {
		resp, err := http.Get(proc.url + api.PathHealthz)
		if err != nil {
			t.Fatal(err)
		}
		var health struct {
			Routes map[string]api.RouteStats `json:"routes"`
		}
		err = json.NewDecoder(resp.Body).Decode(&health)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		m, err := loadgen.ScrapeMetrics(ctx, proc.url)
		if err != nil {
			t.Fatal(err)
		}

		want := map[string]api.RouteStats{}
		for series, v := range m {
			for _, kind := range []string{"requests", "errors"} {
				label, ok := strings.CutPrefix(series, proc.prefix+"_http_"+kind+`_total{route="`)
				if !ok || v == 0 {
					continue
				}
				label = strings.TrimSuffix(label, `"}`)
				st := want[label]
				if kind == "requests" {
					st.Count = int64(v)
				} else {
					st.Errors = int64(v)
				}
				want[label] = st
			}
		}
		// The healthz answer was rendered before its own request counted.
		hz := want[api.PathHealthz]
		if hz.Count--; hz.Count == 0 {
			delete(want, api.PathHealthz)
		} else {
			want[api.PathHealthz] = hz
		}

		got := map[string]api.RouteStats{}
		for label, st := range health.Routes {
			if st.AvgMillis <= 0 {
				t.Errorf("%s: route %s has no mean latency: %+v", proc.name, label, st)
			}
			got[label] = api.RouteStats{Count: st.Count, Errors: st.Errors}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: healthz routes %v, /metrics %v", proc.name, got, want)
		}
	}

	// Both hops saw the predicts and label the catch-all and the job
	// detail route alike.
	resp, err := http.Get(c.Replicas[0].URL + "/v2/predict")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, proc := range []struct{ url, prefix string }{{c.GateURL, "pnpgate"}, {c.Replicas[0].URL, "pnp"}} {
		m, err := loadgen.ScrapeMetrics(ctx, proc.url)
		if err != nil {
			t.Fatal(err)
		}
		for _, label := range []string{api.PathPredict, api.PathJobs + "/{id}", "(unmatched)"} {
			if m[proc.prefix+`_http_requests_total{route="`+label+`"}`] < 1 {
				t.Errorf("%s has no %s_http_requests_total for %s", proc.url, proc.prefix, label)
			}
		}
	}
}
