package registry

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/httpx"
	"pnptuner/internal/programl"
	"pnptuner/internal/telemetry"
	"pnptuner/internal/vocab"
)

// Server is the HTTP face of the registry, serving the versioned v1
// contract (internal/api): a JSON predict endpoint that funnels
// concurrent requests through per-model micro-batchers, sync and async
// tuning sessions (the latter on a bounded job store), plus health and
// model introspection. Live batchers are LRU-bounded by the registry's
// cache capacity, so the operator's -cache flag bounds resident models,
// not just registry entries.
//
// Routes:
//
//	POST   /v1/predict          micro-batched model predictions
//	POST   /v1/tune             engine session; async:true → 202 + Job
//	GET    /v1/jobs             list retained jobs
//	GET    /v1/jobs/{id}        poll one job's status/trace/result
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/models           registry contents
//	GET    /v1/models/{id}      one model's version + refresh detail
//	GET    /v1/models/{id}/blob export a model's serialized blob
//	PUT    /v1/models/{id}/blob import a peer's serialized blob
//	GET    /v1/healthz          liveness, traffic and route counters
//	GET    /v1/traces/{id}      one request's span timeline
//	GET    /metrics             Prometheus text exposition
type Server struct {
	reg      *Registry
	vocab    *vocab.Vocabulary
	maxBatch int
	maxWait  time.Duration
	start    time.Time
	jobs     *JobStore
	tele     *serverTelemetry
	routes   *httpx.Routes
	inflight int
	quantize bool

	refresh RefreshConfig

	mu       sync.Mutex
	closed   bool
	batchers *lruCache // Key.ID() → *Batcher
	// closing marks evicted batchers still draining: creating a new
	// batcher for one of these ids waits on its channel, because the
	// registry may hand the same (not goroutine-safe) *core.Model back
	// out and two batchers must never forward on it concurrently.
	closing map[string]chan struct{}
	// canaries holds in-flight shadow rollouts (canary.go): the refreshed
	// model scoring against the serving one on live predict traffic.
	// refreshing marks keys with a background retrain under way.
	canaries   map[string]*canary
	refreshing map[string]bool

	served atomic.Int64
}

// ServerConfig tunes a server. Zero values get defaults.
type ServerConfig struct {
	// MaxBatch bounds every model's micro-batching window size
	// (default 16).
	MaxBatch int
	// MaxWait bounds how long the first request of a window waits for
	// company (default 2ms).
	MaxWait time.Duration
	// Jobs bounds the async tune job subsystem.
	Jobs JobStoreConfig
	// Refresh tunes the measure→learn loop (canary.go); the zero value
	// disables it.
	Refresh RefreshConfig
	// MaxInflight bounds each heavy route's (predict, tune) concurrent
	// requests; past it the route sheds with CodeOverloaded before any
	// work (default 1024, negative = unlimited).
	MaxInflight int
	// Quantize serves every model through a float32 quantized snapshot
	// (batcher forwards run the CompiledModel kernels). Picks are parity-
	// gated bit-equal to the float64 path; default off.
	Quantize bool
}

// NewServer builds a server over reg. v is the (frozen) corpus
// vocabulary incoming graphs are token-annotated with.
func NewServer(reg *Registry, v *vocab.Vocabulary, cfg ServerConfig) *Server {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 16
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 2 * time.Millisecond
	}
	if cfg.Refresh.CanaryWindow <= 0 {
		cfg.Refresh.CanaryWindow = 16
	}
	if cfg.Refresh.Epochs <= 0 {
		cfg.Refresh.Epochs = 4
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 1024
	}
	jobs := NewJobStore(cfg.Jobs)
	tele := newServerTelemetry(reg, jobs)
	return &Server{
		reg:        reg,
		vocab:      v,
		maxBatch:   cfg.MaxBatch,
		maxWait:    cfg.MaxWait,
		refresh:    cfg.Refresh,
		quantize:   cfg.Quantize,
		start:      time.Now(),
		inflight:   cfg.MaxInflight,
		jobs:       jobs,
		tele:       tele,
		routes:     httpx.NewRoutes(tele.tel, "pnp"),
		batchers:   newLRU(reg.Capacity()),
		closing:    map[string]chan struct{}{},
		canaries:   map[string]*canary{},
		refreshing: map[string]bool{},
	}
}

// Handler returns the route mux wrapped in the request-ID and
// X-Deadline middleware; every route but /metrics is instrumented as
// the pnp_http_* families.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	// The heavy routes get one concurrency limiter each. Cheap routes
	// (jobs, models, healthz) stay unlimited so overload never blinds the
	// operator or wedges the refresh loop.
	s.routes.Handle(mux, api.PathPredict, withLimit(s.inflight, s.handlePredict))
	s.routes.Handle(mux, api.PathTune, withLimit(s.inflight, s.handleTune))
	s.routes.Handle(mux, api.PathJobs, s.handleJobs)
	s.routes.Handle(mux, api.PathJobs+"/", s.handleJob)
	s.routes.Handle(mux, api.PathModels, s.handleModels)
	s.routes.Handle(mux, api.PathModels+"/", s.handleModelBlob)
	s.routes.Handle(mux, api.PathHealthz, s.handleHealthz)
	s.routes.Handle(mux, api.PathTraces+"/", httpx.TraceHandler(s.tele.rec))
	s.routes.Handle(mux, "/", httpx.NotFound)
	// /metrics stays outside the route wrapper: scrapes must not skew the
	// pnp_http_* families they read, and the path is unversioned by
	// convention (Prometheus scrapers expect exactly /metrics).
	mux.Handle("/metrics", s.tele.tel.Handler())
	return telemetry.WithRequestID(s.tele.rec, httpx.WithDeadline(mux))
}

// Shutdown stops the server gracefully: the job store drains (queued
// jobs cancel immediately, running sessions finish until ctx expires and
// are then cancelled via their contexts), then every batcher closes and
// further requests get CodeUnavailable. Call after http.Server.Shutdown
// so no new requests race the drain.
func (s *Server) Shutdown(ctx context.Context) {
	// Jobs first: running sessions shortlist through the batchers, which
	// must outlive them.
	s.jobs.Stop(ctx)

	s.mu.Lock()
	s.closed = true
	evicted := s.batchers.clear()
	canaries := s.canaries
	s.canaries = map[string]*canary{}
	s.mu.Unlock()
	for _, v := range evicted {
		v.(*Batcher).Close()
	}
	for _, c := range canaries {
		c.halt()
		c.b.Close()
	}
}

// Close stops the server immediately: running jobs are cancelled rather
// than drained. A handler racing Close gets CodeUnavailable instead of
// leaking a goroutine.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Shutdown(ctx)
}

// batcherFor returns the micro-batcher serving key, resolving the model
// through the registry (training on miss) and starting the batcher on
// first use. Inserting past capacity evicts the least-recently-used
// batcher: it drains on its own goroutine (no global stall), but its id
// sits in s.closing until the drain finishes, and only a batcher whose
// id is fully closed may be recreated — the registry can hand the same
// (not goroutine-safe) *core.Model back out for an evicted key, and two
// batchers must never forward on one model concurrently.
// newServingBatcher builds the batcher for one registry entry, honoring
// the server's quantized-serving mode. A model that cannot quantize
// (never one this registry trains) falls back to float64 serving rather
// than failing the request.
func (s *Server) newServingBatcher(entry *Entry) *Batcher {
	var b *Batcher
	if s.quantize {
		if qb, err := NewQuantizedBatcher(entry.Model, s.maxBatch, s.maxWait); err == nil {
			b = qb
		}
	}
	if b == nil {
		b = NewBatcher(entry.Model, s.maxBatch, s.maxWait)
	}
	b.Meta = entry.Meta
	b.obs = s.tele.batch
	return b
}

func (s *Server) batcherFor(ctx context.Context, key Key) (*Batcher, error) {
	id := key.ID()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if v, ok := s.batchers.get(id); ok {
		s.mu.Unlock()
		return v.(*Batcher), nil
	}
	s.mu.Unlock()

	// Resolve outside the lock: Get may train for minutes, and other
	// models must keep serving meanwhile. Registry single-flight already
	// collapses duplicate resolves. ctx rides along for its values (the
	// trace ID crosses the peer-fetch hop); its cancellation does not.
	entry, err := s.reg.GetContext(ctx, key)
	if err != nil {
		return nil, err
	}

	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, ErrClosed
		}
		if v, ok := s.batchers.get(id); ok {
			s.mu.Unlock()
			return v.(*Batcher), nil
		}
		if ch, ok := s.closing[id]; ok {
			// Our own previous batcher is still draining; wait it out.
			s.mu.Unlock()
			<-ch
			continue
		}
		b := s.newServingBatcher(entry)
		for _, item := range s.batchers.put(id, b) {
			ch := make(chan struct{})
			s.closing[item.key] = ch
			go func(old *Batcher, evictedID string, done chan struct{}) {
				old.Close()
				s.mu.Lock()
				delete(s.closing, evictedID)
				s.mu.Unlock()
				close(done)
			}(item.value.(*Batcher), item.key, ch)
		}
		s.mu.Unlock()
		return b, nil
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !httpx.AllowMethod(w, r, http.MethodPost) {
		return
	}
	var req api.PredictRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	if req.Scenario == "" {
		req.Scenario = ScenarioFull
	}
	key := Key{Machine: req.Machine, Scenario: req.Scenario, Objective: req.Objective}
	if err := key.Validate(); err != nil {
		httpx.WriteError(w, r, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	if len(req.Graph) == 0 || string(req.Graph) == "null" {
		httpx.WriteError(w, r, api.Errorf(api.CodeBadRequest, "request has no graph"))
		return
	}
	g := &programl.Graph{}
	if err := json.Unmarshal(req.Graph, g); err != nil {
		httpx.WriteError(w, r, api.Errorf(api.CodeBadRequest, "decode graph: %v", err))
		return
	}
	if len(g.Nodes) > api.MaxGraphNodes || len(g.Edges) > api.MaxGraphEdges {
		httpx.WriteError(w, r, api.Errorf(api.CodeGraphTooLarge,
			"graph too large (%d nodes, %d edges; limits %d, %d)",
			len(g.Nodes), len(g.Edges), api.MaxGraphNodes, api.MaxGraphEdges))
		return
	}
	s.vocab.Annotate(g)

	sp, err := key.Space()
	if err != nil {
		// Unreachable after key.Validate; classified as server-side.
		httpx.WriteError(w, r, api.Errorf(api.CodeInternal, "%v", err))
		return
	}

	b, err := s.batcherFor(r.Context(), key)
	if err != nil {
		// The key already validated, so resolve failures are server-side
		// (or the model is genuinely absent and untrainable).
		httpx.WriteError(w, r, resolveErrInfo(err))
		return
	}
	picks, err := b.PredictContext(r.Context(), Request{Graph: g, Extras: req.Counters})
	if err != nil {
		// Validation failures are the client's; forward failures, shed
		// admissions, expired budgets, and a batcher torn down mid-request
		// are not.
		info := api.Errorf(api.CodeBadRequest, "%v", err)
		switch {
		case errors.Is(err, ErrClosed):
			info.Code = api.CodeUnavailable
		case errors.Is(err, ErrForward):
			info.Code = api.CodeInternal
		case errors.Is(err, ErrOverloaded):
			info.Code = api.CodeOverloaded
		case errors.Is(err, context.DeadlineExceeded):
			info = api.Errorf(api.CodeDeadlineExceeded, "request budget spent before prediction completed")
		case errors.Is(err, context.Canceled):
			info = api.Errorf(api.CodeUnavailable, "request cancelled before prediction completed")
		}
		httpx.WriteError(w, r, info)
		return
	}

	resp := api.PredictResponse{
		RegionID:     g.RegionID,
		Machine:      key.Machine,
		Objective:    key.Objective,
		Scenario:     key.Scenario,
		ModelVersion: b.Meta.Version,
	}
	switch key.Objective {
	case ObjectiveTime:
		// One head per cap: picks[h] indexes the per-cap config space.
		for h, pick := range picks {
			resp.Picks = append(resp.Picks, api.Pick{
				CapW:        sp.Caps()[h],
				ConfigIndex: pick,
				Config:      sp.Configs[pick].String(),
			})
		}
	case ObjectiveEDP:
		// Single head over the joint space: decode (cap, config).
		capW, cfg := sp.At(picks[0])
		resp.Picks = []api.Pick{{CapW: capW, ConfigIndex: picks[0], Config: cfg.String()}}
	}
	// Shadow rollout: while a canary is in flight for this model, every
	// scoreable predict is also handed to the refreshed version, and the
	// window's verdict promotes or demotes it. Scoring is asynchronous —
	// the request only pays a non-blocking enqueue (a full queue drops the
	// sample), and the client's picks above always come from the serving
	// version — vN serves uninterrupted.
	s.mu.Lock()
	c := s.canaries[key.ID()]
	s.mu.Unlock()
	if c != nil {
		c.enqueue(canarySample{
			g: g, extras: req.Counters, curPicks: picks,
			tid: telemetry.TraceID(r.Context()),
		})
	}
	s.served.Add(1)
	httpx.WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	if !httpx.AllowMethod(w, r, http.MethodPost) {
		return
	}
	var req api.TuneRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	// Model-free strategies never touch the batchers, so without this
	// check a drained server would still run full engine sessions.
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		httpx.WriteError(w, r, api.Errorf(api.CodeUnavailable, "server is shutting down"))
		return
	}
	ts, info := s.prepTune(req)
	if info != nil {
		httpx.WriteError(w, r, info)
		return
	}
	if req.Async {
		job, info := s.jobs.Submit(ts.req, ts.run)
		if info != nil {
			httpx.WriteError(w, r, info)
			return
		}
		s.served.Add(1)
		httpx.WriteJSON(w, http.StatusAccepted, job)
		return
	}
	resp, info := ts.run(r.Context())
	if info != nil {
		httpx.WriteError(w, r, info)
		return
	}
	s.served.Add(1)
	httpx.WriteJSON(w, http.StatusOK, resp)
}

// handleJobs lists retained jobs, oldest first.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if !httpx.AllowMethod(w, r, http.MethodGet) {
		return
	}
	httpx.WriteJSON(w, http.StatusOK, s.jobs.List())
}

// handleJob polls (GET) or cancels (DELETE) one job by ID.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, api.PathJobs+"/")
	if id == "" || strings.Contains(id, "/") {
		httpx.NotFound(w, r)
		return
	}
	var job api.Job
	var info *api.ErrorInfo
	switch r.Method {
	case http.MethodGet:
		job, info = s.jobs.Get(id)
	case http.MethodDelete:
		job, info = s.jobs.Cancel(id)
	default:
		info = api.Errorf(api.CodeMethodNotAllowed, "%s not allowed (want GET or DELETE)", r.Method)
	}
	if info != nil {
		httpx.WriteError(w, r, info)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, job)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !httpx.AllowMethod(w, r, http.MethodGet) {
		return
	}
	s.mu.Lock()
	nBatchers := s.batchers.len()
	s.mu.Unlock()
	st := s.reg.Stats()
	httpx.WriteJSON(w, http.StatusOK, api.Health{
		Status:          "ok",
		UptimeSec:       time.Since(s.start).Seconds(),
		Served:          s.served.Load(),
		Batchers:        nBatchers,
		CacheHits:       st.Hits,
		DiskLoads:       st.DiskLoads,
		ModelsTrained:   st.Trained,
		ModelsFetched:   st.Fetched,
		ModelsImported:  st.Imported,
		Evicted:         st.Evicted,
		PersistFailures: st.PersistFailures,
		Jobs:            s.jobs.Stats(),
		Routes:          s.routes.Stats(),
	})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if !httpx.AllowMethod(w, r, http.MethodGet) {
		return
	}
	infos := s.reg.List()
	out := make([]api.ModelInfo, 0, len(infos))
	for _, info := range infos {
		meta, err := json.Marshal(info.Meta)
		if err != nil {
			meta = nil
		}
		out = append(out, api.ModelInfo{
			Key: api.ModelKey{
				Machine:   info.Key.Machine,
				Scenario:  info.Key.Scenario,
				Objective: info.Key.Objective,
			},
			ID:     info.ID,
			Cached: info.Cached,
			OnDisk: info.OnDisk,
			Meta:   meta,
		})
	}
	httpx.WriteJSON(w, http.StatusOK, out)
}
