package gate

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
	"pnptuner/internal/httpx"
	"pnptuner/internal/telemetry"
)

// defaultScenario mirrors the replica-side default so the gate and the
// replicas agree on the routing key of a request that omits Scenario.
const defaultScenario = "full"

// Config assembles a Gate.
type Config struct {
	// Replicas are the pnpserve base URLs. Order matters: a replica's
	// position is its stable index in job-ID prefixes and health
	// reports, so every gate over the same cluster must list replicas
	// identically.
	Replicas []string
	// VNodes is the per-replica virtual-node count (DefaultVNodes when
	// zero).
	VNodes int
	// Health tunes the replica circuit breakers and background prober.
	Health TrackerConfig
	// AttemptTimeout bounds one replica attempt, so the total X-Deadline
	// budget is spent across attempts instead of burned whole on a
	// black-holed replica (default 1m; negative = unbounded).
	AttemptTimeout time.Duration
	// HedgeDelay overrides the adaptive hedge trigger for idempotent
	// predicts: a positive value hedges after exactly that long; zero
	// derives the delay from the observed predict p99.
	HedgeDelay time.Duration
	// DisableHedge turns hedged predicts off entirely.
	DisableHedge bool
}

// Gate routes v1 serving traffic across shared-nothing pnpserve
// replicas: consistent-hash placement by model key, health-gated
// failover along the key's preference order, and a per-key single
// flight so a cold model is trained by exactly one request stream
// fleet-wide.
type Gate struct {
	replicas []string
	ring     *Ring
	tracker  *Tracker
	pool     *client.Pool
	policy   client.RetryPolicy
	tele     *gateTelemetry
	routes   *httpx.Routes
	start    time.Time

	attemptTimeout time.Duration
	hedgeDelay     time.Duration
	noHedge        bool
	latency        *latencyTracker
	lkg            *lkgCache

	// Traffic counters, exported at /metrics and echoed in healthz
	// (telemetry counters are atomics underneath, so call sites pay what
	// the old atomic.Int64 fields cost).
	served       *telemetry.Counter
	retries      *telemetry.Counter
	failovers    *telemetry.Counter
	hedges       *telemetry.Counter
	hedgeWins    *telemetry.Counter
	degradedHits *telemetry.Counter

	// warm-up single flight: per routing key, at most one in-flight
	// request until the first success marks the key warm. Deterministic
	// routing already funnels a key's traffic to one replica (whose
	// registry single-flights training locally); this layer stops a
	// failover mid-training from starting a second training on the next
	// replica.
	warmMu  sync.Mutex
	warm    map[string]bool
	flights map[string]chan struct{}
}

// New builds a gate over the replica list and starts its background
// health prober. Call Close to stop it.
func New(cfg Config) (*Gate, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("gate: no replicas configured")
	}
	urls := make([]string, len(cfg.Replicas))
	for i, u := range cfg.Replicas {
		urls[i] = strings.TrimRight(u, "/")
		if urls[i] == "" {
			return nil, fmt.Errorf("gate: replica %d has an empty URL", i)
		}
	}
	// Replica clients get zero in-client retries: the gate IS the retry
	// layer, and a failed attempt must surface immediately so failover
	// can move to the next replica instead of hammering a dead one.
	pool := client.NewPool(client.WithRetries(0, time.Millisecond))
	attemptTimeout := cfg.AttemptTimeout
	if attemptTimeout == 0 {
		attemptTimeout = time.Minute
	}
	if attemptTimeout < 0 {
		attemptTimeout = 0
	}
	tele := newGateTelemetry()
	g := &Gate{
		replicas:       urls,
		ring:           NewRing(len(urls), cfg.VNodes),
		tracker:        NewTracker(urls, pool, cfg.Health),
		pool:           pool,
		policy:         client.DefaultRetryPolicy(),
		tele:           tele,
		routes:         httpx.NewRoutes(tele.tel, "pnpgate"),
		start:          time.Now(),
		attemptTimeout: attemptTimeout,
		hedgeDelay:     cfg.HedgeDelay,
		noHedge:        cfg.DisableHedge,
		latency:        newLatencyTracker(latencyWindow),
		lkg:            newLKGCache(lkgCapacity),
		warm:           map[string]bool{},
		flights:        map[string]chan struct{}{},

		served: tele.tel.Counter("pnpgate_served_total",
			"Requests the gate answered (any status)."),
		retries: tele.tel.Counter("pnpgate_retries_total",
			"Replica attempts re-sent after a retryable failure."),
		failovers: tele.tel.Counter("pnpgate_failovers_total",
			"Requests that succeeded on a non-first-choice replica."),
		hedges: tele.tel.Counter("pnpgate_hedges_total",
			"Hedged predict attempts launched against a second replica."),
		hedgeWins: tele.tel.Counter("pnpgate_hedge_wins_total",
			"Hedged predicts won by the hedge attempt."),
		degradedHits: tele.tel.Counter("pnpgate_degraded_total",
			"Predicts served from the degraded path (last-known-good or heuristic)."),
	}
	tele.observeTracker(g.tracker)
	g.tracker.Start()
	return g, nil
}

// Close stops the health prober and releases pooled connections.
func (g *Gate) Close() {
	g.tracker.Stop()
	g.pool.Close()
}

// Tracker exposes the gate's health tracker (tests inject traffic
// outcomes and read replica states through it).
func (g *Gate) Tracker() *Tracker { return g.tracker }

// Ring exposes the gate's placement ring (tests assert ownership).
func (g *Gate) Ring() *Ring { return g.ring }

// RouteKey is the placement key of one (machine, scenario, objective)
// model. NUL joins the parts so distinct tuples can never collide by
// concatenation.
func RouteKey(machine, scenario, objective string) string {
	return machine + "\x00" + scenario + "\x00" + objective
}

// gateErr builds the gate's own typed API failure, carried as a
// *client.APIError so it flows through the same error path as replica
// responses.
func gateErr(code, format string, args ...any) error {
	return &client.APIError{
		Status: api.StatusFor(code),
		Info:   api.ErrorInfo{Code: code, Message: fmt.Sprintf(format, args...)},
	}
}

// route walks the key's preference order across routable replicas,
// calling call once per candidate until one succeeds or the retry
// policy says the failure is terminal. Each attempt runs under the
// gate's per-attempt timeout so a black-holed replica costs one slice
// of the deadline budget, not all of it. Transport-level failures feed
// the circuit breakers; response-level API errors do not (an answering
// replica is alive).
func (g *Gate) route(ctx context.Context, key string, idempotent bool, call func(ctx context.Context, replica int, c *client.Client) error) error {
	order := g.ring.Lookup(key)
	owner := order[0]
	attempted := false
	var lastErr error
	for _, i := range order {
		if ctx.Err() != nil {
			return budgetErr(ctx, lastErr)
		}
		release, ok := g.tracker.Acquire(i)
		if !ok {
			continue
		}
		if attempted {
			g.retries.Inc()
		}
		attempted = true
		start := time.Now()
		err := g.attempt(ctx, i, call)
		release()
		outcome := "ok"
		if err != nil {
			outcome = "error"
		}
		g.tele.rec.Add(telemetry.TraceID(ctx), "gate.attempt", start, time.Since(start),
			"replica", strconv.Itoa(i), "outcome", outcome)
		if err == nil {
			g.tracker.RecordSuccess(i)
			if i != owner {
				g.failovers.Inc()
			}
			return nil
		}
		if ctx.Err() != nil {
			// The request budget (not the per-attempt slice) expired;
			// whatever the attempt returned is just its echo.
			return budgetErr(ctx, err)
		}
		class := client.Classify(err)
		if class == client.FailTransport {
			// Per-attempt timeouts land here too: a replica that cannot
			// answer inside the attempt slice is indistinguishable from a
			// black hole and must feed the breaker the same way.
			g.tracker.RecordFailure(i)
		}
		lastErr = err
		if !g.policy.ShouldRetry(class, idempotent) {
			return err
		}
	}
	if !attempted {
		return gateErr(api.CodeNoReplica, "no healthy replica for this model key (%d configured, all down)", len(g.replicas))
	}
	// Exhausted every routable replica. A response-level failure (e.g.
	// everyone answering 503) passes through verbatim — it already
	// carries an accurate code; transport exhaustion becomes the gate's
	// own 502.
	var ae *client.APIError
	if errors.As(lastErr, &ae) {
		return lastErr
	}
	return gateErr(api.CodeReplicaUnavailable, "all replicas failed: %v", lastErr)
}

// attempt runs one replica call under the per-attempt timeout.
func (g *Gate) attempt(ctx context.Context, i int, call func(ctx context.Context, replica int, c *client.Client) error) error {
	if g.attemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, g.attemptTimeout)
		defer cancel()
	}
	return call(ctx, i, g.pool.Get(g.replicas[i]))
}

// budgetErr types a request whose own context ended mid-routing: a spent
// deadline is the typed deadline_exceeded (the client's budget is gone —
// retrying cannot help), everything else a cancelled client.
func budgetErr(ctx context.Context, lastErr error) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		if lastErr != nil {
			return gateErr(api.CodeDeadlineExceeded, "request budget spent during routing (last attempt: %v)", lastErr)
		}
		return gateErr(api.CodeDeadlineExceeded, "request budget spent during routing")
	}
	return gateErr(api.CodeUnavailable, "request cancelled during routing: %v", ctx.Err())
}

// singleFlight serializes cold traffic per routing key: the first
// caller leads (and runs fn); the rest wait for its outcome, then
// either proceed against the now-warm key or take the lead themselves.
func (g *Gate) singleFlight(ctx context.Context, key string, fn func() error) error {
	for {
		g.warmMu.Lock()
		if g.warm[key] {
			g.warmMu.Unlock()
			return fn()
		}
		if ch, ok := g.flights[key]; ok {
			g.warmMu.Unlock()
			select {
			case <-ch:
				continue
			case <-ctx.Done():
				return gateErr(api.CodeUnavailable, "cancelled while waiting for model warm-up: %v", ctx.Err())
			}
		}
		ch := make(chan struct{})
		g.flights[key] = ch
		g.warmMu.Unlock()

		err := fn()

		g.warmMu.Lock()
		delete(g.flights, key)
		if err == nil {
			g.warm[key] = true
		}
		g.warmMu.Unlock()
		close(ch)
		return err
	}
}

// Handler returns the gate's HTTP handler: the same /v1 surface as one
// replica, fronting the whole cluster, with the same middleware and the
// same route labels (as the pnpgate_http_* families).
func (g *Gate) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern string, h http.HandlerFunc) {
		g.routes.Handle(mux, pattern, func(w http.ResponseWriter, r *http.Request) {
			g.served.Inc()
			h(w, r)
		})
	}
	route(api.PathPredict, g.handlePredict)
	route(api.PathTune, g.handleTune)
	route(api.PathJobs, g.handleJobs)
	route(api.PathJobs+"/", g.handleJob)
	route(api.PathModels, g.handleModels)
	route(api.PathModels+"/", g.handleModelDetail)
	route(api.PathHealthz, g.handleHealthz)
	route(api.PathTraces+"/", httpx.TraceHandler(g.tele.rec))
	g.routes.Handle(mux, "/", httpx.NotFound)
	// Like the replicas: /metrics is unversioned and unwrapped, so
	// scrapes never skew the route families they report.
	mux.Handle("/metrics", g.tele.tel.Handler())
	return telemetry.WithRequestID(g.tele.rec, httpx.WithDeadline(mux))
}

// handlePredict proxies POST /v1/predict to the key's replica, with
// failover (pure compute — idempotent) and cold-key single flight.
func (g *Gate) handlePredict(w http.ResponseWriter, r *http.Request) {
	if !httpx.AllowMethod(w, r, http.MethodPost) {
		return
	}
	var req api.PredictRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	if req.Scenario == "" {
		req.Scenario = defaultScenario
	}
	key := RouteKey(req.Machine, req.Scenario, req.Objective)
	var out *api.PredictResponse
	err := g.singleFlight(r.Context(), key, func() error {
		resp, err := g.hedgedPredict(r.Context(), key, req)
		if err != nil {
			return err
		}
		out = resp
		return nil
	})
	if err != nil {
		// Last line of defense: when no replica can serve a routable
		// failure, answer from the degraded path — the last known good
		// pick for this exact graph, or the model-free heuristic — rather
		// than turning cluster-wide trouble into a client-visible 503.
		if resp, ok := g.degradedPredict(key, req, err); ok {
			g.degradedHits.Inc()
			httpx.WriteJSON(w, http.StatusOK, resp)
			return
		}
		g.writeCallError(w, r, err)
		return
	}
	g.lkg.put(key, req.Graph, out)
	httpx.WriteJSON(w, http.StatusOK, out)
}

// handleTune proxies POST /v1/tune. Synchronous sessions are
// deterministic compute and fail over like predicts (model-backed
// strategies also take the warm-up single flight); async submission
// creates a job on exactly one replica, so transport failures must not
// re-send it — the job ID comes back prefixed with the owning replica.
func (g *Gate) handleTune(w http.ResponseWriter, r *http.Request) {
	if !httpx.AllowMethod(w, r, http.MethodPost) {
		return
	}
	var req api.TuneRequest
	if !httpx.DecodeJSON(w, r, &req) {
		return
	}
	if req.Scenario == "" {
		req.Scenario = defaultScenario
	}
	key := RouteKey(req.Machine, req.Scenario, req.Objective)

	if req.Async {
		var job *api.Job
		var on int
		err := g.route(r.Context(), key, false, func(ctx context.Context, replica int, c *client.Client) error {
			j, err := c.TuneAsync(ctx, req)
			if err != nil {
				return err
			}
			job, on = j, replica
			return nil
		})
		if err != nil {
			g.writeCallError(w, r, err)
			return
		}
		job.ID = prefixJobID(on, job.ID)
		httpx.WriteJSON(w, http.StatusAccepted, job)
		return
	}

	var out *api.TuneResponse
	run := func() error {
		return g.route(r.Context(), key, true, func(ctx context.Context, _ int, c *client.Client) error {
			resp, err := c.Tune(ctx, req)
			if err != nil {
				return err
			}
			out = resp
			return nil
		})
	}
	var err error
	if req.Strategy == "gnn" || req.Strategy == "hybrid" {
		err = g.singleFlight(r.Context(), key, run)
	} else {
		err = run() // model-free search touches no model: nothing to warm
	}
	if err != nil {
		g.writeCallError(w, r, err)
		return
	}
	httpx.WriteJSON(w, http.StatusOK, out)
}

// handleJobs merges GET /v1/jobs across live replicas. Jobs on a down
// replica are invisible until it recovers — they are its local state,
// not the cluster's.
func (g *Gate) handleJobs(w http.ResponseWriter, r *http.Request) {
	if !httpx.AllowMethod(w, r, http.MethodGet) {
		return
	}
	merged := fanout(g, r.Context(), func(ctx context.Context, replica int, c *client.Client) ([]api.Job, error) {
		jobs, err := c.ListJobs(ctx)
		for j := range jobs {
			jobs[j].ID = prefixJobID(replica, jobs[j].ID)
		}
		return jobs, err
	})
	sort.Slice(merged, func(i, j int) bool {
		if !merged[i].CreatedAt.Equal(merged[j].CreatedAt) {
			return merged[i].CreatedAt.Before(merged[j].CreatedAt)
		}
		return merged[i].ID < merged[j].ID
	})
	httpx.WriteJSON(w, http.StatusOK, merged)
}

// handleJob proxies GET/DELETE /v1/jobs/{id}. The replica prefix pins
// the job to its owner — there is nowhere to fail over to.
func (g *Gate) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, api.PathJobs+"/")
	if id == "" || strings.Contains(id, "/") {
		httpx.NotFound(w, r)
		return
	}
	replica, rid, ok := splitJobID(id)
	if !ok || replica >= len(g.replicas) {
		httpx.WriteError(w, r, api.Errorf(api.CodeJobNotFound, "no job %q on this cluster", id))
		return
	}
	c := g.pool.Get(g.replicas[replica])
	var job *api.Job
	var err error
	switch r.Method {
	case http.MethodGet:
		job, err = c.Job(r.Context(), rid)
	case http.MethodDelete:
		job, err = c.CancelJob(r.Context(), rid)
	default:
		httpx.WriteError(w, r, api.Errorf(api.CodeMethodNotAllowed, "job routes accept GET and DELETE"))
		return
	}
	if err != nil {
		if client.Classify(err) == client.FailTransport {
			g.tracker.RecordFailure(replica)
		}
		g.writeCallError(w, r, err)
		return
	}
	g.tracker.RecordSuccess(replica)
	job.ID = prefixJobID(replica, job.ID)
	httpx.WriteJSON(w, http.StatusOK, job)
}

// handleModels merges GET /v1/models across live replicas, annotating
// each entry with its replica URL.
func (g *Gate) handleModels(w http.ResponseWriter, r *http.Request) {
	if !httpx.AllowMethod(w, r, http.MethodGet) {
		return
	}
	merged := fanout(g, r.Context(), func(ctx context.Context, replica int, c *client.Client) ([]api.ModelInfo, error) {
		models, err := c.ListModels(ctx)
		for m := range models {
			models[m].Replica = g.replicas[replica]
		}
		return models, err
	})
	sort.Slice(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Replica < b.Replica
	})
	httpx.WriteJSON(w, http.StatusOK, merged)
}

// handleModelDetail proxies GET /v1/models/{id} across live replicas
// and answers with the most advanced copy: versions diverge while a
// promotion has not yet replicated, and the highest version is the
// cluster's truth. The winning replica's URL is set on the reply.
func (g *Gate) handleModelDetail(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, api.PathModels+"/")
	if id == "" || strings.Contains(id, "/") {
		// Suffixed model routes (e.g. the blob replication pair) are
		// replica-to-replica traffic, not gate surface.
		httpx.NotFound(w, r)
		return
	}
	if !httpx.AllowMethod(w, r, http.MethodGet) {
		return
	}
	found := fanout(g, r.Context(), func(ctx context.Context, replica int, c *client.Client) ([]api.ModelDetail, error) {
		det, err := c.Model(ctx, id)
		if err != nil {
			if client.IsCode(err, api.CodeModelNotFound) {
				return nil, nil // an alive replica without the model is a valid answer
			}
			return nil, err
		}
		det.Replica = g.replicas[replica]
		return []api.ModelDetail{*det}, nil
	})
	if len(found) == 0 {
		httpx.WriteError(w, r, api.Errorf(api.CodeModelNotFound, "no replica holds model %s", id))
		return
	}
	best := found[0]
	for _, det := range found[1:] {
		if det.Version > best.Version {
			best = det
		}
	}
	httpx.WriteJSON(w, http.StatusOK, best)
}

// handleHealthz reports the gate's own liveness plus the cluster view.
func (g *Gate) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if !httpx.AllowMethod(w, r, http.MethodGet) {
		return
	}
	httpx.WriteJSON(w, http.StatusOK, api.GateHealth{
		Status:    "ok",
		UptimeSec: time.Since(g.start).Seconds(),
		Served:    g.served.Value(),
		Replicas:  g.tracker.Snapshot(),
		Retries:   g.retries.Value(),
		Failovers: g.failovers.Value(),
		Hedges:    g.hedges.Value(),
		HedgeWins: g.hedgeWins.Value(),
		Degraded:  g.degradedHits.Value(),
		Routes:    g.routes.Stats(),
	})
}

// fanout queries every routable replica concurrently and concatenates
// the results, feeding transport outcomes into the circuit breakers.
// Failing replicas contribute nothing rather than failing the merge.
func fanout[T any](g *Gate, ctx context.Context, query func(ctx context.Context, replica int, c *client.Client) ([]T, error)) []T {
	var (
		mu     sync.Mutex
		merged []T
		wg     sync.WaitGroup
	)
	for i := range g.replicas {
		if !g.tracker.Routable(i) {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			part, err := query(ctx, i, g.pool.Get(g.replicas[i]))
			if err != nil {
				if client.Classify(err) == client.FailTransport {
					g.tracker.RecordFailure(i)
				}
				return
			}
			g.tracker.RecordSuccess(i)
			mu.Lock()
			merged = append(merged, part...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	if merged == nil {
		merged = []T{}
	}
	return merged
}

// prefixJobID scopes a replica-local job ID to the cluster namespace.
func prefixJobID(replica int, id string) string {
	return "r" + strconv.Itoa(replica) + "-" + id
}

// splitJobID inverts prefixJobID.
func splitJobID(id string) (replica int, rest string, ok bool) {
	if !strings.HasPrefix(id, "r") {
		return 0, "", false
	}
	dash := strings.IndexByte(id, '-')
	if dash < 2 || dash == len(id)-1 {
		return 0, "", false
	}
	n, err := strconv.Atoi(id[1:dash])
	if err != nil || n < 0 {
		return 0, "", false
	}
	return n, id[dash+1:], true
}

// writeCallError renders a routed-call failure: replica API errors pass
// through verbatim (status, code, message, Retry-After), transport
// exhaustion becomes the gate's 502.
func (g *Gate) writeCallError(w http.ResponseWriter, r *http.Request, err error) {
	var ae *client.APIError
	if errors.As(err, &ae) {
		httpx.WriteErrorStatus(w, r, ae.Status, &ae.Info)
		return
	}
	httpx.WriteError(w, r, api.Errorf(api.CodeReplicaUnavailable, "replica call failed: %v", err))
}
