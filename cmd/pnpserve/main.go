// Command pnpserve is the PnP tuner's inference server: it exposes the
// model registry over the versioned v1 HTTP API (internal/api), training
// (or loading) each requested model once and serving predictions many
// times. Concurrent requests for the same model funnel through a
// micro-batching queue into single block-diagonal forward passes, and
// async tuning sessions run on a bounded job-store worker pool, so
// throughput scales with the batch engine instead of request count.
//
// Usage:
//
//	pnpserve -addr :8080 -dir ./models
//	pnpserve -addr :8080 -dir ./models -preload haswell/time,skylake/edp
//
// Endpoints:
//
//	POST   /v1/predict      {"machine","objective","graph",...} → picks
//	POST   /v1/tune         bounded engine session; "async":true → job
//	GET    /v1/jobs[/{id}]  list / poll async tuning jobs
//	DELETE /v1/jobs/{id}    cancel an async tuning job
//	GET    /v1/models       registry contents (cached + on disk)
//	GET    /v1/models/{id}  one model's version + refresh detail
//	GET    /v1/healthz      liveness + traffic + per-route counters
//	GET    /v1/traces/{id}  one request's recorded span timeline
//	GET    /metrics         Prometheus text exposition
//
// With -refresh-threshold N, tune sessions carrying a measure_budget
// feed their real-execution samples back into the registry; every N
// samples a model retrains incrementally in the background and shadows
// live predict traffic for -canary-window requests before being promoted
// (new version serves) or demoted (discarded).
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener stops,
// in-flight requests finish, running tune jobs drain until
// -shutdown-timeout, then everything is cancelled and batchers close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pnptuner/internal/client"
	"pnptuner/internal/core"
	"pnptuner/internal/kernels"
	"pnptuner/internal/registry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	dir := flag.String("dir", "", "on-disk model store (empty = in-memory only)")
	cacheSize := flag.Int("cache", 8, "max models held in memory (LRU)")
	epochs := flag.Int("epochs", 0, "override training epochs for train-on-miss")
	maxBatch := flag.Int("max-batch", 16, "micro-batch window size")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "micro-batch window wait")
	maxInflight := flag.Int("max-inflight", 1024,
		"concurrent predict/tune requests admitted per route before load-shedding 503 overloaded (negative = unlimited)")
	jobWorkers := flag.Int("job-workers", 2, "concurrent async tune sessions")
	jobQueue := flag.Int("job-queue", 32, "max async tune jobs awaiting a worker")
	jobTTL := flag.Duration("job-ttl", 15*time.Minute, "finished-job retention before GC")
	refreshThreshold := flag.Int("refresh-threshold", 0,
		"measured samples per model that trigger a background refresh retrain (0 disables the measure→learn loop)")
	canaryWindow := flag.Int("canary-window", 16,
		"scored live predicts a refreshed model shadows before the promote/demote verdict")
	refreshEpochs := flag.Int("refresh-epochs", 4, "fine-tune epochs per refresh retrain")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second,
		"grace period for in-flight requests and running jobs on SIGINT/SIGTERM")
	quantize := flag.Bool("quantize", false,
		"serve predictions through float32 quantized model snapshots (picks are parity-gated bit-equal to float64)")
	preload := flag.String("preload", "", "comma-separated machine/objective[/scenario] keys to resolve at startup")
	peers := flag.String("peers", "", "comma-separated peer replica base URLs to fetch cold models from before training")
	enablePprof := flag.Bool("pprof", false, "expose net/http/pprof endpoints under /debug/pprof/ for in-place profiling of the serving hot paths")
	traceLog := flag.Int("trace-log", 0,
		"log every Nth request's root span via slog (0 disables trace sampling logs)")
	flag.Parse()

	cfg := core.DefaultModelConfig()
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}

	reg, err := registry.New(*dir, *cacheSize, registry.DefaultTrainer(cfg))
	if err != nil {
		fatal(err)
	}

	// In a cluster, a registry miss first asks the peer replicas for the
	// model's content-addressed blob (one of them may have trained it
	// already) and only trains when no peer has it. ImportBlob verifies
	// the content address, so a bad peer cannot poison the store.
	if peerURLs := splitList(*peers); len(peerURLs) > 0 {
		pool := client.NewPool(client.WithRetries(0, time.Millisecond))
		reg.SetFetcher(func(ctx context.Context, k registry.Key) ([]byte, error) {
			// ctx carries the resolving request's trace ID (never its
			// cancellation), so the peer hop joins the same trace; the
			// timeout bounds the fetch itself.
			ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
			defer cancel()
			for _, peer := range peerURLs {
				rc, err := pool.Get(peer).ModelBlob(ctx, k.ID())
				if err != nil {
					continue // peer lacks it or is down: try the next
				}
				data, err := io.ReadAll(rc)
				rc.Close()
				if err == nil && len(data) > 0 {
					log.Printf("fetched model %s (%s) from peer %s", k, k.ID(), peer)
					return data, nil
				}
			}
			return nil, nil // no peer has it: train locally
		})
		log.Printf("peer model fetch enabled (%s)", strings.Join(peerURLs, ", "))
	}

	// Serving annotates client graphs with the corpus vocabulary; freeze
	// it so unknown node texts map to the unknown token instead of minting
	// ids the trained embeddings have never seen.
	corpus, err := kernels.Compile()
	if err != nil {
		fatal(err)
	}
	corpus.Vocab.Freeze()

	srv := registry.NewServer(reg, corpus.Vocab, registry.ServerConfig{
		MaxBatch:    *maxBatch,
		MaxWait:     *maxWait,
		MaxInflight: *maxInflight,
		Quantize:    *quantize,
		Jobs: registry.JobStoreConfig{
			Workers: *jobWorkers,
			Queue:   *jobQueue,
			TTL:     *jobTTL,
		},
		Refresh: registry.RefreshConfig{
			Threshold:    *refreshThreshold,
			CanaryWindow: *canaryWindow,
			Epochs:       *refreshEpochs,
		},
	})
	if *refreshThreshold > 0 {
		log.Printf("model refresh enabled: threshold %d samples, canary window %d, %d epochs",
			*refreshThreshold, *canaryWindow, *refreshEpochs)
	}
	if *quantize {
		log.Printf("quantized serving enabled: forwarding on float32 model snapshots")
	}
	if *traceLog > 0 {
		srv.SetTraceLogging(*traceLog)
		log.Printf("trace sampling enabled: logging every %d requests", *traceLog)
	}

	for _, spec := range strings.Split(*preload, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		key, err := parseKey(spec)
		if err != nil {
			fatal(err)
		}
		log.Printf("preloading %s ...", key)
		start := time.Now()
		if _, err := reg.Get(key); err != nil {
			fatal(err)
		}
		log.Printf("preloaded %s in %s", key, time.Since(start).Round(time.Millisecond))
	}

	// The registry handler owns the API surface; -pprof mounts the
	// standard profiling endpoints beside it so CPU/heap profiles of the
	// micro-batched forward pass can be taken from a live server
	// (go tool pprof http://host:port/debug/pprof/profile).
	handler := srv.Handler()
	if *enablePprof {
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}

	log.Printf("pnpserve listening on %s (store %q, cache %d, batch %d/%s, jobs %d×%d)",
		*addr, *dir, *cacheSize, *maxBatch, *maxWait, *jobWorkers, *jobQueue)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		// No WriteTimeout: the first /v1/predict for a model trains it
		// (minutes); slow-client protection comes from the read limits
		// and the bounded request body.
		IdleTimeout: 2 * time.Minute,
	}

	// Graceful shutdown: stop the listener first so no new requests race
	// the drain, let in-flight requests and running jobs finish within
	// the grace period, then cancel what remains and close the batchers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		got := <-sig
		log.Printf("received %s, shutting down (grace %s)", got, *shutdownTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *shutdownTimeout)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		srv.Shutdown(ctx)
		log.Printf("drained; bye")
	}()

	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-done
}

// splitList reads a comma-separated flag into its non-empty parts.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseKey reads "machine/objective" or "machine/objective/scenario".
func parseKey(spec string) (registry.Key, error) {
	parts := strings.SplitN(spec, "/", 3)
	if len(parts) < 2 {
		return registry.Key{}, fmt.Errorf("pnpserve: bad preload key %q (want machine/objective[/scenario])", spec)
	}
	key := registry.Key{Machine: parts[0], Objective: parts[1], Scenario: registry.ScenarioFull}
	if len(parts) == 3 {
		key.Scenario = parts[2]
	}
	return key, key.Validate()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "pnpserve: %v\n", err)
	os.Exit(1)
}
