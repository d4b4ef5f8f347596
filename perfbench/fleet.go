package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"pnptuner/internal/client"
	"pnptuner/internal/core"
	"pnptuner/internal/gate"
	"pnptuner/internal/registry"
	"pnptuner/internal/telemetry"
	"pnptuner/internal/vocab"
)

// Fleet shape and the pnpserve / pnpgate defaults it runs with. Only the
// epoch count and, for tune-learn, the refresh loop differ from a
// default deployment: training at the full 45 epochs would dominate
// every set-up, and the refresh loop is off unless armed.
const (
	numReplicas    = 3
	trainEpochs    = 4
	refreshSamples = 320 // measured samples per key that trigger a retrain
	canaryWindow   = 8
	refreshEpochs  = 1
)

// fleet is one gate over numReplicas replicas, all in this process on
// loopback, wired the way pnpserve -peers and pnpgate wire them.
type fleet struct {
	gate    *gate.Gate
	gateURL string
	srvs    []*registry.Server
	urls    []string

	https     []*http.Server
	wg        sync.WaitGroup
	closeOnce sync.Once
}

func startFleet(v *vocab.Vocabulary, refresh bool) (*fleet, error) {
	f := &fleet{}
	lns := make([]net.Listener, numReplicas)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.closeListeners(lns)
			return nil, fmt.Errorf("listen: %w", err)
		}
		lns[i] = ln
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	cfg := core.DefaultModelConfig()
	cfg.Epochs = trainEpochs
	peerPool := client.NewPool(client.WithRetries(0, time.Millisecond))
	rc := registry.RefreshConfig{CanaryWindow: canaryWindow, Epochs: refreshEpochs}
	if refresh {
		rc.Threshold = refreshSamples
	}
	for i, ln := range lns {
		reg, err := registry.New("", 8, registry.DefaultTrainer(cfg))
		if err != nil {
			f.closeListeners(lns[i:])
			f.close()
			return nil, fmt.Errorf("registry: %w", err)
		}
		reg.SetFetcher(peerFetcher(peerPool, f.urls, i))
		srv := registry.NewServer(reg, v, registry.ServerConfig{
			MaxBatch:    16,
			MaxWait:     2 * time.Millisecond,
			MaxInflight: 1024,
			Jobs:        registry.JobStoreConfig{Workers: 2, Queue: 32, TTL: 15 * time.Minute},
			Refresh:     rc,
		})
		f.srvs = append(f.srvs, srv)
		f.serve(ln, srv.Handler())
	}
	g, err := gate.New(gate.Config{
		Replicas: f.urls,
		Health: gate.TrackerConfig{
			FailThreshold:    3,
			RecoverSuccesses: 2,
			ProbeInterval:    time.Second,
		},
		AttemptTimeout: time.Minute,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gate = g
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	f.gateURL = "http://" + ln.Addr().String()
	f.serve(ln, g.Handler())
	return f, nil
}

// peerFetcher is pnpserve's -peers fetch: ask every other replica for
// the model's blob before training it locally.
func peerFetcher(pool *client.Pool, urls []string, self int) registry.FetchFunc {
	return func(ctx context.Context, k registry.Key) ([]byte, error) {
		ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		for i, peer := range urls {
			if i == self {
				continue
			}
			rc, err := pool.Get(peer).ModelBlob(ctx, k.ID())
			if err != nil {
				continue
			}
			data, err := io.ReadAll(rc)
			rc.Close()
			if err == nil && len(data) > 0 {
				return data, nil
			}
		}
		return nil, nil
	}
}

func (f *fleet) serve(ln net.Listener, h http.Handler) {
	hs := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	f.https = append(f.https, hs)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(stderr, "perfbench: serve %s: %v\n", ln.Addr(), err)
		}
	}()
}

func (f *fleet) closeListeners(lns []net.Listener) {
	for _, ln := range lns {
		if ln != nil {
			ln.Close()
		}
	}
}

// close drains the HTTP servers, stops the gate's prober and every
// replica's jobs and batchers, and waits for the serve loops to return.
// Later calls do nothing.
func (f *fleet) close() {
	f.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for _, hs := range f.https {
			hs.Shutdown(ctx)
		}
		if f.gate != nil {
			f.gate.Close()
		}
		for _, srv := range f.srvs {
			srv.Shutdown(ctx)
		}
		f.wg.Wait()
	})
}

// owner is the replica index the gate routes key to.
func (f *fleet) owner(k keySpec) int {
	return f.gate.Ring().Owner(gate.RouteKey(k.machine, registry.ScenarioFull, k.objective))
}

// scrape reads /metrics from the gate and every replica, prefixing each
// series with its process ("gate." or "r<i>.").
func (f *fleet) scrape(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	read := func(prefix, base string) error {
		ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return fmt.Errorf("scrape %s: %w", base, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("scrape %s: %s", base, resp.Status)
		}
		m, err := telemetry.ParseText(resp.Body)
		if err != nil {
			return fmt.Errorf("scrape %s: %w", base, err)
		}
		for k, v := range m {
			out[prefix+k] = v
		}
		return nil
	}
	if err := read("gate.", f.gateURL); err != nil {
		return nil, err
	}
	for i, u := range f.urls {
		if err := read(fmt.Sprintf("r%d.", i), u); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sumSeries adds up one series over the replicas in a scrape (or a
// delta of two scrapes).
func sumSeries(m map[string]float64, series string) float64 {
	var s float64
	for k, v := range m {
		if strings.HasPrefix(k, "r") {
			if _, name, ok := strings.Cut(k, "."); ok && name == series {
				s += v
			}
		}
	}
	return s
}

// delta subtracts before from after, series by series.
func delta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
