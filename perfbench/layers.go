package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/autotune"
	"pnptuner/internal/bliss"
	"pnptuner/internal/client"
	"pnptuner/internal/core"
	"pnptuner/internal/measure"
	"pnptuner/internal/opentuner"
	"pnptuner/internal/programl"
	"pnptuner/internal/registry"
	"pnptuner/internal/rgcn"
	"pnptuner/internal/telemetry"
	"pnptuner/internal/tensor"
)

// probeResult holds lone predicts sent to an idle fleet, alternately
// straight to the owning replica and through the gate.
type probeResult struct {
	direct, viaGate []float64 // client round trips, ms
	queue, forward  []float64 // the direct requests' batch.queue / batch.forward spans, ms
	wrong           []error   // answers that failed the pick check
}

const probeRounds = 40

// probeIdle measures the replica round trip and the gate hop on the idle
// fleet, and reads each direct request's batch spans back from the
// replica, for the stage-sum check.
func (b *bench) probeIdle(ctx context.Context) (*probeResult, error) {
	k := b.w.keys[0]
	ownerURL := b.fleet.urls[b.fleet.owner(k)]
	newClient := func(base string) (*client.Client, *http.Transport) {
		tr := &http.Transport{MaxConnsPerHost: 1}
		return client.New(base, client.WithHTTPClient(&http.Client{Transport: tr}), client.WithRetries(0, 0)), tr
	}
	direct, dtr := newClient(ownerURL)
	defer dtr.CloseIdleConnections()
	viaGate, gtr := newClient(b.fleet.gateURL)
	defer gtr.CloseIdleConnections()
	traceClient := &http.Client{Transport: dtr}

	p := &probeResult{}
	for i := 0; i < probeRounds; i++ {
		gi := i % len(b.graphs)
		for _, via := range []*client.Client{direct, viaGate} {
			id := fmt.Sprintf("pb-probe-%d-%d", i, len(p.direct)+len(p.viaGate))
			start := time.Now()
			resp, err := via.Predict(telemetry.WithTraceID(ctx, id), b.predictReq(k, gi))
			if err != nil {
				return nil, fmt.Errorf("probe: %w", err)
			}
			rtt := ms(time.Since(start))
			if checked, err := b.check.checkPredict(k, gi, resp, b.regionIDs[gi]); err != nil {
				p.wrong = append(p.wrong, err)
			} else if !checked {
				p.wrong = append(p.wrong, fmt.Errorf("unverified: model %s v%d was never captured", k, resp.ModelVersion))
			}
			time.Sleep(5 * time.Millisecond) // idle between probes, and let the root span land
			if via == viaGate {
				p.viaGate = append(p.viaGate, rtt)
				continue
			}
			p.direct = append(p.direct, rtt)
			tr, err := getTrace(traceClient, ownerURL, id)
			if err != nil {
				return nil, fmt.Errorf("probe trace: %w", err)
			}
			for _, s := range tr.Spans {
				switch s.Name {
				case "batch.queue":
					p.queue = append(p.queue, ms(time.Duration(s.DurNs)))
				case "batch.forward":
					p.forward = append(p.forward, ms(time.Duration(s.DurNs)))
				}
			}
		}
	}
	return p, nil
}

// layerMetrics assembles the traced run's per-layer metrics: direct
// timings of the benchmark's own calls into each layer, /metrics deltas,
// the idle probe and the merged traces.
func (b *bench) layerMetrics(r *report, runs []*phaseRun, p *probeResult, traces []*requestTrace, start, beforeMain, afterMain, end map[string]float64) (map[string]float64, error) {
	L, err := b.directLayers()
	if err != nil {
		return nil, err
	}
	L["dataset.build_s"] = b.buildDur.Seconds()

	main := delta(beforeMain, afterMain)
	run := delta(start, end)
	histMean := func(m map[string]float64, family string, scale float64) float64 {
		return scale * ratio(sumSeries(m, family+"_sum"), sumSeries(m, family+"_count"))
	}
	L["registry.queue_wait_ms"] = histMean(main, "pnp_batch_queue_wait_seconds", 1000)
	L["registry.batch_size_mean"] = histMean(main, "pnp_batch_window_size", 1)
	L["registry.batch_forward_ms"] = histMean(main, "pnp_batch_forward_seconds", 1000)
	L["registry.shed"] = sumSeries(run, "pnp_batch_shed_total")
	L["registry.cache_hits"] = sumSeries(end, "pnp_registry_cache_hits_total")
	L["registry.disk_loads"] = sumSeries(end, "pnp_registry_disk_loads_total")
	if n := sumSeries(run, `pnp_model_train_seconds_count{kind="retrain"}`); n > 0 {
		r.notef("fleet retrains under load: %.0f, mean %.3f s", n, sumSeries(run, `pnp_model_train_seconds_sum{kind="retrain"}`)/n)
	}
	L["registry.job_ms"] = histMean(run, "pnp_job_duration_seconds", 1000)
	L["registry.canary_scored"] = sumSeries(run, "pnp_canary_scored_total")
	promote := sumSeries(run, `pnp_canary_verdicts_total{verdict="promote"}`)
	verdicts := promote + sumSeries(run, `pnp_canary_verdicts_total{verdict="demote"}`)
	L["registry.verdicts"] = verdicts
	L["registry.promote_ratio"] = ratio(promote, verdicts)
	L["measure.runs"] = sumSeries(run, "pnp_measure_runs_total")
	L["gate.retries"] = run["gate.pnpgate_retries_total"]
	L["gate.hedges"] = run["gate.pnpgate_hedges_total"]
	L["gate.hedge_win_ratio"] = ratio(run["gate.pnpgate_hedge_wins_total"], run["gate.pnpgate_hedges_total"])

	rtt := median(p.direct)
	L["registry.rtt_ms"] = rtt
	L["gate.hop_ms"] = median(p.viaGate) - rtt
	encode := b.encodeMs()
	stages := L["programl.decode_ms"] + L["rgcn.compile_ms"] + median(p.queue) + median(p.forward) + encode
	L["registry.unaccounted_ms"] = rtt - stages

	var late, wait, traced, untraced []float64
	for _, ph := range runs {
		if ph.p.kind != phaseMain {
			continue
		}
		for _, s := range ph.samples {
			late = append(late, ms(s.late()))
			wait = append(wait, ms(s.connWait))
			if s.op.kind == opPredict && s.err == nil {
				if s.op.traced {
					traced = append(traced, ms(s.latency()))
				} else {
					untraced = append(untraced, ms(s.latency()))
				}
			}
		}
	}
	L["gen.late_p99_ms"] = quantile(late, 0.99)
	L["gen.conn_wait_ms"] = mean(wait)
	L["trace.overhead_frac"] = median(traced) / median(untraced)

	self, n := selfByLayer(traces, "predict")
	r.notef("traced requests: %d, of which %d predicts carry server spans", len(traces), n)
	for _, layer := range []string{"client", "gate", "gate.attempt", "replica", "batch.queue", "batch.forward"} {
		L["self."+strings.ReplaceAll(layer, ".", "_")+"_ms"] = self[layer]
	}
	return L, nil
}

// directLayers times the benchmark's own calls into the model stack, each
// the median of repeated calls.
func (b *bench) directLayers() (map[string]float64, error) {
	L := map[string]float64{}
	// Every workload serves haswell/time/full first.
	served := b.check.models[hswTime.String()][1]

	var decode, compile, fwd, fwd32 []float64
	q, err := served.Quantize()
	if err != nil {
		return nil, fmt.Errorf("quantize the served model: %w", err)
	}
	for _, raw := range b.graphs {
		g := &programl.Graph{}
		decode = append(decode, ms(timeIt(5, func() {
			g = &programl.Graph{}
			if err := json.Unmarshal(raw, g); err != nil {
				panic(err) // the benchmark's own corpus JSON
			}
		})))
		b.corpus.Vocab.Annotate(g)
		var cg *rgcn.CompiledGraph
		compile = append(compile, ms(timeIt(5, func() { cg = rgcn.CompileGraph(g) })))
		cgs := []*rgcn.CompiledGraph{cg}
		fwd = append(fwd, ms(timeIt(5, func() { served.TopKCompiled(cgs, nil, 1) })))
		fwd32 = append(fwd32, ms(timeIt(5, func() { q.TopKCompiled(cgs, nil, 1) })))
	}
	L["programl.decode_ms"] = median(decode)
	L["rgcn.compile_ms"] = median(compile)
	L["core.forward_b1_ms"] = median(fwd)
	L["core.forward32_b1_ms"] = median(fwd32)

	// FitEpoch, PredictSweep and EngineSession as bench_test.go runs
	// them, so the committed BENCH series continue.
	d := b.data["haswell"]
	cfg := core.DefaultModelConfig()
	cfg.Epochs = 1
	m := core.NewModel(cfg, d.Corpus.Vocab.Size(), len(d.Space.Caps()), d.Space.NumConfigs())
	samples := core.PowerSamples(d, d.Regions, cfg)
	m.Fit(samples)
	L["core.fit_epoch_ms"] = ms(timeIt(3, func() { m.Fit(samples) }))
	L["core.sweep_ms"] = ms(timeIt(5, func() { core.PredictPower(d, m, d.Regions) }))

	rd := d.Regions[0]
	topk := core.TopKPower(d, m, d.Regions[:1], autotune.HybridK)
	entries := map[string]autotune.Entry{
		"gnn":       autotune.FixedEntry("gnn", func(t autotune.Task) int { return topk[t.RegionID][0][0] }),
		"hybrid":    autotune.HybridEntry("hybrid", func(t autotune.Task) []int { return topk[t.RegionID][0] }),
		"bliss":     bliss.Entry("BLISS"),
		"opentuner": opentuner.Entry("OpenTuner"),
	}
	for _, name := range tuneStrategies {
		entry := entries[name]
		seed := uint64(0)
		L["autotune.session_ms."+name] = ms(timeIt(21, func() {
			seed++
			autotune.RunEntry(entry, rd, autotune.Task{
				Problem:  autotune.Problem{Obj: autotune.TimeUnderCap{Cap: 0}, Space: d.Space, Seed: seed},
				RegionID: rd.Region.ID,
			})
		}))
	}

	runner := measure.NewRunner(d.Machine, rd.Region, d.Space, 1, -1)
	ev := runner.Evaluator(autotune.TimeUnderCap{Cap: 0})
	cand := 0
	L["measure.run_us"] = float64(timeIt(201, func() {
		ev.Measure(cand % d.Space.NumConfigs())
		cand++
	})) / float64(time.Microsecond)

	// A refresh retrain of the served model on those measured samples,
	// through a registry of the benchmark's own: the same Registry.Retrain
	// the fleet runs in the background, timed alone.
	reg, err := registry.New("", 1, nil)
	if err != nil {
		return nil, err
	}
	key := hswTime.regKey()
	cur := &registry.Entry{Key: key, Model: served, Meta: core.MetaFor(d, key.Scenario, key.Objective)}
	var retrainErr error
	L["registry.retrain_s"] = timeIt(3, func() {
		reg.SampleLog(key).Append(runner.DatasetSamples()...)
		if _, err := reg.Retrain(key, cur, refreshEpochs); err != nil {
			retrainErr = err
		}
	}).Seconds()
	if retrainErr != nil {
		return nil, fmt.Errorf("retrain: %w", retrainErr)
	}

	// The largest serving matmul: one RGCN layer over a full batch
	// window (MaxBatch graphs, the corpus's largest) times a
	// hidden×hidden weight. Flop and byte counts are computed from the
	// shapes, not measured.
	sizes := make([]int, 0, len(d.Regions))
	for _, r := range d.Regions {
		sizes = append(sizes, r.Region.Graph.NumNodes())
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	rows := 0
	for _, n := range sizes[:16] {
		rows += n
	}
	h := cfg.Hidden
	x, w, out := tensor.New(rows, h), tensor.New(h, h), tensor.New(rows, h)
	x.FillUniform(tensor.NewRNG(1), 1)
	w.FillUniform(tensor.NewRNG(2), 1)
	L["tensor.matmul_us"] = float64(timeIt(101, func() { tensor.MatMulAddInto(x, w, out) })) / float64(time.Microsecond)
	L["tensor.matmul_computed_flop"] = float64(2 * rows * h * h)
	L["tensor.matmul_computed_bytes"] = float64(8 * (rows*h + h*h + 2*rows*h))
	return L, nil
}

// encodeMs times the replica's response encode for a time-objective
// answer (one pick per cap).
func (b *bench) encodeMs() float64 {
	d := b.data["haswell"]
	resp := api.PredictResponse{RegionID: b.regionIDs[0], Machine: "haswell", Objective: "time", Scenario: "full", ModelVersion: 1}
	for h, capW := range d.Space.Caps() {
		resp.Picks = append(resp.Picks, api.Pick{CapW: capW, ConfigIndex: h, Config: d.Space.Configs[h].String()})
	}
	return ms(timeIt(101, func() {
		if _, err := json.Marshal(resp); err != nil {
			panic(err)
		}
	}))
}

// writeTraces writes the traced requests' spans, merged across the
// benchmark, gate and replicas with self times, under .bench_build/traces.
func writeTraces(b *bench, traces []*requestTrace) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed))
	data, err := json.MarshalIndent(map[string]any{
		"workload":   b.w.name,
		"seed":       b.seed,
		"provenance": provenance(b),
		"requests":   traces,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
