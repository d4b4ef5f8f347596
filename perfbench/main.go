// Command perfbench is the repository's serving benchmark. It boots the
// real fleet in one process on loopback — a gate.New router over three
// registry.NewServer replicas with pnpserve's defaults, peer blob fetch
// wired as -peers does it, models trained through registry.DefaultTrainer
// — loads it from a seeded open-loop generator, checks every answer
// against references computed in this process, and prints either the
// end-to-end metrics (--trace 0) or the per-layer metrics of a separate
// traced run (--trace 1). The last line of standard output is one JSON
// object; the lines before it are the human-readable report.
//
//	bash perfbench/run.sh --workload predict-lone --seed 1 --seconds 12 --trace 0
//
// See perfbench/README.md for the workloads, metrics and how they relate.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/client"
	"pnptuner/internal/dataset"
	"pnptuner/internal/hw"
	"pnptuner/internal/kernels"
	"pnptuner/internal/telemetry"
)

// processStart is as close to the start of the process as Go code gets;
// setup_s is measured from it.
var processStart = time.Now()

var (
	stdout io.Writer = os.Stdout
	stderr io.Writer = os.Stderr
)

// setupRepeats is how many times a run sets the fleet up (itself once,
// then child processes), so setup_s is a median.
const setupRepeats = 3

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wlName := fs.String("workload", "", "workload: predict-lone, predict-load or tune-learn")
	seed := fs.Int64("seed", 1, "seed every generated input is drawn from")
	seconds := fs.Int("seconds", 12, "measured seconds per run")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	setupOnly := fs.Bool("setup-only", false, "set the fleet up, print the set-up seconds and exit (used for setup_s repeats)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*wlName)
	if err != nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *wlName, *seconds, *traceFlag)
		return 2
	}
	b, err := setup(w, *seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
		return 1
	}
	if *setupOnly {
		b.fleet.close()
		fmt.Fprintf(stdout, "%.9f\n", b.setupDur.Seconds())
		return 0
	}
	b.seconds = *seconds
	b.traced = *traceFlag == 1
	rep, err := b.measure()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := rep.print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// bench is one run: the workload, its generated inputs, the fleet and
// the benchmark-side clients, checker and tracer.
type bench struct {
	w       workload
	seed    int64
	seconds int
	traced  bool

	corpus    *kernels.Corpus
	regionIDs []string // corpus graph index → region ID
	graphs    [][]byte // graph JSON as sent
	data      map[string]*dataset.Dataset
	buildDur  time.Duration
	setupDur  time.Duration
	fleet     *fleet
	check     *checker

	senders    []*client.Client
	transports []*http.Transport
	tracer     *tracer
	capture    *versionCapture
}

// setup compiles the corpus, builds both machines' datasets, boots the
// fleet, trains the workload's keys on cold predicts through the gate
// and warms their batchers.
func setup(w workload, seed int64) (*bench, error) {
	b := &bench{w: w, seed: seed, data: map[string]*dataset.Dataset{}}
	corpus, err := kernels.Compile()
	if err != nil {
		return nil, err
	}
	corpus.Vocab.Freeze()
	b.corpus = corpus
	b.regionIDs = corpus.RegionIDs()
	for _, id := range b.regionIDs {
		raw, err := json.Marshal(corpus.Region(id).Graph)
		if err != nil {
			return nil, err
		}
		b.graphs = append(b.graphs, raw)
	}
	for _, m := range []*hw.Machine{hw.Haswell(), hw.Skylake()} {
		start := time.Now()
		d, err := dataset.Build(m)
		if err != nil {
			return nil, err
		}
		b.buildDur += time.Since(start)
		b.data[m.Name] = d
	}
	if b.fleet, err = startFleet(corpus.Vocab, w.refresh); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := client.New(b.fleet.gateURL, client.WithRetries(0, 0))
	for pass := 0; pass < 3; pass++ {
		for _, k := range w.keys {
			for gi := 0; gi < 8; gi++ {
				if _, err := c.Predict(ctx, b.predictReq(k, gi)); err != nil {
					b.fleet.close()
					return nil, fmt.Errorf("warm %s: %w", k, err)
				}
			}
		}
	}
	for _, s := range tuneStrategies {
		req := api.TuneRequest{Machine: w.keys[0].machine, Objective: w.keys[0].objective, Strategy: s, RegionID: b.regionIDs[0]}
		if _, err := c.Tune(ctx, req); err != nil {
			b.fleet.close()
			return nil, fmt.Errorf("warm %s tune: %w", s, err)
		}
	}
	b.setupDur = time.Since(processStart)
	return b, nil
}

func (b *bench) predictReq(k keySpec, gi int) api.PredictRequest {
	return api.PredictRequest{Machine: k.machine, Objective: k.objective, Scenario: "full", Graph: b.graphs[gi]}
}

// phaseRun is one phase's schedule and what came back.
type phaseRun struct {
	p       phase
	dur     time.Duration
	ops     []op
	start   time.Time
	samples []sample
}

// measure runs the workload's phases and turns them into a report.
func (b *bench) measure() (*report, error) {
	defer b.fleet.close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	b.check = newChecker(b.corpus.Vocab, b.graphs, b.data)
	for _, k := range b.w.keys {
		if err := b.check.fetch(ctx, client.New(b.fleet.urls[b.fleet.owner(k)]), k); err != nil {
			return nil, err
		}
	}
	var probe *probeResult
	if b.traced {
		var err error
		if probe, err = b.probeIdle(ctx); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 2; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		b.transports = append(b.transports, tr)
		b.senders = append(b.senders, client.New(b.fleet.gateURL,
			client.WithHTTPClient(&http.Client{Transport: tr}), client.WithRetries(0, 0)))
	}
	b.capture = newVersionCapture(b.fleet, b.check)
	defer b.capture.stop()
	if b.traced {
		b.tracer = newTracer(b.fleet)
		defer b.tracer.finish()
	}

	start, err := b.fleet.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var runs []*phaseRun
	var beforeMain, afterMain map[string]float64
	for pi, p := range b.w.phases {
		dur := time.Duration(p.share * float64(b.seconds) * float64(time.Second))
		ph := &phaseRun{p: p, dur: dur, ops: genOps(b.w, p, pi, b.seed, dur, b.regionIDs)}
		if b.traced && p.kind == phaseMain {
			// The second half is traced; the first half is the untraced
			// baseline for trace.overhead_frac.
			for i := range ph.ops {
				ph.ops[i].traced = ph.ops[i].due >= dur/2
			}
		}
		if p.kind == phaseMain {
			if beforeMain, err = b.fleet.scrape(ctx); err != nil {
				return nil, err
			}
		}
		do := func(sender int, s *sample) { b.do(pi, sender, s) }
		ph.start = time.Now()
		if p.kind == phaseCapacity {
			ph.samples = runClosedLoop(ph.ops, p.conns, dur, do)
		} else {
			ph.samples = runOpenLoop(ph.ops, p.conns, do)
		}
		runs = append(runs, ph)
		if p.kind == phaseMain {
			if afterMain, err = b.fleet.scrape(ctx); err != nil {
				return nil, err
			}
		}
	}
	for _, tr := range b.transports {
		tr.CloseIdleConnections()
	}
	b.collectJobs(ctx, runs)
	b.capture.stop()
	end, err := b.fleet.scrape(ctx)
	if err != nil {
		return nil, err
	}
	var traces []*requestTrace
	if b.traced {
		traces = b.tracer.finish()
	}
	rep := b.newReport(runs)
	if probe != nil {
		rep.attempted += 2 * probeRounds
		rep.failed += len(probe.wrong)
		rep.wrong += len(probe.wrong)
		for _, err := range probe.wrong {
			rep.failures = append(rep.failures, fmt.Sprintf("probe predict: wrong answer: %v", err))
		}
	}
	rep.peakRSS = peakRSS()
	if !b.traced {
		b.fleet.close()
		return rep, b.repeatSetups(rep)
	}
	b.fleet.close()
	if rep.layers, err = b.layerMetrics(rep, runs, probe, traces, start, beforeMain, afterMain, end); err != nil {
		return nil, err
	}
	return rep, writeTraces(b, traces)
}

// do sends one op from one sender's connection.
func (b *bench) do(phaseIdx, sender int, s *sample) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if s.op.traced {
		// A pair job shares its sync tune's due time; the kind tells them apart.
		s.traceID = fmt.Sprintf("pb-%d-%d-%d-%s", b.seed, phaseIdx, s.op.due.Nanoseconds(), s.op.kind)
		ctx = telemetry.WithTraceID(ctx, s.traceID)
	}
	c := b.senders[sender]
	k := b.w.keys[s.op.key]
	switch s.op.kind {
	case opPredict:
		s.predict, s.err = c.Predict(ctx, b.predictReq(k, s.op.graph))
		if s.err == nil {
			b.capture.saw(k, s.predict.ModelVersion)
		}
	case opTune:
		s.tune, s.err = c.Tune(ctx, s.op.tune)
	case opJob, opPairJob:
		s.job, s.err = c.TuneAsync(ctx, s.op.tune)
	}
	if s.op.traced {
		// The fetcher needs the end now (runOpenLoop restamps it a moment
		// later), to read the servers' spans before their windows evict them.
		s.end = time.Now()
		b.tracer.record(s)
	}
}

// collectJobs polls every submitted job through the gate until it is
// terminal. A job's latency runs from its due time to the finish time
// the replica stamped on it, so the poll interval does not blur it.
func (b *bench) collectJobs(ctx context.Context, runs []*phaseRun) {
	c := client.New(b.fleet.gateURL, client.WithRetries(2, 10*time.Millisecond))
	for _, ph := range runs {
		for i := range ph.samples {
			s := &ph.samples[i]
			if s.job == nil || s.err != nil {
				continue
			}
			job, err := c.Wait(ctx, s.job.ID, 20*time.Millisecond)
			if err != nil {
				s.err = fmt.Errorf("job %s: %w", s.job.ID, err)
				continue
			}
			s.job = job
		}
	}
}

// repeatSetups sets the fleet up setupRepeats-1 more times, each in a
// fresh child process (the corpus and dataset caches are per process),
// one after another on an otherwise idle host.
func (b *bench) repeatSetups(rep *report) error {
	rep.setups = []float64{b.setupDur.Seconds()}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 1; i < setupRepeats; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", b.w.name, "--seed", strconv.FormatInt(b.seed, 10))
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("set-up repeat %d: %w", i, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return fmt.Errorf("set-up repeat %d: %w", i, err)
		}
		rep.setups = append(rep.setups, v)
	}
	return nil
}

// versionCapture fetches the blob of every model version the fleet is
// seen serving, so answers from refreshed versions can be checked too.
// Blobs are fetched from the key's owning replica on their own
// connection, off the generator's connections.
type versionCapture struct {
	f         *fleet
	check     *checker
	requested sync.Map // "key@version" → struct{}
	queue     chan keyVersion
	wg        sync.WaitGroup
	stopOnce  sync.Once
}

type keyVersion struct {
	k       keySpec
	version int
}

func newVersionCapture(f *fleet, c *checker) *versionCapture {
	vc := &versionCapture{f: f, check: c, queue: make(chan keyVersion, 64)}
	for key, byVersion := range c.models {
		for v := range byVersion {
			vc.requested.Store(fmt.Sprintf("%s@%d", key, v), struct{}{})
		}
	}
	vc.wg.Add(1)
	go func() {
		defer vc.wg.Done()
		tr := &http.Transport{MaxConnsPerHost: 1}
		defer tr.CloseIdleConnections()
		for kv := range vc.queue {
			cl := client.New(f.urls[f.owner(kv.k)], client.WithHTTPClient(&http.Client{Transport: tr}))
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := c.fetch(ctx, cl, kv.k); err != nil {
				fmt.Fprintf(stderr, "perfbench: capture %s v%d: %v\n", kv.k, kv.version, err)
			}
			cancel()
		}
	}()
	return vc
}

// saw notes a served version; the first sighting of a new one queues a
// fetch. It blocks only if 64 fetches are already pending, so every
// version seen serving is fetched. (A version replaced before its fetch
// runs is never captured; its answers then fail as unverified.)
func (vc *versionCapture) saw(k keySpec, version int) {
	if _, loaded := vc.requested.LoadOrStore(fmt.Sprintf("%s@%d", k, version), struct{}{}); loaded {
		return
	}
	vc.queue <- keyVersion{k, version}
}

// stop waits for pending fetches; the checker's models are stable after.
// Later calls do nothing.
func (vc *versionCapture) stop() {
	vc.stopOnce.Do(func() {
		close(vc.queue)
		vc.wg.Wait()
	})
}
