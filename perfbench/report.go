package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units, directions and bounds (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// The gated tails are p90: a run's sample supports it with ten or more
// samples beyond it for every op kind (100-250 tunes or jobs), and it
// stays below the rare retrain stalls of tune-learn, which swing p95 and
// p99 from run to run. p95 and p99 are printed beside them, not gated.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.2},
	{"predict_p50_ms", "ms", "lower", 0.2},
	{"predict_p90_ms", "ms", "lower", 0.25},
	{"predict_slo_frac", "frac", "higher", 0.1},
	{"predict_max_rps", "1/s", "higher", 0.2},
	{"tune_p50_ms", "ms", "lower", 0.2},
	{"tune_p90_ms", "ms", "lower", 0.25},
	{"job_p50_ms", "ms", "lower", 0.2},
	{"job_p90_ms", "ms", "lower", 0.25},
	{"pick_oracle_frac", "frac", "higher", 0.15},
	{"ok_frac", "frac", "higher", 0.01},
}

var printedOnly = []metricDef{
	{name: "predict_p95_ms", unit: "ms"},
	{name: "predict_p99_ms", unit: "ms"},
	{name: "tune_p99_ms", unit: "ms"},
	{name: "job_p99_ms", unit: "ms"},
	{name: "error_frac", unit: "frac"},
}

var perLayer = []metricDef{
	{name: "programl.decode_ms", unit: "ms", better: "lower"},
	{name: "rgcn.compile_ms", unit: "ms", better: "lower"},
	{name: "core.forward_b1_ms", unit: "ms", better: "lower"},
	{name: "core.forward32_b1_ms", unit: "ms", better: "lower"},
	{name: "core.fit_epoch_ms", unit: "ms", better: "lower"},
	{name: "core.sweep_ms", unit: "ms", better: "lower"},
	{name: "tensor.matmul_us", unit: "us", better: "lower"},
	{name: "tensor.matmul_computed_flop", unit: "flop", better: "lower"},
	{name: "tensor.matmul_computed_bytes", unit: "B", better: "lower"},
	{name: "dataset.build_s", unit: "s", better: "lower"},
	{name: "registry.rtt_ms", unit: "ms", better: "lower"},
	{name: "registry.queue_wait_ms", unit: "ms", better: "lower"},
	{name: "registry.batch_size_mean", unit: "count", better: "higher"},
	{name: "registry.batch_forward_ms", unit: "ms", better: "lower"},
	{name: "registry.shed", unit: "count", better: "lower"},
	{name: "registry.unaccounted_ms", unit: "ms", better: "lower"},
	{name: "registry.cache_hits", unit: "count", better: "higher"},
	{name: "registry.disk_loads", unit: "count", better: "lower"},
	{name: "registry.retrain_s", unit: "s", better: "lower"},
	{name: "registry.job_ms", unit: "ms", better: "lower"},
	{name: "registry.canary_scored", unit: "count", better: "higher"},
	{name: "registry.verdicts", unit: "count", better: "higher"},
	{name: "registry.promote_ratio", unit: "frac", better: "higher"},
	{name: "gate.hop_ms", unit: "ms", better: "lower"},
	{name: "gate.retries", unit: "count", better: "lower"},
	{name: "gate.hedges", unit: "count", better: "lower"},
	{name: "gate.hedge_win_ratio", unit: "frac", better: "higher"},
	{name: "autotune.session_ms.gnn", unit: "ms", better: "lower"},
	{name: "autotune.session_ms.hybrid", unit: "ms", better: "lower"},
	{name: "autotune.session_ms.bliss", unit: "ms", better: "lower"},
	{name: "autotune.session_ms.opentuner", unit: "ms", better: "lower"},
	{name: "measure.runs", unit: "count", better: "higher"},
	{name: "measure.run_us", unit: "us", better: "lower"},
	{name: "gen.late_p99_ms", unit: "ms", better: "lower"},
	{name: "gen.conn_wait_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_frac", unit: "frac", better: "lower"},
	{name: "self.client_ms", unit: "ms", better: "lower"},
	{name: "self.gate_ms", unit: "ms", better: "lower"},
	{name: "self.gate_attempt_ms", unit: "ms", better: "lower"},
	{name: "self.replica_ms", unit: "ms", better: "lower"},
	{name: "self.batch_queue_ms", unit: "ms", better: "lower"},
	{name: "self.batch_forward_ms", unit: "ms", better: "lower"},
}

// report is one run's outcome: counts, the end-to-end values, the
// per-layer values of a traced run, and the lines that explain them.
type report struct {
	b          *bench
	attempted  int
	failed     int
	wrong      int // answers that came back but were wrong
	unverified int // predicts from a model version never captured (failed)
	unpaired   int // pair jobs not compared: a refresh changed the model between the two
	failures   []string

	phases  []*phaseRun
	values  map[string]float64 // end-to-end
	counts  map[string]int     // sample count behind each percentile
	layers  map[string]float64 // per-layer (traced run)
	setups  []float64
	peakRSS float64
	notes   []string
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) fail(s *sample, err error) {
	s.err = err
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", s.op.kind, err))
	}
}

// newReport checks every answer and computes the end-to-end metrics
// (all but setup_s and peak_rss_mb, which the caller fills in).
func (b *bench) newReport(runs []*phaseRun) *report {
	r := &report{b: b, phases: runs, values: map[string]float64{}, counts: map[string]int{}}
	b.verify(runs, r)

	var predictLat, tuneLat, jobLat, fracs []float64
	var sloMet, predicts int
	for _, ph := range runs {
		for i := range ph.samples {
			s := &ph.samples[i]
			r.attempted++
			if s.err != nil {
				r.failed++
			}
			switch {
			case ph.p.kind == phaseMain && s.op.kind == opPredict:
				predicts++
				if s.err != nil {
					continue
				}
				predictLat = append(predictLat, ms(s.latency()))
				if s.latency() <= sloLimit {
					sloMet++
				}
				k := b.w.keys[s.op.key]
				if f, err := b.check.oracleFracs(k, b.regionIDs[s.op.graph], s.predict.Picks); err == nil {
					fracs = append(fracs, f...)
				}
			case s.op.kind == opTune && s.err == nil:
				tuneLat = append(tuneLat, ms(s.latency()))
			case s.op.kind == opJob && s.err == nil:
				jobLat = append(jobLat, ms(s.job.FinishedAt.Sub(s.due)))
			}
		}
	}
	pct := func(name string, xs []float64, q float64) {
		r.values[name] = quantile(xs, q)
		r.counts[name] = len(xs)
	}
	pct("predict_p50_ms", predictLat, 0.5)
	pct("predict_p90_ms", predictLat, 0.90)
	pct("predict_p95_ms", predictLat, 0.95)
	pct("predict_p99_ms", predictLat, 0.99)
	pct("tune_p50_ms", tuneLat, 0.5)
	pct("tune_p90_ms", tuneLat, 0.90)
	pct("tune_p99_ms", tuneLat, 0.99)
	pct("job_p50_ms", jobLat, 0.5)
	pct("job_p90_ms", jobLat, 0.90)
	pct("job_p99_ms", jobLat, 0.99)
	r.values["predict_slo_frac"] = ratio(float64(sloMet), float64(predicts))
	r.counts["predict_slo_frac"] = predicts
	r.values["pick_oracle_frac"] = geomean(fracs)
	r.counts["pick_oracle_frac"] = len(fracs)
	r.values["error_frac"] = ratio(float64(r.failed), float64(r.attempted))
	r.values["ok_frac"] = 1 - r.values["error_frac"]
	r.counts["ok_frac"] = r.attempted
	r.counts["error_frac"] = r.attempted
	r.values["predict_max_rps"] = b.maxRate(runs, r)
	return r
}

// capacityWindows is how many equal windows completionRate takes the
// median over.
const capacityWindows = 8

// maxRate reads predict_max_rps off the closed-loop capacity phase: its
// connections sent back to back, so their completion rate is the most
// they carry, with no backlog in front of the fleet.
func (b *bench) maxRate(runs []*phaseRun, r *report) float64 {
	for _, ph := range runs {
		if ph.p.kind != phaseCapacity {
			continue
		}
		var lat []float64
		for _, s := range ph.samples {
			lat = append(lat, ms(s.latency()))
		}
		rate := completionRate(ph.samples, capacityWindows)
		r.counts["predict_max_rps"] = len(ph.samples)
		r.notef("capacity: %d closed-loop answers over %d conns at %.1f/s (p50 %.2f ms, p99 %.2f ms; L %v)",
			len(ph.samples), ph.p.conns, rate, quantile(lat, 0.5), quantile(lat, 0.99), sloLimit)
		return rate
	}
	return math.NaN()
}

// verify checks every answer: predicts against the reference picks of
// the serving model version, tunes and jobs for shape and oracle bounds,
// and each paired async job against the sync tune it repeats.
func (b *bench) verify(runs []*phaseRun, r *report) {
	for _, ph := range runs {
		byOp := map[*op]*sample{}
		for i := range ph.samples {
			byOp[ph.samples[i].op] = &ph.samples[i]
		}
		for i := range ph.samples {
			s := &ph.samples[i]
			if s.err != nil {
				r.fail(s, s.err)
				continue
			}
			k := b.w.keys[s.op.key]
			var err error
			switch s.op.kind {
			case opPredict:
				var checked bool
				checked, err = b.check.checkPredict(k, s.op.graph, s.predict, b.regionIDs[s.op.graph])
				if !checked {
					r.unverified++
					r.fail(s, fmt.Errorf("unverified answer: model %s v%d was never captured", k, s.predict.ModelVersion))
					continue
				}
			case opTune:
				err = checkTune(s.op.tune, s.tune, b.caps(k))
			case opJob, opPairJob:
				switch {
				case s.job.Status != "done":
					err = fmt.Errorf("job %s ended %s: %v", s.job.ID, s.job.Status, s.job.Error)
				case s.job.FinishedAt == nil || s.job.Result == nil:
					err = fmt.Errorf("job %s done without a result", s.job.ID)
				default:
					err = checkTune(s.op.tune, s.job.Result, b.caps(k))
				}
				if err == nil && s.op.kind == opPairJob {
					if sync := byOp[&ph.ops[s.op.pairOf]]; sync != nil && sync.err == nil {
						var checked bool
						if checked, err = samePair(sync.tune, s.job.Result); !checked {
							r.unpaired++
						}
					}
				}
			}
			if err != nil {
				r.wrong++
				r.fail(s, fmt.Errorf("wrong answer: %w", err))
			}
		}
	}
}

// caps is the number of power caps on k's machine.
func (b *bench) caps(k keySpec) int { return len(b.data[k.machine].Space.Caps()) }

// print writes the human-readable report and then, as the last line,
// the JSON result.
func (r *report) print(w io.Writer) error {
	b := r.b
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%d trace=%v\n", b.w.name, b.seed, b.seconds, b.traced)
	for _, line := range provenance(b) {
		fmt.Fprintf(w, "  %s\n", line)
	}
	fmt.Fprintf(w, "ops: attempted %d, failed %d (wrong answers %d, unverified %d), pairs not compared %d\n", r.attempted, r.failed, r.wrong, r.unverified, r.unpaired)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	for _, ph := range r.phases {
		fmt.Fprintf(w, "phase %s: %d ops sent over %v on %d conns (%.1f/s), connection utilisation %.2f\n", ph.p.name(),
			len(ph.samples), ph.dur, ph.p.conns, float64(len(ph.samples))/ph.dur.Seconds(), utilisation(ph.samples, ph.p.conns, ph.start))
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	defs, vals := endToEnd, r.values
	if b.traced {
		defs, vals = perLayer, r.layers
	} else {
		r.values["setup_s"] = median(r.setups)
		r.counts["setup_s"] = len(r.setups)
		r.values["peak_rss_mb"] = r.peakRSS
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		n := ""
		if c, ok := r.counts[d.name]; ok {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintf(w, "%-32s %14.6g %-5s%s\n", d.name, v, d.unit, n)
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	if b.traced {
		for _, line := range history(r.layers) {
			fmt.Fprintln(w, line)
		}
	} else {
		// Printed, not gated: tails that do not repeat run to run, and the
		// error share ok_frac complements.
		for _, d := range printedOnly {
			fmt.Fprintf(w, "%-32s %14.6g %-5s  (n=%d, not gated)\n", d.name, r.values[d.name], d.unit, r.counts[d.name])
		}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   r.wrong == 0 && r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// provenance records the host and inputs a run's numbers belong to.
func provenance(b *bench) []string {
	refresh := "refresh off"
	if b.w.refresh {
		refresh = fmt.Sprintf("refresh every %d samples (%d-epoch retrains, canary window %d)", refreshSamples, refreshEpochs, canaryWindow)
	}
	return []string{
		fmt.Sprintf("host: cpu %q, nproc %d, GOMAXPROCS %d, %s", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		fmt.Sprintf("source: commit %s, tree digest %s", gitHead(), treeDigest()),
		fmt.Sprintf("inputs: seed %d, L %v, train epochs %d, %d replicas, %s", b.seed, sloLimit, trainEpochs, numReplicas, refresh),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitHead reads the checked-out commit without running git; a checkout
// without .git reports "none" and the tree digest identifies it instead.
func gitHead() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// treeDigest hashes every Go source and go.mod under the checkout, so a
// result names the exact program it measured.
func treeDigest() string {
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if data, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(data))
				h.Write(data)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSS is the process's resident-memory high-water mark (VmHWM) in MiB.
func peakRSS() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// historyBench maps the go test benchmarks of the committed BENCH_*.json
// files onto the layer metrics that continue them.
var historyBench = map[string]string{
	"BenchmarkFitEpoch":                "core.fit_epoch_ms",
	"BenchmarkPredictSweep":            "core.sweep_ms",
	"BenchmarkEngineSession/gnn":       "autotune.session_ms.gnn",
	"BenchmarkEngineSession/hybrid":    "autotune.session_ms.hybrid",
	"BenchmarkEngineSession/bliss":     "autotune.session_ms.bliss",
	"BenchmarkEngineSession/opentuner": "autotune.session_ms.opentuner",
}

// benchSuffix is go test's -GOMAXPROCS suffix on a benchmark name.
var benchSuffix = regexp.MustCompile(`-\d+$`)

// history prints the committed BENCH_*.json figures (read, never
// written) beside the layer metrics that continue their series.
func history(layers map[string]float64) []string {
	files, _ := filepath.Glob("BENCH_*.json")
	sort.Strings(files)
	byMetric := map[string][]string{}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			continue
		}
		var doc struct {
			Lines []string `json:"benchstat_text"`
		}
		if json.Unmarshal(data, &doc) != nil {
			continue
		}
		for _, line := range doc.Lines {
			fields := strings.Fields(line)
			if len(fields) < 4 || fields[3] != "ns/op" {
				continue
			}
			metric := historyBench[benchSuffix.ReplaceAllString(fields[0], "")]
			nsop, err := strconv.ParseFloat(fields[2], 64)
			if metric == "" || err != nil {
				continue
			}
			byMetric[metric] = append(byMetric[metric], fmt.Sprintf("%s %.4g ms",
				strings.TrimSuffix(file, ".json"), nsop/float64(time.Millisecond)))
		}
	}
	var out []string
	for _, d := range perLayer {
		if past := byMetric[d.name]; len(past) > 0 {
			out = append(out, fmt.Sprintf("history %s: %s | this run %.4g ms (go test -benchtime 3x figures, not comparable run for run)",
				d.name, strings.Join(past, ", "), layers[d.name]))
		}
	}
	return out
}
