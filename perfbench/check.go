package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"

	"pnptuner/internal/api"
	"pnptuner/internal/autotune"
	"pnptuner/internal/client"
	"pnptuner/internal/core"
	"pnptuner/internal/dataset"
	"pnptuner/internal/programl"
	"pnptuner/internal/rgcn"
	"pnptuner/internal/vocab"
)

// checker holds what the benchmark needs to judge answers in its own
// process: the served models (fetched as blobs, one per key and
// version), the corpus graphs as sent, and the exhaustive datasets that
// give each pick its fraction of oracle performance.
type checker struct {
	vocab  *vocab.Vocabulary
	graphs [][]byte // graph JSON exactly as sent, by corpus index
	data   map[string]*dataset.Dataset

	models map[string]map[int]*core.Model // key → version → model
	refs   map[refKey][]int
}

type refKey struct {
	key     string
	version int
	graph   int
}

func newChecker(v *vocab.Vocabulary, graphs [][]byte, data map[string]*dataset.Dataset) *checker {
	return &checker{
		vocab:  v,
		graphs: graphs,
		data:   data,
		models: map[string]map[int]*core.Model{},
		refs:   map[refKey][]int{},
	}
}

// fetch pulls the model a replica serves for k and files it under the
// version its own metadata records.
func (c *checker) fetch(ctx context.Context, cl *client.Client, k keySpec) error {
	rc, err := cl.ModelBlob(ctx, k.regKey().ID())
	if err != nil {
		return fmt.Errorf("fetch model %s: %w", k, err)
	}
	blob, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return fmt.Errorf("fetch model %s: %w", k, err)
	}
	m, meta, err := core.UnmarshalModel(blob)
	if err != nil {
		return fmt.Errorf("decode model %s: %w", k, err)
	}
	meta.Normalize()
	if meta.Machine != k.machine || meta.Objective != k.objective {
		return fmt.Errorf("model %s: blob is for %s/%s", k, meta.Machine, meta.Objective)
	}
	if c.models[k.String()] == nil {
		c.models[k.String()] = map[int]*core.Model{}
	}
	c.models[k.String()][meta.Version] = m
	return nil
}

func (c *checker) has(k keySpec, version int) bool {
	return c.models[k.String()][version] != nil
}

// compile turns a graph's wire bytes into what the server forwards:
// decode, annotate with the corpus vocabulary, compile.
func (c *checker) compile(gi int) (*rgcn.CompiledGraph, error) {
	g := &programl.Graph{}
	if err := json.Unmarshal(c.graphs[gi], g); err != nil {
		return nil, err
	}
	c.vocab.Annotate(g)
	return rgcn.CompileGraph(g), nil
}

// reference is the model's own per-head argmax for one graph.
func (c *checker) reference(k keySpec, version, gi int) ([]int, error) {
	rk := refKey{k.String(), version, gi}
	if r, ok := c.refs[rk]; ok {
		return r, nil
	}
	m := c.models[k.String()][version]
	if m == nil {
		return nil, fmt.Errorf("no model %s v%d", k, version)
	}
	cg, err := c.compile(gi)
	if err != nil {
		return nil, err
	}
	r := m.PredictCompiled([]*rgcn.CompiledGraph{cg}, nil)[0]
	c.refs[rk] = r
	return r, nil
}

// checkPredict compares a served answer with the reference picks of the
// model version that served it. checked is false when that version was
// never captured (it was promoted and replaced between fetches).
func (c *checker) checkPredict(k keySpec, gi int, resp *api.PredictResponse, regionID string) (checked bool, err error) {
	if resp.Degraded {
		return true, fmt.Errorf("degraded answer (%s)", resp.DegradedSource)
	}
	if resp.RegionID != regionID {
		return true, fmt.Errorf("region %q, want %q", resp.RegionID, regionID)
	}
	if !c.has(k, resp.ModelVersion) {
		return false, nil
	}
	want, err := c.reference(k, resp.ModelVersion, gi)
	if err != nil {
		return true, err
	}
	return true, comparePicks(k, resp.Picks, want)
}

// comparePicks checks a time answer's per-cap picks, or an EDP answer's
// joint pick, against the reference head argmaxes.
func comparePicks(k keySpec, got []api.Pick, want []int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d picks, want %d", len(got), len(want))
	}
	for h, p := range got {
		if p.ConfigIndex != want[h] {
			return fmt.Errorf("%s head %d picked %d, reference %d", k, h, p.ConfigIndex, want[h])
		}
	}
	return nil
}

// oracleFracs returns each pick's fraction of oracle performance: the
// exhaustive-search optimum's objective value over the pick's.
func (c *checker) oracleFracs(k keySpec, regionID string, picks []api.Pick) ([]float64, error) {
	d := c.data[k.machine]
	rd := d.Region(regionID)
	if rd == nil {
		return nil, fmt.Errorf("unknown region %q", regionID)
	}
	var out []float64
	for h, p := range picks {
		var obj autotune.Objective = autotune.EDP{}
		if k.objective == "time" {
			obj = autotune.TimeUnderCap{Cap: h}
		}
		if p.ConfigIndex < 0 || p.ConfigIndex >= obj.NumCandidates(d.Space) {
			return nil, fmt.Errorf("pick %d outside the search space", p.ConfigIndex)
		}
		_, best := autotune.Oracle(rd, d.Space, obj)
		out = append(out, best/obj.Value(rd, d.Space, p.ConfigIndex))
	}
	return out, nil
}

// checkTune validates a tune answer's shape: one pick per cap (time) or
// one joint pick, each within the oracle.
func checkTune(req api.TuneRequest, resp *api.TuneResponse, caps int) error {
	want := 1
	if req.Objective == "time" {
		want = caps
	}
	if resp.Strategy != req.Strategy || resp.RegionID != req.RegionID {
		return fmt.Errorf("answer for %s/%s, asked %s/%s", resp.Strategy, resp.RegionID, req.Strategy, req.RegionID)
	}
	if len(resp.Picks) != want {
		return fmt.Errorf("%d picks, want %d", len(resp.Picks), want)
	}
	for _, p := range resp.Picks {
		if !(p.OracleFrac > 0 && p.OracleFrac <= 1+1e-9) {
			return fmt.Errorf("oracle fraction %v outside (0, 1]", p.OracleFrac)
		}
	}
	if req.MeasureBudget > 0 && resp.MeasuredRuns == 0 {
		return fmt.Errorf("measured session took no runs")
	}
	return nil
}

// samePair reports whether an async job's result equals the sync tune
// it repeats. checked is false when a refresh changed the serving model
// version between the two (model-driven strategies shortlist through it).
func samePair(sync, async *api.TuneResponse) (checked bool, err error) {
	if sync.ModelVersion != async.ModelVersion {
		return false, nil
	}
	if !reflect.DeepEqual(sync, async) {
		return true, fmt.Errorf("async %s result differs from the sync answer", sync.Strategy)
	}
	return true, nil
}
