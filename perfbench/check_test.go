package main

import (
	"encoding/json"
	"strings"
	"testing"

	"pnptuner/internal/api"
	"pnptuner/internal/core"
	"pnptuner/internal/kernels"
)

// newTestChecker serves one untrained (but deterministic) model per key
// over the first corpus graphs.
func newTestChecker(t *testing.T) (*checker, *kernels.Corpus) {
	t.Helper()
	corpus := kernels.MustCompile()
	corpus.Vocab.Freeze()
	var graphs [][]byte
	for _, id := range corpus.RegionIDs()[:3] {
		raw, err := json.Marshal(corpus.Region(id).Graph)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, raw)
	}
	c := newChecker(corpus.Vocab, graphs, nil)
	cfg := core.DefaultModelConfig()
	cfg.Seed = 11
	c.models[hswTime.String()] = map[int]*core.Model{1: core.NewModel(cfg, corpus.Vocab.Size(), 4, 127)}
	c.models[skyEDP.String()] = map[int]*core.Model{1: core.NewModel(cfg, corpus.Vocab.Size(), 1, 508)}
	return c, corpus
}

func TestCheckerFlagsCorruptedPick(t *testing.T) {
	c, corpus := newTestChecker(t)
	region := corpus.RegionIDs()[1]
	for _, k := range []keySpec{hswTime, skyEDP} {
		ref, err := c.reference(k, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		resp := &api.PredictResponse{RegionID: region, ModelVersion: 1}
		for _, p := range ref {
			resp.Picks = append(resp.Picks, api.Pick{ConfigIndex: p})
		}
		if checked, err := c.checkPredict(k, 1, resp, region); !checked || err != nil {
			t.Fatalf("%s: the reference's own picks: checked %v, err %v", k, checked, err)
		}

		bad := *resp
		bad.Picks = append([]api.Pick(nil), resp.Picks...)
		last := len(bad.Picks) - 1
		bad.Picks[last].ConfigIndex = (bad.Picks[last].ConfigIndex + 1) % 127
		if _, err := c.checkPredict(k, 1, &bad, region); err == nil || !strings.Contains(err.Error(), "reference") {
			t.Errorf("%s: corrupted pick not flagged (err %v)", k, err)
		}
		bad.Picks = resp.Picks[:last]
		if _, err := c.checkPredict(k, 1, &bad, region); err == nil {
			t.Errorf("%s: missing pick not flagged", k)
		}

		deg := *resp
		deg.Degraded, deg.DegradedSource = true, "heuristic"
		if _, err := c.checkPredict(k, 1, &deg, region); err == nil {
			t.Errorf("%s: degraded answer accepted as a model prediction", k)
		}
		wrongRegion := *resp
		wrongRegion.RegionID = corpus.RegionIDs()[2]
		if _, err := c.checkPredict(k, 1, &wrongRegion, region); err == nil {
			t.Errorf("%s: answer for another region accepted", k)
		}
		unknown := *resp
		unknown.ModelVersion = 2
		if checked, err := c.checkPredict(k, 1, &unknown, region); checked || err != nil {
			t.Errorf("%s: uncaptured version: checked %v, err %v; want unchecked", k, checked, err)
		}
	}
}

func TestSamePair(t *testing.T) {
	a := &api.TuneResponse{Strategy: "bliss", ModelVersion: 0, Picks: []api.TunePick{{ConfigIndex: 3, Evals: 8, OracleFrac: 0.9}}}
	b := *a
	b.Picks = []api.TunePick{{ConfigIndex: 3, Evals: 8, OracleFrac: 0.9}}
	if checked, err := samePair(a, &b); !checked || err != nil {
		t.Fatalf("equal answers: checked %v, err %v", checked, err)
	}
	b.Picks[0].ConfigIndex = 4
	if _, err := samePair(a, &b); err == nil {
		t.Error("different async result not flagged")
	}
	b.ModelVersion = 2
	if checked, _ := samePair(a, &b); checked {
		t.Error("answers from different model versions compared")
	}
}

func TestCheckTune(t *testing.T) {
	req := api.TuneRequest{Objective: "time", Strategy: "bliss", RegionID: "r", MeasureBudget: 8}
	good := &api.TuneResponse{Strategy: "bliss", RegionID: "r", MeasuredRuns: 8}
	for i := 0; i < 4; i++ {
		good.Picks = append(good.Picks, api.TunePick{OracleFrac: 0.8})
	}
	if err := checkTune(req, good, 4); err != nil {
		t.Fatal(err)
	}
	over := *good
	over.Picks = append([]api.TunePick(nil), good.Picks...)
	over.Picks[2].OracleFrac = 1.3
	if checkTune(req, &over, 4) == nil {
		t.Error("pick better than the oracle accepted")
	}
	idle := *good
	idle.MeasuredRuns = 0
	if checkTune(req, &idle, 4) == nil {
		t.Error("measured session without runs accepted")
	}
}

// A predict served by a model version the benchmark never captured
// cannot be checked, so the run must count it as failed.
func TestVerifyFailsUnverifiedPredict(t *testing.T) {
	c, corpus := newTestChecker(t)
	b := &bench{w: workload{keys: []keySpec{hswTime}}, check: c, regionIDs: corpus.RegionIDs()[:3]}
	ref, err := c.reference(hswTime, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ops := []op{{kind: opPredict, graph: 1}, {kind: opPredict, graph: 1}}
	ph := &phaseRun{p: phase{kind: phaseMain}, ops: ops}
	for i, version := range []int{1, 2} {
		resp := &api.PredictResponse{RegionID: b.regionIDs[1], ModelVersion: version}
		for _, p := range ref {
			resp.Picks = append(resp.Picks, api.Pick{ConfigIndex: p})
		}
		ph.samples = append(ph.samples, sample{op: &ops[i], predict: resp})
	}
	r := &report{b: b}
	b.verify([]*phaseRun{ph}, r)
	if ph.samples[0].err != nil {
		t.Fatalf("captured version failed: %v", ph.samples[0].err)
	}
	if ph.samples[1].err == nil || r.unverified != 1 || r.wrong != 0 {
		t.Fatalf("uncaptured version: err %v, unverified %d, wrong %d; want failed as unverified", ph.samples[1].err, r.unverified, r.wrong)
	}
}
