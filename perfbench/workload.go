package main

import (
	"fmt"
	"math/rand"
	"time"

	"pnptuner/internal/api"
	"pnptuner/internal/registry"
)

// keySpec is one served model key (scenario "full").
type keySpec struct{ machine, objective string }

func (k keySpec) String() string { return k.machine + "/" + k.objective + "/full" }

func (k keySpec) regKey() registry.Key {
	return registry.Key{Machine: k.machine, Scenario: registry.ScenarioFull, Objective: k.objective}
}

var (
	hswTime = keySpec{"haswell", registry.ObjectiveTime}
	hswEDP  = keySpec{"haswell", registry.ObjectiveEDP}
	skyTime = keySpec{"skylake", registry.ObjectiveTime}
	skyEDP  = keySpec{"skylake", registry.ObjectiveEDP}
)

// sloLimit is L: a predict answered later than this after its due time
// (or not correctly at all) misses the SLO. Lone predicts take 5-10 ms
// at p99 on a 2-core host, so L leaves room for queueing, not overload.
const sloLimit = 25 * time.Millisecond

// Tune traffic shapes.
const (
	jobMeasureBudget = 8 // real executions per learn job
	// Every Nth sync tune is repeated as an async job. N is coprime
	// with the number of strategies, so the pairs cycle through all four.
	pairEvery = 5
)

// capacityCycles is how many seeded passes over the corpus a closed-loop
// capacity schedule holds; its senders cycle through them.
const capacityCycles = 4

var (
	tuneStrategies = []string{"gnn", "hybrid", "bliss", "opentuner"}
	// Learn jobs use the search strategies, which spend the whole
	// measure budget; their samples drive the refresh loop. A bliss job
	// finishes in ~1.7 ms, a hybrid one in ~4.5 ms. At half and half,
	// job_p50 fell in the gap between the two modes and swung 0.11
	// IQR/median between seeds; two hybrids to each bliss keep the job
	// percentiles inside one mode.
	jobStrategies = []string{"hybrid", "bliss", "hybrid"}
)

// phaseKind says what a phase measures.
type phaseKind int

const (
	phaseMain     phaseKind = iota // the workload's own traffic
	phaseCapacity                  // closed-loop predicts for predict_max_rps
	phaseTune                      // sync tunes and measured jobs
)

// phase is one stretch of open-loop traffic in a run.
type phase struct {
	kind  phaseKind
	share float64 // of --seconds
	conns int
	// rate is the paced arrival rate (see pacedDues). A capacity phase
	// has none: its connections send back to back.
	rate float64
	// mix weighs predicts, sync tunes and measured jobs.
	mix [3]float64
}

func (p phase) name() string {
	return [...]string{"main", "capacity", "tune"}[p.kind]
}

// workload is a traffic mix over the fleet. Every workload reports every
// end-to-end metric: the predict workloads take their tune and job
// figures from a trailing tune phase, and every workload takes
// predict_max_rps from a closed-loop capacity phase over its own
// connections and keys. Only tune-learn arms the refresh loop, so only
// there do measured samples retrain, canary and promote models mid-run.
type workload struct {
	name    string
	keys    []keySpec
	refresh bool
	phases  []phase
}

var workloads = []workload{
	{
		// One connection, lone arrivals: every predict pays the whole
		// batch window, the JSON decode and the gate hop unqueued.
		name: "predict-lone",
		keys: []keySpec{hswTime},
		phases: []phase{
			{kind: phaseMain, share: 0.55, conns: 1, rate: 40, mix: [3]float64{1, 0, 0}},
			{kind: phaseCapacity, share: 0.2, conns: 1},
			{kind: phaseTune, share: 0.25, conns: 1, rate: 70, mix: [3]float64{0, 0.5, 0.5}},
		},
	},
	{
		// Two busy connections over four keys spread on the ring: the
		// CPU per request and the window under concurrent arrivals set
		// the capacity, which the closed-loop phase measures with both
		// connections always busy. The fixed-rate main phase runs at
		// 0.4 of that capacity (predict_max_rps ~410/s on a 2-core
		// host): p90 climbs from about 0.55 connection utilisation, and
		// the host's speed swings by up to 30 % between runs, so faster
		// rates moved p90 by more than its bound (README.md has the
		// measurements).
		name: "predict-load",
		keys: []keySpec{hswTime, hswEDP, skyTime, skyEDP},
		phases: []phase{
			{kind: phaseMain, share: 0.55, conns: 2, rate: 160, mix: [3]float64{1, 0, 0}},
			{kind: phaseCapacity, share: 0.2, conns: 2},
			{kind: phaseTune, share: 0.25, conns: 2, rate: 100, mix: [3]float64{0, 0.5, 0.5}},
		},
	},
	{
		// Writes beside reads: measured jobs feed retrains, canaries and
		// promotions while predicts and sync tunes keep arriving.
		// The capacity phase runs first, before any retrain, so the
		// learn loop's background work does not swing it.
		name:    "tune-learn",
		keys:    []keySpec{hswTime, skyEDP},
		refresh: true,
		phases: []phase{
			{kind: phaseCapacity, share: 0.2, conns: 2},
			{kind: phaseMain, share: 0.8, conns: 2, rate: 80, mix: [3]float64{0.6, 0.25, 0.15}},
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// genOps draws one phase's schedule from its own stream of the run's
// seed: arrival times, op kinds, keys, graphs (each cycle a fresh
// permutation of the corpus), tune strategies, regions and tune seeds.
func genOps(w workload, p phase, phaseIdx int, seed int64, dur time.Duration, regionIDs []string) []op {
	rng := rand.New(rand.NewSource(seed*7919 + int64(phaseIdx)))
	var dues []time.Duration
	switch {
	case p.kind == phaseCapacity:
		// Closed loop: the ops carry no due times and are sent in turn,
		// over and over, for as long as the phase lasts.
		dues = make([]time.Duration, capacityCycles*len(regionIDs))
	default:
		dues = pacedDues(rng, p.rate, dur)
	}
	total := p.mix[0] + p.mix[1] + p.mix[2]
	if p.kind == phaseCapacity {
		total = 0
	}
	var perm []int
	var tunes, jobs int
	ops := make([]op, 0, len(dues))
	for _, due := range dues {
		kind := opPredict
		if total > 0 {
			switch x := rng.Float64() * total; {
			case x < p.mix[0]:
				kind = opPredict
			case x < p.mix[0]+p.mix[1]:
				kind = opTune
			default:
				kind = opJob
			}
		}
		o := op{due: due, kind: kind, key: rng.Intn(len(w.keys))}
		k := w.keys[o.key]
		switch kind {
		case opPredict:
			if len(perm) == 0 {
				perm = rng.Perm(len(regionIDs))
			}
			o.graph, perm = perm[0], perm[1:]
		case opTune:
			o.tune = api.TuneRequest{
				Machine: k.machine, Objective: k.objective,
				Strategy: tuneStrategies[tunes%len(tuneStrategies)],
				RegionID: regionIDs[rng.Intn(len(regionIDs))],
				Seed:     rng.Uint64()>>1 + 1,
			}
			tunes++
		case opJob:
			o.tune = api.TuneRequest{
				Machine: k.machine, Objective: k.objective,
				Strategy:      jobStrategies[jobs%len(jobStrategies)],
				RegionID:      regionIDs[rng.Intn(len(regionIDs))],
				Seed:          rng.Uint64()>>1 + 1,
				MeasureBudget: jobMeasureBudget,
			}
			jobs++
		}
		ops = append(ops, o)
		if kind == opTune && tunes%pairEvery == 0 {
			ops = append(ops, op{due: due, kind: opPairJob, key: o.key, tune: o.tune, pairOf: len(ops) - 1})
		}
	}
	return ops
}
