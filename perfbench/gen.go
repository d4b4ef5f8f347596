package main

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pnptuner/internal/api"
)

// opKind is what one generated request asks the fleet to do.
type opKind int

const (
	opPredict opKind = iota
	opTune           // synchronous /v1/tune
	opJob            // async /v1/tune with a measure budget
	opPairJob        // async copy of a sync tune, for the sync/async check
)

var opKindNames = [...]string{"predict", "tune", "job", "pair-job"}

func (k opKind) String() string { return opKindNames[k] }

// op is one request of an open-loop schedule. Everything in it is drawn
// from the run's seed before the phase starts.
type op struct {
	due   time.Duration // offset from the phase start
	kind  opKind
	key   int // index into the workload's keys
	graph int // corpus graph index (predicts)
	tune  api.TuneRequest
	// pairOf is the index of the sync tune an opPairJob repeats.
	pairOf int
	// traced ops carry a benchmark-chosen X-Request-ID and the benchmark's own spans.
	traced bool
}

// sample is one sent op and what came back.
type sample struct {
	op       *op
	due      time.Time // absolute due time
	start    time.Time // when a sender actually sent it
	end      time.Time
	connWait time.Duration // due → a sender was free (0 when one was idle)
	err      error

	predict *api.PredictResponse
	tune    *api.TuneResponse
	job     *api.Job
	traceID string
}

// latency is timed from the due time, so a stall in the fleet or the
// generator is charged to every request it delayed.
func (s *sample) latency() time.Duration { return s.end.Sub(s.due) }

// late is how long after its due time the request was sent.
func (s *sample) late() time.Duration { return s.start.Sub(s.due) }

// pacedDues spaces arrivals at rate (per second) over dur with each gap
// drawn uniformly from half to one and a half of the mean: requests
// arrive at seeded times without the bursts of a Poisson process. On a
// 2-core host those bursts queued a quarter of lone predicts at 40 rps
// and, near capacity, swung the latency tails by more than their bounds
// from run to run, so every open-loop phase is paced.
func pacedDues(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += (0.5 + rng.Float64()) / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return out
		}
		out = append(out, d)
	}
}

// runOpenLoop sends ops at their due times from `senders` goroutines,
// each owning one connection (do's sender index picks it). A sender
// takes the next op in due order as soon as it is free, sleeps until
// the op is due, and sends it; an op due while every sender is busy
// waits, and that wait is part of its latency. The samples come back in
// due order.
func runOpenLoop(ops []op, senders int, do func(sender int, s *sample)) []sample {
	out := make([]sample, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				s := &out[i]
				s.op = &ops[i]
				s.due = start.Add(ops[i].due)
				if wait := time.Until(s.due); wait > 0 {
					time.Sleep(wait)
				} else {
					s.connWait = -wait
				}
				s.start = time.Now()
				do(w, s)
				s.end = time.Now()
			}
		}(w)
	}
	wg.Wait()
	return out
}

// runClosedLoop keeps `senders` connections busy for dur: each sender
// sends its next op the moment its previous answer is back, cycling
// through ops, and starts no op once dur has passed. Each sample is due
// when it is sent. The samples come back in send order.
func runClosedLoop(ops []op, senders int, dur time.Duration, do func(sender int, s *sample)) []sample {
	var mu sync.Mutex
	var out []sample
	var next atomic.Int64
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []sample
			for {
				now := time.Now()
				if !now.Before(deadline) {
					break
				}
				s := sample{op: &ops[int(next.Add(1)-1)%len(ops)], due: now, start: now}
				do(w, &s)
				s.end = time.Now()
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	sort.Slice(out, func(i, j int) bool { return out[i].start.Before(out[j].start) })
	return out
}

// completionRate is the answers per second of a closed-loop phase: the
// time from the first send to the last answer is cut into `windows`
// equal windows, and the median window's answer rate is the rate, so a
// short stall in one window does not set it.
func completionRate(samples []sample, windows int) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	first, last := samples[0].start, samples[0].end
	for _, s := range samples {
		if s.start.Before(first) {
			first = s.start
		}
		if s.end.After(last) {
			last = s.end
		}
	}
	width := last.Sub(first) / time.Duration(windows)
	counts := make([]float64, windows)
	for _, s := range samples {
		counts[min(int(s.end.Sub(first)/width), windows-1)]++
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return median(counts)
}

// utilisation is the share of the phase's connection time spent on
// requests: the summed send→answer time over conns × wall time, from
// start to the last answer.
func utilisation(samples []sample, conns int, start time.Time) float64 {
	var busy time.Duration
	last := start
	for _, s := range samples {
		busy += s.end.Sub(s.start)
		if s.end.After(last) {
			last = s.end
		}
	}
	return ratio(busy.Seconds(), float64(conns)*last.Sub(start).Seconds())
}
