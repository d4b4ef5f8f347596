package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"pnptuner/internal/telemetry"
)

// span is one timed step of a traced request: the benchmark's own spans
// around its calls, and the gate's and replicas' spans read back from
// their /v1/traces/{id}. Times are absolute; every process of the fleet
// shares the benchmark's clock.
type span struct {
	Name  string        `json:"name"`
	Proc  string        `json:"proc"` // bench, gate, r0, r1, ...
	Layer string        `json:"layer"`
	Start time.Time     `json:"start"`
	Dur   time.Duration `json:"dur_ns"`
	Self  time.Duration `json:"self_ns"`
	depth int
}

func (s *span) end() time.Time { return s.Start.Add(s.Dur) }

// layerOf places a span in a request's call chain: its layer name and
// its depth (a span's parent is the deepest shallower span that contains
// its start, see selfTimes). ok is false for spans off the request path, such as canary
// scoring, which runs after the answer is sent.
func layerOf(proc, name string) (layer string, depth int, ok bool) {
	switch {
	case proc == "bench" && name == "gen.op":
		return "gen", 0, true
	case proc == "bench" && name == "gen.wait":
		return "gen.wait", 1, true
	case proc == "bench" && name == "client.send":
		return "client", 1, true
	case proc == "gate" && strings.HasPrefix(name, "http "):
		return "gate", 2, true
	case proc == "gate" && name == "gate.attempt":
		return "gate.attempt", 3, true
	case proc != "gate" && strings.HasPrefix(name, "http "):
		return "replica", 4, true
	case name == "batch.queue" || name == "batch.forward":
		return name, 5, true
	}
	return "", 0, false
}

// newSpan builds a span and places it; ok as for layerOf.
func newSpan(proc, name string, start time.Time, dur time.Duration) (span, bool) {
	layer, depth, ok := layerOf(proc, name)
	return span{Name: name, Proc: proc, Layer: layer, Start: start, Dur: dur, depth: depth}, ok
}

// selfTimes fills each span's Self: its duration minus the part of it
// that its children cover (overlapping children, like a hedged second
// attempt, count once).
func selfTimes(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	children := make([][]int, len(spans))
	for i := range spans {
		parent := -1
		for j := range spans {
			p := &spans[j]
			if p.depth >= spans[i].depth || spans[i].Start.Before(p.Start) || spans[i].Start.After(p.end()) {
				continue
			}
			// The deepest container is the parent; among equally deep
			// ones (a hedged second attempt and its replica overlap the
			// first) the latest started.
			if parent < 0 || p.depth > spans[parent].depth ||
				(p.depth == spans[parent].depth && p.Start.After(spans[parent].Start)) {
				parent = j
			}
		}
		if parent >= 0 {
			children[parent] = append(children[parent], i)
		}
	}
	for i := range spans {
		p := &spans[i]
		type iv struct{ lo, hi time.Time }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].end()
			if lo.Before(p.Start) {
				lo = p.Start
			}
			if hi.After(p.end()) {
				hi = p.end()
			}
			if hi.After(lo) {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo.Before(ivs[b].lo) })
		var covered time.Duration
		var curLo, curHi time.Time
		for k, v := range ivs {
			if k == 0 || v.lo.After(curHi) {
				covered += curHi.Sub(curLo)
				curLo, curHi = v.lo, v.hi
			} else if v.hi.After(curHi) {
				curHi = v.hi
			}
		}
		covered += curHi.Sub(curLo)
		p.Self = p.Dur - covered
	}
}

// requestTrace is one traced request as written to the trace file.
type requestTrace struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	Spans []span `json:"spans"`
}

// tracer keeps the traced requests' spans in memory and pulls the
// matching server-side spans from the fleet shortly after each request
// completes (the servers keep a bounded window of recent traces).
type tracer struct {
	f     *fleet
	http  *http.Client
	queue chan *requestTrace
	wg    sync.WaitGroup
	once  sync.Once
	mu    sync.Mutex
	done  []*requestTrace
}

// traceFetchRate bounds the trace reads per second, so the traced run
// adds a bounded read load to the fleet it measures.
const traceFetchRate = 40

func newTracer(f *fleet) *tracer {
	t := &tracer{
		f:    f,
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
		// Sized to one second of fetches; requests traced while the
		// queue is full keep only the benchmark's own spans.
		queue: make(chan *requestTrace, traceFetchRate),
	}
	t.wg.Add(1)
	go t.loop()
	return t
}

// record hands a finished traced request to the fetcher.
func (t *tracer) record(s *sample) {
	rt := &requestTrace{ID: s.traceID, Kind: s.op.kind.String()}
	for _, d := range []struct {
		name     string
		from, to time.Time
	}{
		{"gen.op", s.due, s.end},
		{"gen.wait", s.due, s.start},
		{"client.send", s.start, s.end},
	} {
		sp, _ := newSpan("bench", d.name, d.from, d.to.Sub(d.from))
		rt.Spans = append(rt.Spans, sp)
	}
	select {
	case t.queue <- rt:
	default:
		t.mu.Lock()
		t.done = append(t.done, rt)
		t.mu.Unlock()
	}
}

func (t *tracer) loop() {
	defer t.wg.Done()
	tick := time.NewTicker(time.Second / traceFetchRate)
	defer tick.Stop()
	for rt := range t.queue {
		<-tick.C
		// The server adds its root span after the response is written.
		time.Sleep(time.Until(rt.Spans[0].end().Add(20 * time.Millisecond)))
		t.fetch(rt)
		t.mu.Lock()
		t.done = append(t.done, rt)
		t.mu.Unlock()
	}
}

// fetch reads the gate's spans for the request, then those of every
// replica the gate attempted. A trace the servers already evicted keeps
// only the benchmark's spans.
func (t *tracer) fetch(rt *requestTrace) {
	gt, err := getTrace(t.http, t.f.gateURL, rt.ID)
	if err != nil {
		return
	}
	procs := map[string]string{"gate": t.f.gateURL}
	for _, s := range gt.Spans {
		if s.Name == "gate.attempt" {
			if i, err := strconv.Atoi(s.Attrs["replica"]); err == nil && i < len(t.f.urls) {
				procs[fmt.Sprintf("r%d", i)] = t.f.urls[i]
			}
		}
	}
	for proc, base := range procs {
		tr := gt
		if proc != "gate" {
			if tr, err = getTrace(t.http, base, rt.ID); err != nil {
				continue
			}
		}
		for _, s := range tr.Spans {
			if sp, on := newSpan(proc, s.Name, tr.Start.Add(time.Duration(s.StartNs)), time.Duration(s.DurNs)); on {
				rt.Spans = append(rt.Spans, sp)
			}
		}
	}
}

// getTrace reads one request's spans from a process's /v1/traces/{id}.
func getTrace(hc *http.Client, base, id string) (telemetry.Trace, error) {
	var tr telemetry.Trace
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/traces/"+id, nil)
	if err != nil {
		return tr, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return tr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return tr, fmt.Errorf("trace %s at %s: %s", id, base, resp.Status)
	}
	return tr, json.NewDecoder(resp.Body).Decode(&tr)
}

// finish stops the fetcher, waits for it and returns every traced
// request with self times filled in. Later calls return the same.
func (t *tracer) finish() []*requestTrace {
	t.once.Do(func() {
		close(t.queue)
		t.wg.Wait()
		t.http.CloseIdleConnections()
		for _, rt := range t.done {
			selfTimes(rt.Spans)
		}
	})
	return t.done
}

// selfByLayer averages each layer's self time over the traced requests
// of one kind that carry server spans, and counts those requests.
func selfByLayer(traces []*requestTrace, kind string) (map[string]float64, int) {
	sums := map[string]float64{}
	n := 0
	for _, rt := range traces {
		if rt.Kind != kind || len(rt.Spans) <= 3 {
			continue
		}
		n++
		for _, s := range rt.Spans {
			sums[s.Layer] += ms(s.Self)
		}
	}
	for k := range sums {
		sums[k] /= float64(n)
	}
	return sums, n
}
