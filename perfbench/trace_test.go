package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	mk := func(proc, name string, from, to int) span {
		s, ok := newSpan(proc, name, at(from), at(to).Sub(at(from)))
		if !ok {
			t.Fatalf("%s/%s not on the request path", proc, name)
		}
		return s
	}
	// A hedged predict: the gate's second attempt overlaps the first on
	// another replica; each replica queues and forwards.
	spans := []span{
		mk("bench", "gen.op", 0, 100),
		mk("bench", "gen.wait", 0, 10),
		mk("bench", "client.send", 10, 100),
		mk("gate", "http POST /v1/predict", 12, 98),
		mk("gate", "gate.attempt", 14, 90),
		mk("gate", "gate.attempt", 50, 95),
		mk("r0", "http POST /v1/predict", 16, 88),
		mk("r0", "batch.queue", 20, 40),
		mk("r0", "batch.forward", 40, 80),
		mk("r1", "http POST /v1/predict", 52, 93),
		mk("r1", "batch.queue", 55, 60),
		mk("r1", "batch.forward", 60, 90),
	}
	selfTimes(spans)
	want := map[string][]int{ // layer → self ms, in start order
		"gen":           {0}, // wait + send cover it all
		"gen.wait":      {10},
		"client":        {4},     // 90 - gate's 86
		"gate":          {5},     // 86 - attempts' union [14,95] = 81
		"gate.attempt":  {4, 4},  // 76-72, 45-41
		"replica":       {12, 6}, // 72-60, 41-35
		"batch.queue":   {20, 5},
		"batch.forward": {40, 30},
	}
	got := map[string][]int{}
	for _, s := range spans {
		got[s.Layer] = append(got[s.Layer], int(s.Self/time.Millisecond))
	}
	for layer, w := range want {
		g := got[layer]
		if len(g) != len(w) {
			t.Fatalf("%s: %v, want %v", layer, g, w)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s[%d] self %d ms, want %d", layer, i, g[i], w[i])
			}
		}
	}
	if _, _, ok := layerOf("r0", "canary.score"); ok {
		t.Error("canary scoring runs after the answer and must not count on the request path")
	}
}

func TestSelfByLayerAveragesTracedPredicts(t *testing.T) {
	t0 := time.Unix(0, 0)
	rt := func(self time.Duration, n int) *requestTrace {
		r := &requestTrace{Kind: "predict"}
		for i := 0; i < n; i++ {
			r.Spans = append(r.Spans, span{Layer: "gate", Start: t0, Self: self})
		}
		return r
	}
	got, n := selfByLayer([]*requestTrace{rt(2*time.Millisecond, 4), rt(4*time.Millisecond, 4), rt(time.Hour, 3)}, "predict")
	if got["gate"] != 12 || n != 2 { // (4×2 + 4×4) / 2 traces; the 3-span trace has no server spans
		t.Fatalf("gate self %v ms over %d traces, want 12 over 2", got["gate"], n)
	}
}
