package main

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"
)

func fakeRegions(n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("app%d.kernel#%d", i/4, i%4)
	}
	return ids
}

func TestScheduleDeterministicPerSeed(t *testing.T) {
	regions := fakeRegions(68)
	for _, w := range workloads {
		for pi, p := range w.phases {
			a := genOps(w, p, pi, 7, 3*time.Second, regions)
			b := genOps(w, p, pi, 7, 3*time.Second, regions)
			if len(a) == 0 {
				t.Fatalf("%s/%s: empty schedule", w.name, p.name())
			}
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: same seed gave different schedules", w.name, p.name())
			}
			c := genOps(w, p, pi, 8, 3*time.Second, regions)
			if reflect.DeepEqual(a, c) {
				t.Errorf("%s/%s: seeds 7 and 8 gave the same schedule", w.name, p.name())
			}
			for i := 1; i < len(a); i++ {
				if a[i].due < a[i-1].due {
					t.Fatalf("%s/%s: op %d due before op %d", w.name, p.name(), i, i-1)
				}
			}
		}
	}
}

func TestPredictsCycleEveryGraph(t *testing.T) {
	regions := fakeRegions(68)
	w, _ := findWorkload("predict-lone")
	ops := genOps(w, w.phases[0], 0, 3, 10*time.Second, regions)
	seen := map[int]bool{}
	for _, o := range ops[:68] {
		seen[o.graph] = true
	}
	if len(seen) != 68 {
		t.Fatalf("first 68 predicts covered %d graphs, want all 68", len(seen))
	}
}

// A stall on one request must show in the latency of every request due
// while it lasted, because latency is timed from the due time.
func TestDueTimeLatencyCountsStall(t *testing.T) {
	const gap, stall = 5 * time.Millisecond, 60 * time.Millisecond
	ops := make([]op, 10)
	for i := range ops {
		ops[i].due = time.Duration(i) * gap
	}
	samples := runOpenLoop(ops, 1, func(_ int, s *sample) {
		if s.op == &ops[2] {
			time.Sleep(stall)
		}
	})
	if len(samples) != len(ops) {
		t.Fatalf("sent %d of %d", len(samples), len(ops))
	}
	// Op 3 was due 5ms after op 2 started its 60ms stall.
	s := samples[3]
	if s.end.Sub(s.start) > 20*time.Millisecond {
		t.Fatalf("op 3 service time %v; the stub should answer at once", s.end.Sub(s.start))
	}
	if got, want := s.latency(), stall-gap-5*time.Millisecond; got < want {
		t.Errorf("op 3 latency %v, want at least %v: the stall was not charged", got, want)
	}
	if s.connWait < stall-gap-5*time.Millisecond {
		t.Errorf("op 3 waited %v for a connection, want about %v", s.connWait, stall-gap)
	}
	if samples[0].latency() > 20*time.Millisecond {
		t.Errorf("op 0 latency %v before any stall", samples[0].latency())
	}
}

func TestTwoSendersShareTheSchedule(t *testing.T) {
	ops := make([]op, 20)
	for i := range ops {
		ops[i].due = time.Duration(i) * time.Millisecond
	}
	used := [2]int{}
	samples := runOpenLoop(ops, 2, func(sender int, s *sample) {
		used[sender]++ // each sender index is owned by one goroutine
		time.Sleep(3 * time.Millisecond)
	})
	if len(samples) != 20 || used[0] == 0 || used[1] == 0 {
		t.Fatalf("sent %d, per sender %v", len(samples), used)
	}
}

func TestClosedLoopKeepsConnsBusy(t *testing.T) {
	ops := make([]op, 3)
	const dur, service = 60 * time.Millisecond, 3 * time.Millisecond
	var used [2]int
	start := time.Now()
	samples := runClosedLoop(ops, 2, dur, func(sender int, s *sample) {
		used[sender]++ // each sender index is owned by one goroutine
		time.Sleep(service)
	})
	// Two connections back to back for 60ms at 3ms a request: about 40.
	if n := len(samples); n < 20 || n > 42 {
		t.Fatalf("%d answers, want about 40", n)
	}
	if used[0] == 0 || used[1] == 0 {
		t.Fatalf("per sender %v: a connection sat idle", used)
	}
	seen := map[*op]bool{}
	for i, s := range samples {
		seen[s.op] = true
		if s.start.Sub(start) >= dur {
			t.Fatalf("sample %d sent %v after the start, past the %v phase", i, s.start.Sub(start), dur)
		}
		if s.due != s.start || (i > 0 && s.start.Before(samples[i-1].start)) {
			t.Fatalf("sample %d: due %v, start %v; want due at send, in send order", i, s.due, s.start)
		}
	}
	if len(seen) != len(ops) {
		t.Fatalf("cycled through %d of %d ops", len(seen), len(ops))
	}
	if u := utilisation(samples, 2, start); u < 0.8 || u > 1 {
		t.Errorf("utilisation %.2f, want near 1 for back-to-back senders", u)
	}
}

func TestCompletionRateAndUtilisation(t *testing.T) {
	base := time.Now()
	ms := time.Millisecond
	// One connection back to back: eight answers 5ms apart, except the
	// fifth, which takes 10ms. They end at 5, 10, 15, 20, 30, 35, 40 and
	// 45ms.
	var s []sample
	t0 := base
	for i := 0; i < 8; i++ {
		start := t0
		end := start.Add(5 * ms)
		if i == 4 {
			end = start.Add(10 * ms)
		}
		s = append(s, sample{due: start, start: start, end: end})
		t0 = end
	}
	// Four windows of 11.25ms hold 5,10 | 15,20 | 30 | 35,40,45.
	rates := []float64{2, 2, 1, 3}
	width := 45.0 / 4 / 1000
	if r, want := completionRate(s, 4), median(rates)/width; math.Abs(r-want) > 1e-6 {
		t.Fatalf("completionRate = %v, want the median window rate %v", r, want)
	}
	if r, want := completionRate(s, 1), 8/0.045; math.Abs(r-want) > 1e-6 {
		t.Fatalf("one window: completionRate = %v, want %v", r, want)
	}
	// Busy 45 of 45ms on one connection, half of it over two.
	if u := utilisation(s, 1, base); math.Abs(u-1) > 1e-9 {
		t.Fatalf("utilisation = %v, want 1", u)
	}
	if u := utilisation(s, 2, base); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilisation over 2 conns = %v, want 0.5", u)
	}
}
