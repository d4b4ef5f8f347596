package telemetry

import (
	"math/rand"
	"testing"
	"time"
)

// TestBucketRoundTrip: every bucket's midpoint maps back to the same
// bucket, and the midpoint is within the scheme's relative error of
// any value placed in that bucket.
func TestBucketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		v := uint64(rng.Int63n(int64(10 * time.Minute)))
		idx := bucketIndex(v)
		mid := uint64(bucketValue(idx))
		if got := bucketIndex(mid); got != idx {
			t.Fatalf("midpoint of bucket %d lands in bucket %d (v=%d)", idx, got, v)
		}
		if v >= subCount {
			rel := float64(mid) - float64(v)
			if rel < 0 {
				rel = -rel
			}
			if rel/float64(v) > 1.0/float64(subCount)+1e-9 {
				t.Fatalf("bucket error for %d: midpoint %d off by %.1f%%", v, mid, 100*rel/float64(v))
			}
		}
	}
}

// TestHistogramQuantiles: known uniform data comes back with the right
// count, exact sum and max, quantiles within the bucketing error, and
// an ascending export of its non-empty buckets.
func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.ObserveDuration(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != uint64(1000*time.Millisecond) {
		t.Fatalf("max = %s", time.Duration(h.Max()))
	}
	if mean := time.Duration(h.Sum() / h.Count()); mean != 500500*time.Microsecond {
		t.Fatalf("mean = %s, want 500.5ms", mean)
	}
	check := func(q float64, want time.Duration) {
		t.Helper()
		got := time.Duration(h.Quantile(q))
		lo := want - want/16 // one sub-bucket of slack
		hi := want + want/16
		if got < lo || got > hi {
			t.Fatalf("q%.2f = %s, want %s ± 6%%", q, got, want)
		}
	}
	check(0.50, 500*time.Millisecond)
	check(0.90, 900*time.Millisecond)
	check(0.99, 990*time.Millisecond)
	if time.Duration(h.Quantile(1.0)) < 990*time.Millisecond {
		t.Fatalf("q1.0 = %s", time.Duration(h.Quantile(1.0)))
	}
	buckets := h.Buckets()
	if len(buckets) == 0 {
		t.Fatal("no exported buckets")
	}
	var total uint64
	for i, b := range buckets {
		if b.Count == 0 || (i > 0 && b.Mid <= buckets[i-1].Mid) {
			t.Fatalf("bucket %d = %+v: want non-empty, ascending", i, b)
		}
		total += b.Count
	}
	if total != h.Count() {
		t.Fatalf("exported buckets hold %d observations, want %d", total, h.Count())
	}
}

// TestQuantileRank pins Quantile's rank arithmetic on counts where q·n is
// fractional: the rank must be ceil(q·n), the smallest observation with
// at least a q fraction at or below it. Values stay below 2^subBits so
// buckets are exact and the assertions are rank-for-rank, free of the
// log-linear ~3% midpoint error.
func TestQuantileRank(t *testing.T) {
	cases := []struct {
		name string
		n    int // observations 1..n, one each
		q    float64
		want uint64 // value at rank ceil(q·n)
	}{
		{"p90 of 15 is rank 14", 15, 0.90, 14},
		{"p50 of 5 is rank 3", 5, 0.50, 3},
		{"p50 of 4 is rank 2", 4, 0.50, 2},
		{"p99 of 10 is rank 10", 10, 0.99, 10},
		{"p99 of 7 is rank 7", 7, 0.99, 7},
		{"p25 of 9 is rank 3", 9, 0.25, 3},
		{"p100 of 3 is rank 3", 3, 1.00, 3},
		{"p10 of 3 is rank 1", 3, 0.10, 1},
		{"tiny q clamps to rank 1", 21, 0.001, 1},
	}
	for _, tc := range cases {
		h := NewHistogram()
		for v := 1; v <= tc.n; v++ {
			h.Observe(uint64(v))
		}
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) over 1..%d = %v, want %v",
				tc.name, tc.q, tc.n, got, tc.want)
		}
	}
}

// TestQuantileEmpty keeps the empty-histogram contract, for a fresh
// histogram and for a nil handle alike.
func TestQuantileEmpty(t *testing.T) {
	var nilHist *Histogram
	for name, h := range map[string]*Histogram{"fresh": NewHistogram(), "nil": nilHist} {
		if got := h.Quantile(0.5); got != 0 {
			t.Errorf("%s: empty Quantile = %v, want 0", name, got)
		}
		if h.Max() != 0 || h.Buckets() != nil {
			t.Errorf("%s: empty Max = %d, Buckets = %v; want 0, nil", name, h.Max(), h.Buckets())
		}
	}
}
