package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Log-linear bucketing: values below 2^subBits are exact; above, each
// power of two splits into 2^subBits sub-buckets, bounding the relative
// quantile error at ~1/2^subBits (≈3%) across the full range. The same
// histogram backs server-side /metrics families and internal/loadgen's
// client-side reports, so a p99 scraped from a server and a p99 in a
// pnpload report describe latency the same way.
const (
	subBits   = 5
	subCount  = 1 << subBits
	numBucket = (64 - subBits + 1) * subCount
)

// bucketIndex maps a recorded value to its bucket.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	oct := bits.Len64(v) - 1 // position of the leading bit, ≥ subBits
	sub := (v >> (uint(oct) - subBits)) & (subCount - 1)
	return (oct-subBits+1)*subCount + int(sub)
}

// bucketValue returns the midpoint value a bucket represents.
func bucketValue(idx int) int64 {
	if idx < subCount {
		return int64(idx)
	}
	block := idx >> subBits
	sub := uint64(idx & (subCount - 1))
	oct := uint(block + subBits - 1)
	width := uint64(1) << (oct - subBits)
	return int64(uint64(1)<<oct + sub*width + width/2)
}

// Histogram records values into log-linear buckets with lock-free
// atomic increments — it sits on the serving hot path (every batched
// predict observes queue wait and forward time), so the write path is
// a few atomic adds. Snapshots taken during concurrent writes are
// internally consistent enough for monitoring (counts are monotone; a
// reader may see an observation in the bucket array before the total,
// never after). All methods are nil-safe.
type Histogram struct {
	counts []atomic.Uint64 // numBucket fine buckets
	n      atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Int64
}

// NewHistogram builds a standalone histogram, outside any registry
// (load generators keep one per operation).
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]atomic.Uint64, numBucket)}
}

// Observe records one value in the histogram's recorded unit
// (nanoseconds for duration families).
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if int64(v) <= cur || h.max.CompareAndSwap(cur, int64(v)) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds (negative clamps
// to zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observations in recorded units.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Max returns the largest observation in recorded units (exact).
func (h *Histogram) Max() uint64 {
	if h == nil {
		return 0
	}
	return uint64(h.max.Load())
}

// Quantile returns the q-quantile (0 < q ≤ 1) in recorded units, 0
// when empty. The answer is the midpoint of the bucket holding the
// target rank, so it carries the bucketing's ~3% relative error. The
// rank is ceil(q·n): the smallest value with at least a q fraction of
// the observations at or below it (truncating instead would read one
// rank low whenever q·n is fractional — p90 of 15 samples is rank 14,
// not 13).
func (h *Histogram) Quantile(q float64) uint64 {
	if h == nil {
		return 0
	}
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= target {
			return uint64(bucketValue(i))
		}
	}
	return uint64(h.max.Load())
}

// Bucket is one non-empty fine bucket: its midpoint value in recorded
// units and its observation count.
type Bucket struct {
	Mid   uint64
	Count uint64
}

// Buckets exports the non-empty fine buckets in ascending order, for
// report artifacts.
func (h *Histogram) Buckets() []Bucket {
	if h == nil {
		return nil
	}
	var out []Bucket
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			out = append(out, Bucket{Mid: uint64(bucketValue(i)), Count: c})
		}
	}
	return out
}

// cumulative fills counts with a point-in-time copy of the fine
// buckets and returns their total (used for exposition so the +Inf
// bucket and _count line always agree even mid-write).
func (h *Histogram) cumulative(counts []uint64) uint64 {
	var total uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		counts[i] = c
		total += c
	}
	return total
}
