package main

import (
	"time"

	"github.com/bamboo-bft/bamboo/internal/metrics"
)

// The repository's latency histograms use geometric buckets whose
// summaries report a bucket's upper bound, 25% wide at every scale.
// The benchmark reads the raw buckets instead and interpolates inside
// the bucket holding the target rank, so a quantile moves smoothly
// with the distribution rather than in 25% steps.

// bucketLower is the lower edge of bucket i; bucket 0 also holds
// every sample below one microsecond.
func bucketLower(i int) float64 {
	if i == 0 {
		return 0
	}
	return float64(metrics.HistBucketUpper(i - 1))
}

// quantile returns the q-quantile (0 < q <= 1) of h in nanoseconds,
// interpolated linearly inside its bucket and clamped to the observed
// maximum. A histogram of no samples, or of zero-length samples only,
// reads 0.
func quantile(h metrics.HistData, q float64) float64 {
	if h.Count == 0 || h.Sum == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := bucketLower(i), float64(metrics.HistBucketUpper(i))
			v := lo + (target-cum)/float64(c)*(hi-lo)
			if h.Max > 0 && v > float64(h.Max) {
				v = float64(h.Max)
			}
			return v
		}
		cum += float64(c)
	}
	return float64(h.Max)
}

// fractionAtMost returns the share of h's samples at or below limit,
// interpolated inside the bucket that straddles it.
func fractionAtMost(h metrics.HistData, limit time.Duration) float64 {
	if h.Count == 0 {
		return 0
	}
	var below float64
	for i, c := range h.Buckets {
		lo, hi := bucketLower(i), float64(metrics.HistBucketUpper(i))
		switch {
		case hi <= float64(limit):
			below += float64(c)
		case lo < float64(limit):
			below += float64(c) * (float64(limit) - lo) / (hi - lo)
		}
	}
	return below / float64(h.Count)
}

// histDelta returns the samples recorded in end but not in start, for
// two exports of one live histogram taken at window boundaries. Sum
// and Max cannot be windowed; Max keeps end's value, which only loosens
// the clamp in quantile.
func histDelta(end, start metrics.HistData) metrics.HistData {
	d := metrics.HistData{Count: end.Count - start.Count, Sum: end.Sum - start.Sum, Max: end.Max}
	d.Buckets = make([]uint64, len(end.Buckets))
	copy(d.Buckets, end.Buckets)
	for i, c := range start.Buckets {
		if i < len(d.Buckets) {
			d.Buckets[i] -= c
		}
	}
	return d
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }
