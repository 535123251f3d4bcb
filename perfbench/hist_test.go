package main

import (
	"math"
	"testing"
	"time"

	"github.com/bamboo-bft/bamboo/internal/metrics"
)

// bucketOf returns the index of the histogram bucket holding d.
func bucketOf(d time.Duration) int {
	for i := 0; ; i++ {
		if d < metrics.HistBucketUpper(i) {
			return i
		}
	}
}

func near(t *testing.T, name string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %v, want %v", name, got, want)
	}
}

func TestQuantileInterpolatesInsideBucket(t *testing.T) {
	// Ten samples in one bucket and thirty in the next.
	i := bucketOf(10 * time.Millisecond)
	lo, mid, hi := bucketLower(i), float64(metrics.HistBucketUpper(i)), float64(metrics.HistBucketUpper(i+1))
	h := metrics.HistData{Buckets: make([]uint64, i+2), Count: 40, Sum: 1, Max: int64(hi)}
	h.Buckets[i], h.Buckets[i+1] = 10, 30

	// Rank 5 of 40 lies halfway through the first bucket.
	near(t, "p12.5", quantile(h, 0.125), lo+(mid-lo)/2)
	// Rank 10 closes the first bucket.
	near(t, "p25", quantile(h, 0.25), mid)
	// Rank 20 is a third of the way through the second bucket.
	near(t, "p50", quantile(h, 0.5), mid+(hi-mid)/3)
	near(t, "p100", quantile(h, 1), hi)

	// The observed maximum caps the top bucket's interpolation.
	h.Max = int64(mid + (hi-mid)/2)
	near(t, "p100 clamped", quantile(h, 1), float64(h.Max))
}

func TestQuantileEdgeCases(t *testing.T) {
	if got := quantile(metrics.HistData{}, 0.5); got != 0 {
		t.Errorf("empty histogram p50 = %v, want 0", got)
	}
	zeros := metrics.HistData{Buckets: []uint64{7}, Count: 7}
	if got := quantile(zeros, 0.99); got != 0 {
		t.Errorf("zero-length samples p99 = %v, want 0", got)
	}
}

func TestFractionAtMost(t *testing.T) {
	i := bucketOf(10 * time.Millisecond)
	lo, hi := bucketLower(i), float64(metrics.HistBucketUpper(i))
	h := metrics.HistData{Buckets: make([]uint64, i+2), Count: 20, Sum: 1}
	h.Buckets[i-1], h.Buckets[i], h.Buckets[i+1] = 5, 10, 5

	near(t, "below all", fractionAtMost(h, time.Duration(bucketLower(i-1))), 0)
	near(t, "bucket edge", fractionAtMost(h, time.Duration(lo)), 5.0/20)
	// A quarter of the way through the middle bucket.
	near(t, "inside", fractionAtMost(h, time.Duration(lo+(hi-lo)/4)), 7.5/20)
	near(t, "above all", fractionAtMost(h, time.Hour), 1)
}

func TestQuantileMatchesLiveHistogram(t *testing.T) {
	// Against the repository's own histogram: samples spread evenly
	// over one bucket read back within the bucket, where the summary
	// reports the bucket's upper edge.
	var l metrics.Latency
	i := bucketOf(20 * time.Millisecond)
	lo, hi := bucketLower(i), float64(metrics.HistBucketUpper(i))
	for k := 0; k < 1000; k++ {
		l.Record(time.Duration(lo + (hi-lo)*(float64(k)+0.5)/1000))
	}
	got := quantile(l.Export(), 0.5)
	want := lo + (hi-lo)/2
	if math.Abs(got-want) > (hi-lo)/100 {
		t.Errorf("p50 = %v, want about %v", got, want)
	}
	if summary := float64(l.Snapshot().P50); summary <= got {
		t.Errorf("summary p50 %v should read the bucket's upper edge above %v", summary, got)
	}
}

func TestHistDelta(t *testing.T) {
	start := metrics.HistData{Buckets: []uint64{1, 2}, Count: 3, Sum: 30, Max: 9}
	end := metrics.HistData{Buckets: []uint64{1, 5, 4}, Count: 10, Sum: 100, Max: 12}
	d := histDelta(end, start)
	want := []uint64{0, 3, 4}
	for i := range want {
		if d.Buckets[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", d.Buckets, want)
		}
	}
	if d.Count != 7 || d.Sum != 70 || d.Max != 12 {
		t.Errorf("delta = %+v", d)
	}
}
