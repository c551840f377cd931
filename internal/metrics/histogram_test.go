package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketRoundTrip proves every value lands in a bucket whose
// bounds contain it and whose width stays within the advertised ~6%
// relative error.
func TestHistogramBucketRoundTrip(t *testing.T) {
	vals := []int64{0, 1, 15, 16, 17, 31, 32, 33, 100, 999, 1 << 20, 1<<20 + 7,
		int64(time.Millisecond), int64(time.Second), int64(time.Hour), math.MaxInt64}
	for _, v := range vals {
		i := bucketIndex(v)
		lo, hi := bucketBounds(i)
		if v < lo || v > hi {
			t.Errorf("value %d landed in bucket %d [%d,%d]", v, i, lo, hi)
		}
		if v >= 16 && float64(hi-lo) > float64(v)/8 {
			t.Errorf("bucket %d [%d,%d] too wide for %d", i, lo, hi, v)
		}
	}
	// Buckets tile the axis without gaps or overlaps.
	prev := int64(-1)
	for i := 0; i < histBuckets; i++ {
		lo, hi := bucketBounds(i)
		if lo != prev+1 {
			t.Fatalf("bucket %d starts at %d, want %d", i, lo, prev+1)
		}
		if hi < lo {
			t.Fatalf("bucket %d inverted [%d,%d]", i, lo, hi)
		}
		prev = hi
	}
	if prev != math.MaxInt64 {
		t.Fatalf("buckets end at %d, want MaxInt64", prev)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should answer zeros")
	}
	// 1..1000 ms uniformly: p50 ≈ 500ms, p99 ≈ 990ms within bucket error.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	check := func(q, wantMs float64) {
		got := float64(h.Quantile(q)) / float64(time.Millisecond)
		if math.Abs(got-wantMs) > wantMs*0.10 {
			t.Errorf("q%g = %.1fms, want ≈ %.1fms", q, got, wantMs)
		}
	}
	check(0.50, 500)
	check(0.90, 900)
	check(0.99, 990)
	if h.Max() != time.Second {
		t.Errorf("max = %v", h.Max())
	}
	if mean := h.Mean(); mean < 480*time.Millisecond || mean > 520*time.Millisecond {
		t.Errorf("mean = %v", mean)
	}
	if h.Quantile(1) > h.Max() {
		t.Errorf("q1 %v exceeds max %v", h.Quantile(1), h.Max())
	}
	s := h.Summary()
	if s.Count != 1000 || s.P999Ms < s.P50Ms || s.MaxMs != 1000 {
		t.Errorf("summary %+v inconsistent", s)
	}
	if v, ok := s.QuantileMs("p99"); !ok || v != s.P99Ms {
		t.Errorf("QuantileMs(p99) = %v, %v", v, ok)
	}
	if _, ok := s.QuantileMs("p42"); ok {
		t.Error("QuantileMs accepted unknown percentile")
	}
}

func TestHistogramCumulativeLE(t *testing.T) {
	h := NewHistogram()
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if got := h.CumulativeLE(time.Second); got != 100 {
		t.Errorf("CumulativeLE(1s) = %d, want 100", got)
	}
	got := h.CumulativeLE(50 * time.Millisecond)
	if got < 40 || got > 50 {
		t.Errorf("CumulativeLE(50ms) = %d, want ≈ 50 (undercount ≤ one bucket)", got)
	}
	if h.CumulativeLE(0) != 0 {
		t.Errorf("CumulativeLE(0) = %d", h.CumulativeLE(0))
	}
}

// TestHistogramConcurrent drives parallel recorders against a reader; the
// race detector is the real assertion.
func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record(time.Duration(g*1000+i) * time.Microsecond)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = h.Quantile(0.99)
			_ = h.Summary()
		}
	}()
	wg.Wait()
	<-done
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
}

func TestOnlineAdmitLatencyLazyInit(t *testing.T) {
	var o Online
	if o.AdmitLatency != nil {
		t.Fatalf("zero Online holds a histogram: %+v", o.AdmitLatency.Summary())
	}
	o.RecordAdmitLatency(3 * time.Millisecond)
	o.RecordAdmitLatency(5 * time.Millisecond)
	s := o.AdmitLatency.Summary()
	if s.Count != 2 || s.MaxMs < 4 {
		t.Fatalf("summary %+v after two records", s)
	}
	// A snapshot-restored Online loses the pointer; recording heals it.
	restored := o
	restored.AdmitLatency = nil
	restored.RecordAdmitLatency(time.Millisecond)
	if restored.AdmitLatency.Summary().Count != 1 {
		t.Fatal("restored Online did not re-create its histogram")
	}
}
