package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantilesAndMax(t *testing.T) {
	var h Hist
	if h.Max() != 0 || h.Quantile(0.999) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	// 500 fast samples and one disastrous outlier (rank 501 >
	// ceil(0.999*501) = 501): p50 stays in the fast bucket, p99.9 and
	// Max surface the outlier.
	for i := 0; i < 500; i++ {
		h.Observe(40 * time.Microsecond)
	}
	outlier := 3*time.Second + 7*time.Millisecond
	h.Observe(outlier)
	if got := h.Quantile(0.50); got != HistBase {
		t.Fatalf("p50 = %v, want %v", got, HistBase)
	}
	if got := h.Quantile(0.999); got < outlier {
		t.Fatalf("p99.9 = %v, must cover the outlier %v", got, outlier)
	}
	if got := h.Max(); got != outlier {
		t.Fatalf("max = %v, want the exact outlier %v", got, outlier)
	}
	// Max is exact, not bucketed: a slightly worse sample must move it.
	h.Observe(outlier + time.Millisecond)
	if got := h.Max(); got != outlier+time.Millisecond {
		t.Fatalf("max = %v, want %v", got, outlier+time.Millisecond)
	}
}

func TestHistogramConcurrentMax(t *testing.T) {
	var h Hist
	var wg sync.WaitGroup
	const workers = 16
	for w := 1; w <= workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 1; i <= 1000; i++ {
				h.Observe(time.Duration(w*i) * time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	want := time.Duration(workers*1000) * time.Microsecond
	if got := h.Max(); got != want {
		t.Fatalf("concurrent max = %v, want %v", got, want)
	}
	if h.Count() != workers*1000 {
		t.Fatalf("count = %d", h.Count())
	}
}
