package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time from getrusage.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window brackets one measured interval: wall time, process CPU and
// heap allocation counts at its start, read again at its end.
type window struct {
	start   time.Time
	cpu0    time.Duration
	mallocs uint64
	bytes   uint64

	wall   time.Duration
	cpu    time.Duration
	allocs uint64
	allocB uint64
}

func openWindow() *window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &window{start: time.Now(), cpu0: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func (w *window) close() {
	w.wall = time.Since(w.start)
	w.cpu = cpuTime() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.allocs = ms.Mallocs - w.mallocs
	w.allocB = ms.TotalAlloc - w.bytes
}

// heapPeak samples the live heap every interval until stopped and keeps
// the largest reading (runtime/metrics: no stop-the-world).
type heapPeak struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startHeapPeak(every time.Duration) *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > h.peak {
			h.peak = v.Uint64()
		}
	}
	read()
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// stopMB ends sampling and returns the peak in MB.
func (h *heapPeak) stopMB() float64 {
	close(h.stop)
	h.done.Wait()
	return float64(h.peak) / 1e6
}

// medianOf runs f n times and returns the median of its durations in
// seconds, with every sample.
func medianOf(n int, f func() time.Duration) (float64, []float64) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		xs = append(xs, f().Seconds())
	}
	return median(xs), xs
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
