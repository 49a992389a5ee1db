package scenario

import (
	"runtime"
	"testing"
	"time"

	"speakup/internal/appsim"
)

// TestSteadyStateAllocsPerEvent fences the simulated request lifecycle:
// once a run is warm, requests, connections, segments, timers and
// protocol messages are all recycled, so heap allocations grow far
// slower than events. The fig2 cell runs at two lengths; the
// deployment build costs the same in both, so the difference of the
// two runs' allocation counts over the difference of their event
// counts is the steady-state rate alone.
func TestSteadyStateAllocsPerEvent(t *testing.T) {
	measure := func(d time.Duration) (mallocs, events uint64) {
		cfg := Config{Capacity: 100, Mode: appsim.ModeAuction, Groups: mix(25, 25), Duration: d, Seed: 1}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := Run(cfg)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, res.Events
	}
	m2, e2 := measure(2 * time.Second)
	m10, e10 := measure(10 * time.Second)
	rate := float64(m10-m2) / float64(e10-e2)
	t.Logf("steady state: %d allocations over %d events = %.4f per event", m10-m2, e10-e2, rate)
	if rate > 0.005 {
		t.Errorf("steady state allocates %.4f objects per event, want <= 0.005", rate)
	}
}
