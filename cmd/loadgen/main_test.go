package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"speakup/internal/adversary"
	"speakup/internal/clients"
	"speakup/internal/loadgen"
)

// twoArrivals issues two requests 1 ms apart, one at a time.
type twoArrivals struct{ n int }

func (*twoArrivals) Name() string { return "two" }

func (a *twoArrivals) Gap(time.Duration, *rand.Rand) time.Duration {
	if a.n++; a.n > 2 {
		return time.Hour
	}
	return time.Millisecond
}

func (*twoArrivals) Window(time.Duration) int { return 1 }

func (*twoArrivals) PostSize(_ time.Duration, _ int64, def int) int { return def }

func (*twoArrivals) Observe(adversary.Outcome) {}

// TestSuccessRateCountsOnlySettled: a front that serves the first
// request and holds the second leaves one request in flight when the
// run ends. It is neither served nor failed, so the class's success
// rate is 1, not served/issued.
func TestSuccessRateCountsOnlySettled(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) > 1 {
			<-r.Context().Done()
		}
	}))
	defer srv.Close()
	c := loadgen.NewClient(loadgen.Config{
		BaseURL:  srv.URL,
		Strategy: &twoArrivals{},
		Workload: clients.Config{Seed: 1},
	}, new(atomic.Uint64))
	c.Run()
	for limit := time.Now().Add(10 * time.Second); hits.Load() < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(limit) {
			t.Fatalf("second request never reached the front; workload %+v", c.Workload())
		}
	}
	c.Stop()
	got := classSummary([]*loadgen.Client{c}, time.Second)
	if got.Issued != 2 || got.Served != 1 || got.Failed != 0 || got.SuccessRate != 1 {
		t.Fatalf("issued %d served %d failed %d success_rate %v, want 2 1 0 1",
			got.Issued, got.Served, got.Failed, got.SuccessRate)
	}
}
