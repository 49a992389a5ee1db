package core

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestReconfigureSweepCadence checks a live SweepInterval change
// restarts the sweep chain at the new cadence without doubling it.
func TestReconfigureSweepCadence(t *testing.T) {
	clock := &fakeClock{}
	th := NewThinner(clock, Config{SweepInterval: time.Second, OrphanTimeout: 2 * time.Second})
	defer th.Stop()

	// An orphan channel due at t=2s under the original cadence.
	th.Table().Credit(1, 100, clock.Now())
	clock.Advance(1500 * time.Millisecond) // one sweep at 1s: nothing due

	if err := th.Reconfigure(Config{SweepInterval: 100 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if got := th.Config().SweepInterval; got != 100*time.Millisecond {
		t.Fatalf("SweepInterval = %v after reconfigure", got)
	}
	// The next sweeps run every 100ms; the orphan dies at the first
	// tick past 2s.
	clock.Advance(450 * time.Millisecond)
	if th.Stats().Evicted != 0 {
		t.Fatalf("evicted before the orphan deadline")
	}
	clock.Advance(200 * time.Millisecond)
	if th.Stats().Evicted != 1 {
		t.Fatalf("orphan not evicted at the new cadence: %+v", th.Stats())
	}
	// Exactly one chain is running: advancing 1s fires ~10 sweeps, and
	// each schedules exactly one successor.
	before := len(clock.timers)
	clock.Advance(time.Second)
	if after := len(clock.timers); after != before {
		t.Fatalf("sweep chain count changed: %d -> %d timers", before, after)
	}
}

// TestReconfigureRejectsShardChange checks shard resizes fail loudly
// and atomically (nothing else applies).
func TestReconfigureRejectsShardChange(t *testing.T) {
	clock := &fakeClock{}
	th := NewThinner(clock, Config{Shards: 4, SweepInterval: time.Second})
	defer th.Stop()

	err := th.Reconfigure(Config{Shards: 8, SweepInterval: time.Minute})
	if err == nil || !strings.Contains(err.Error(), "shard count is fixed") {
		t.Fatalf("shard change not rejected: %v", err)
	}
	if got := th.Config().SweepInterval; got != time.Second {
		t.Fatalf("rejected reconfigure leaked SweepInterval=%v", got)
	}
	// Restating the current count is a no-op, not an error.
	if err := th.Reconfigure(Config{Shards: th.Table().Shards()}); err != nil {
		t.Fatalf("no-op shard restatement rejected: %v", err)
	}
	if err := th.Reconfigure(Config{OrphanTimeout: -time.Second}); err == nil {
		t.Fatal("negative timeout accepted")
	}
}

// TestReconfigureInactivityTimeout checks a shrunk timeout evicts
// idle contenders without touching the wheel's granularity, late by
// at most the old timeout.
func TestReconfigureInactivityTimeout(t *testing.T) {
	clock := &fakeClock{}
	th := NewThinner(clock, Config{
		SweepInterval:     10 * time.Second,
		InactivityTimeout: time.Hour,
		OrphanTimeout:     time.Hour,
	})
	defer th.Stop()

	th.RequestArrived(1) // admitted directly: origin busy from here on
	th.Table().Credit(2, 10, clock.Now())
	th.RequestArrived(2) // eligible contender, then silent
	if err := th.Reconfigure(Config{InactivityTimeout: time.Second}); err != nil {
		t.Fatal(err)
	}
	// Old deadline was lastPay+1h; the re-check at each due fire uses
	// the sweeping timeout, so the eviction lands once the wheel
	// surfaces the channel — and the new-timeout deadline has passed.
	clock.Advance(2 * time.Hour)
	if th.Stats().Evicted != 1 {
		t.Fatalf("idle contender survived the shrunk timeout: %+v", th.Stats())
	}
}

// TestThinnerFeedsRegistry drives the thinner over virtual time — the
// simulator configuration — and checks its registry, the thinner's
// only tally, against the events driven: one direct admission, one
// auction, timeouts, one brownout and one shed arrival.
func TestThinnerFeedsRegistry(t *testing.T) {
	clock := &fakeClock{}
	th := NewThinner(clock, Config{OrphanTimeout: time.Second, SweepInterval: time.Second})
	defer th.Stop()

	th.RequestArrived(1) // direct admission
	th.Table().Credit(2, 500, clock.Now())
	th.RequestArrived(2)
	th.Table().Credit(3, 200, clock.Now())
	th.RequestArrived(3)
	th.ServerDone(1) // auction: 2 wins at 500
	th.Table().Credit(4, 50, clock.Now())
	clock.Advance(5 * time.Second) // orphan 4 times out
	th.SetOriginStalled(true)
	th.RequestArrived(5) // shed

	snap := th.Registry().Snapshot()
	if snap.Admitted != 2 || snap.AdmittedDirect != 1 || snap.Auctions != 1 ||
		snap.Evicted != 1 || snap.PaidBytes != 500 || snap.WastedBytes != 50 ||
		snap.Shed != 1 || snap.Brownouts != 1 || snap.Health != int64(HealthStalled) {
		t.Fatalf("registry missed an event: %+v", snap)
	}
	if snap.GoingPrice != 500 || snap.LastWinner != 2 {
		t.Fatalf("auction gauges wrong: price=%d winner=%d", snap.GoingPrice, snap.LastWinner)
	}
	want := Stats{Admitted: 2, AdmittedDirect: 1, Auctions: 1, Evicted: 1, Shed: 1, Brownouts: 1,
		WastedBytes: 50, PaidBytes: 500}
	if got := th.Stats(); got != want {
		t.Fatalf("Stats = %+v, want %+v", got, want)
	}
	if th.Health() != HealthStalled {
		t.Fatalf("Health diverged from the registry: %v", th.Health())
	}
	if lat := &th.Registry().Latency().AuctionLatency; lat.Count() != 0 {
		t.Fatalf("a thinner on a virtual clock timed %d auctions; their wall time means nothing there", lat.Count())
	}
}

// On the wall clock the thinner times every auction's settle, and the
// time is real: the fake clock in TestThinnerFeedsRegistry never moves
// inside a callback, so a positive sum is read off the wall.
func TestWallClockThinnerTimesAuctions(t *testing.T) {
	var mu sync.Mutex
	clock := &WallClock{Mu: &mu, Epoch: time.Now()}
	th := NewThinner(clock, Config{SweepInterval: time.Hour})
	mu.Lock()
	defer mu.Unlock()
	defer th.Stop()

	th.RequestArrived(1) // direct admission
	th.Table().Credit(2, 500, clock.Now())
	th.RequestArrived(2)
	th.ServerDone(1) // auction: 2 wins
	if lat := &th.Registry().Latency().AuctionLatency; lat.Count() != 1 || lat.Sum() <= 0 {
		t.Fatalf("the auction's settle latency was not observed: count=%d sum=%v", lat.Count(), lat.Sum())
	}
}
