package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// harness records thinner callback activity.
type harness struct {
	clock    *fakeClock
	th       *Thinner
	admitted []RequestID
	prices   []int64
	evicted  []RequestID
	wasted   map[RequestID]int64
}

func newHarness(cfg Config) *harness {
	h := &harness{clock: &fakeClock{}, wasted: make(map[RequestID]int64)}
	h.th = NewThinner(h.clock, cfg)
	h.th.Admit = func(id RequestID, paid int64) {
		h.admitted = append(h.admitted, id)
		h.prices = append(h.prices, paid)
	}
	h.th.Evict = func(id RequestID, paid int64, wasted bool) {
		if wasted {
			h.evicted = append(h.evicted, id)
			h.wasted[id] = paid
		}
	}
	return h
}

func TestThinnerFreeServerAdmitsImmediately(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1)
	if len(h.admitted) != 1 || h.admitted[0] != 1 {
		t.Fatalf("admitted = %v, want [1]", h.admitted)
	}
	if h.th.Table().Eligible() != 0 {
		t.Fatal("free server must not leave a contender to encourage")
	}
	if !h.th.Busy() {
		t.Fatal("thinner must be busy after admit")
	}
	if h.prices[0] != 0 {
		t.Fatalf("direct admit price = %d, want 0", h.prices[0])
	}
}

func TestThinnerBusyServerEncourages(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1)
	h.th.RequestArrived(2)
	if len(h.admitted) != 1 {
		t.Fatalf("admitted = %v, want only [1]", h.admitted)
	}
	if h.th.Table().Eligible() != 1 || !h.th.Table().Contains(2) {
		t.Fatal("request 2 must be the one eligible contender")
	}
}

func TestThinnerAuctionPicksTopPayer(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1) // occupies server
	h.th.RequestArrived(2)
	h.th.RequestArrived(3)
	h.th.Table().Credit(2, 1000, h.clock.Now())
	h.th.Table().Credit(3, 5000, h.clock.Now())
	h.th.ServerDone(1)
	if len(h.admitted) != 2 || h.admitted[1] != 3 {
		t.Fatalf("admitted = %v, want [1 3]", h.admitted)
	}
	if h.prices[1] != 5000 {
		t.Fatalf("price = %d, want 5000", h.prices[1])
	}
	if p := h.th.Registry().Snapshot().GoingPrice; p != 5000 {
		t.Fatalf("going rate = %d", p)
	}
	// 2 remains contending with its balance intact.
	if h.th.Table().Balance(2) != 1000 {
		t.Fatal("loser's balance must persist")
	}
}

func TestThinnerServerIdlesWithNoContenders(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1)
	h.th.ServerDone(1)
	if h.th.Busy() {
		t.Fatal("server must be free with no contenders")
	}
	h.th.RequestArrived(2)
	if len(h.admitted) != 2 || h.admitted[1] != 2 {
		t.Fatalf("admitted = %v, want [1 2]", h.admitted)
	}
}

func TestThinnerPaymentBeforeRequest(t *testing.T) {
	// Bytes may arrive before the request message (saturated uplink).
	h := newHarness(Config{})
	h.th.RequestArrived(1) // busy
	h.th.Table().Credit(2, 9000, h.clock.Now())
	h.th.ServerDone(1)
	if h.th.Busy() {
		t.Fatal("payment-only entry must not win (not eligible)")
	}
	h.th.RequestArrived(2) // now the request arrives; server is free
	if len(h.admitted) != 2 || h.admitted[1] != 2 {
		t.Fatalf("admitted = %v", h.admitted)
	}
	// Its accumulated payment counts as the price (overpayment).
	if h.prices[1] != 9000 {
		t.Fatalf("price = %d, want 9000 (pre-paid)", h.prices[1])
	}
}

func TestThinnerOrphanEviction(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1) // busy
	h.th.Table().Credit(42, 12345, h.clock.Now())
	h.clock.Advance(11 * time.Second) // sweeps run every 1s; orphan timeout 10s
	if len(h.evicted) != 1 || h.evicted[0] != 42 {
		t.Fatalf("evicted = %v, want [42]", h.evicted)
	}
	if h.wasted[42] != 12345 {
		t.Fatalf("wasted bytes = %d", h.wasted[42])
	}
	if h.th.Stats().WastedBytes != 12345 {
		t.Fatalf("stats wasted = %d", h.th.Stats().WastedBytes)
	}
	// A late-arriving request for the evicted id starts from scratch.
	h.th.RequestArrived(42)
	if h.th.Table().Balance(42) != 0 {
		t.Fatal("evicted balance must not survive")
	}
}

func TestThinnerOrphanSurvivesIfRequestArrives(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1) // busy
	h.th.Table().Credit(2, 100, h.clock.Now())
	h.clock.Advance(5 * time.Second)
	h.th.RequestArrived(2) // becomes eligible before the 10s timeout
	h.clock.Advance(20 * time.Second)
	if len(h.evicted) != 0 {
		t.Fatalf("eligible entry evicted: %v", h.evicted)
	}
	if h.th.Table().Balance(2) != 100 {
		t.Fatal("balance lost")
	}
}

func TestThinnerInactiveContenderEviction(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1) // busy
	h.th.RequestArrived(2) // contender that never pays
	h.clock.Advance(31 * time.Second)
	if len(h.evicted) != 1 || h.evicted[0] != 2 {
		t.Fatalf("evicted = %v, want [2]", h.evicted)
	}
}

func TestThinnerActiveContenderNotEvicted(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1) // busy
	h.th.RequestArrived(2)
	// Keep paying a trickle: must never be evicted.
	for i := 0; i < 40; i++ {
		h.clock.Advance(time.Second)
		h.th.Table().Credit(2, 10, h.clock.Now())
	}
	if len(h.evicted) != 0 {
		t.Fatalf("paying contender evicted: %v", h.evicted)
	}
}

func TestThinnerWinnerChannelTerminated(t *testing.T) {
	h := newHarness(Config{})
	var stopped []RequestID
	h.th.Evict = func(id RequestID, paid int64, wasted bool) {
		if !wasted {
			stopped = append(stopped, id)
		}
	}
	h.th.RequestArrived(1)
	h.th.RequestArrived(2)
	h.th.Table().Credit(2, 100, h.clock.Now())
	h.th.ServerDone(1)
	// Every admission ends the request's payment: 1's at its direct
	// admission, winner 2's at the auction.
	if len(stopped) != 2 || stopped[0] != 1 || stopped[1] != 2 {
		t.Fatalf("winner channel not terminated: %v, want [1 2]", stopped)
	}
}

func TestThinnerStatsAccounting(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1)
	h.th.RequestArrived(2)
	h.th.Table().Credit(2, 500, h.clock.Now())
	h.th.ServerDone(1)
	s := h.th.Stats()
	if s.Admitted != 2 || s.AdmittedDirect != 1 || s.Auctions != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.PaidBytes != 500 {
		t.Fatalf("paid bytes = %d", s.PaidBytes)
	}
}

func TestThinnerStopCancelsSweeper(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1)
	h.th.Table().Credit(9, 100, h.clock.Now())
	h.th.Stop()
	h.clock.Advance(time.Minute)
	if len(h.evicted) != 0 {
		t.Fatal("sweeper ran after Stop")
	}
}

func TestThinnerGoingRateTracksLastAuction(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1)
	h.th.RequestArrived(2)
	h.th.Table().Credit(2, 100, h.clock.Now())
	h.th.ServerDone(1) // 2 wins at 100
	h.th.RequestArrived(3)
	h.th.Table().Credit(3, 700, h.clock.Now())
	h.th.ServerDone(2) // 3 wins at 700
	if p := h.th.Registry().Snapshot().GoingPrice; p != 700 {
		t.Fatalf("going rate = %d, want 700", p)
	}
}

func TestPassThroughDropsWhenBusy(t *testing.T) {
	p := NewPassThrough()
	var admitted, dropped []RequestID
	p.Admit = func(id RequestID, _ int64) { admitted = append(admitted, id) }
	arrive := func(id RequestID) {
		if p.RequestArrived(id) == ArriveShed {
			dropped = append(dropped, id)
		}
	}
	arrive(1)
	arrive(2)
	arrive(3)
	p.ServerDone(1)
	arrive(4)
	if len(admitted) != 2 || admitted[0] != 1 || admitted[1] != 4 {
		t.Fatalf("admitted = %v, want [1 4]", admitted)
	}
	if len(dropped) != 2 {
		t.Fatalf("dropped = %v, want [2 3]", dropped)
	}
}

func TestRandomDropAdaptsProbability(t *testing.T) {
	clock := &fakeClock{}
	rd := NewRandomDrop(clock, RandomDropConfig{Capacity: 10, Seed: 1})
	rd.Admit = func(id RequestID, _ int64) {}
	// 100 requests in 1s against capacity 10 -> p should become 0.1.
	for i := 0; i < 100; i++ {
		rd.RequestArrived(RequestID(i))
		if rd.busy {
			rd.ServerDone(RequestID(i))
		}
	}
	clock.Advance(time.Second)
	if got := rd.Prob(); got != 0.1 {
		t.Fatalf("prob = %v, want 0.1", got)
	}
	// Light load: p recovers to 1.
	rd.RequestArrived(1000)
	clock.Advance(time.Second)
	if got := rd.Prob(); got != 1 {
		t.Fatalf("prob after light interval = %v, want 1", got)
	}
}

func TestRandomDropAdmissionRateTracksCapacity(t *testing.T) {
	clock := &fakeClock{}
	rd := NewRandomDrop(clock, RandomDropConfig{Capacity: 10, Seed: 7})
	served := 0
	rd.Admit = func(id RequestID, _ int64) { served++ }
	// Steady overload: 200 req/s for 20 simulated seconds.
	id := RequestID(0)
	for sec := 0; sec < 20; sec++ {
		for i := 0; i < 200; i++ {
			rd.RequestArrived(id)
			id++
			if rd.busy {
				rd.ServerDone(id - 1) // server keeps pace in this test
			}
		}
		clock.Advance(time.Second)
	}
	rate := float64(served) / 20
	// First interval runs at p=1; afterwards ~capacity. Allow slack.
	if rate < 8 || rate > 25 {
		t.Fatalf("admission rate = %.1f/s, want ~10/s", rate)
	}
}

func TestRandomDropQueueBound(t *testing.T) {
	clock := &fakeClock{}
	rd := NewRandomDrop(clock, RandomDropConfig{Capacity: 1000, MaxQueue: 2, Seed: 1})
	var admitted, retried int
	rd.Admit = func(id RequestID, _ int64) { admitted++ }
	// p=1: everything admitted until the queue fills (1 busy + 2 queued).
	for i := 0; i < 10; i++ {
		if rd.RequestArrived(RequestID(i)) == ArriveRetry {
			retried++
		}
	}
	if admitted != 1 || retried != 7 {
		t.Fatalf("admitted=%d retried=%d, want 1/7", admitted, retried)
	}
	rd.ServerDone(0)
	rd.ServerDone(1)
	rd.ServerDone(2)
	if admitted != 3 {
		t.Fatalf("queued requests not drained: admitted=%d", admitted)
	}
}

// TestRandomDropServesARetryOnce checks that a pipelined retry of a
// request already admitted is served once, whether it waits in the
// queue or holds the server: the retry is counted and answered ok, but
// flips no coin and is not queued again.
func TestRandomDropServesARetryOnce(t *testing.T) {
	clock := &fakeClock{}
	rd := NewRandomDrop(clock, RandomDropConfig{Capacity: 1000, Seed: 1})
	var admitted []RequestID
	rd.Admit = func(id RequestID, _ int64) { admitted = append(admitted, id) }
	for _, id := range []RequestID{1, 2, 2, 1} { // 1 in service, 2 queued, then each retried
		if v := rd.RequestArrived(id); v != ArriveOK {
			t.Fatalf("arrival of %d: verdict %v, want ok", id, v)
		}
	}
	if len(rd.queue) != 1 || rd.arrived != 4 {
		t.Fatalf("queue %v after %d arrivals, want [2] after 4", rd.queue, rd.arrived)
	}
	coin := rand.New(rand.NewSource(1)) // the two first arrivals' coins
	coin.Float64()
	coin.Float64()
	if got, want := rd.rng.Float64(), coin.Float64(); got != want {
		t.Fatal("a retry of an admitted request flipped a coin")
	}
	rd.ServerDone(1)
	rd.ServerDone(2)
	if !slices.Equal(admitted, []RequestID{1, 2}) || rd.busy {
		t.Fatalf("admitted %v (busy %v), want [1 2] once each", admitted, rd.busy)
	}
}
