package core

import (
	"testing"
)

// TestBrownoutLadder walks the full health ladder: OK -> Stalled
// (arrivals shed, auctions deferred, evictions held) -> Recovering
// (deferred auction settles, grace hold) -> OK at the first sweep past
// the hold.
func TestBrownoutLadder(t *testing.T) {
	h := newHarness(Config{})
	cfg := h.th.Config()

	h.th.RequestArrived(1) // occupies the server
	h.th.RequestArrived(2) // contender
	h.th.Table().Credit(2, 4000, h.clock.Now())

	h.th.SetOriginStalled(true)
	if h.th.Health() != HealthStalled {
		t.Fatalf("health = %v, want stalled", h.th.Health())
	}
	if h.th.Stats().Brownouts != 1 {
		t.Fatalf("brownouts = %d, want 1", h.th.Stats().Brownouts)
	}
	h.th.SetOriginStalled(true) // idempotent: still one brownout
	if h.th.Stats().Brownouts != 1 {
		t.Fatalf("re-stall double-counted: brownouts = %d", h.th.Stats().Brownouts)
	}

	// Arrivals during the brownout are shed, not stranded.
	if v := h.th.RequestArrived(3); v != ArriveShed || h.th.Stats().Shed != 1 {
		t.Fatalf("verdict = %v (stats %d), want shed", v, h.th.Stats().Shed)
	}

	// The origin failing its request mid-stall must not trigger an
	// auction: the floor is closed.
	h.th.ServerDone(1)
	if len(h.admitted) != 1 {
		t.Fatalf("auction ran during brownout: admitted = %v", h.admitted)
	}
	if h.th.Busy() {
		t.Fatal("thinner busy with a closed floor")
	}

	// Evictions are held: advance far past every timeout while stalled.
	h.clock.Advance(cfg.InactivityTimeout + cfg.OrphanTimeout + 5*cfg.SweepInterval)
	if len(h.evicted) != 0 {
		t.Fatalf("sweep evicted %v during brownout", h.evicted)
	}

	// Recovery settles the deferred auction immediately.
	h.th.SetOriginStalled(false)
	if h.th.Health() != HealthRecovering {
		t.Fatalf("health = %v, want recovering", h.th.Health())
	}
	if len(h.admitted) != 2 || h.admitted[1] != 2 {
		t.Fatalf("deferred auction: admitted = %v, want [1 2]", h.admitted)
	}
	if h.prices[1] != 4000 {
		t.Fatalf("held balance lost: price = %d, want 4000", h.prices[1])
	}

	// Inside the grace hold the sweep still refuses to evict...
	h.clock.Advance(cfg.SweepInterval)
	if len(h.evicted) != 0 {
		t.Fatalf("sweep evicted %v inside the recovery grace", h.evicted)
	}
	// ...and once the hold passes, the ladder returns to OK.
	h.clock.Advance(cfg.OrphanTimeout + 2*cfg.SweepInterval)
	if h.th.Health() != HealthOK {
		t.Fatalf("health = %v after grace, want ok", h.th.Health())
	}
}

// TestBrownoutRecoveryNoAuctionWhileBusy checks that recovering while
// the origin is mid-request does not double-admit: the deferred
// settle waits for ServerDone.
func TestBrownoutRecoveryNoAuctionWhileBusy(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1) // busy
	h.th.RequestArrived(2)
	h.th.Table().Credit(2, 100, h.clock.Now())
	h.th.SetOriginStalled(true)
	h.th.SetOriginStalled(false) // origin still serving request 1
	if len(h.admitted) != 1 {
		t.Fatalf("recovery auctioned while busy: admitted = %v", h.admitted)
	}
	h.th.ServerDone(1)
	if len(h.admitted) != 2 || h.admitted[1] != 2 {
		t.Fatalf("admitted = %v, want [1 2]", h.admitted)
	}
}

// TestSetOriginStalledFalseFromOKIsNoop guards the live watchdog
// pattern: recovery is called unconditionally after every origin
// round-trip, so it must be a no-op unless a stall was armed.
func TestSetOriginStalledFalseFromOKIsNoop(t *testing.T) {
	h := newHarness(Config{})
	h.th.SetOriginStalled(false)
	if h.th.Health() != HealthOK {
		t.Fatalf("health = %v, want ok", h.th.Health())
	}
	if h.th.Stats().Brownouts != 0 {
		t.Fatalf("brownouts = %d, want 0", h.th.Stats().Brownouts)
	}
}

// TestHealthStateString pins the /healthz and /stats vocabulary.
func TestHealthStateString(t *testing.T) {
	want := map[HealthState]string{
		HealthOK: "ok", HealthStalled: "stalled", HealthRecovering: "recovering",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("HealthState(%d).String() = %q, want %q", s, s.String(), str)
		}
	}
}

// TestLastSweepAge checks the sweep-liveness signal advances with the
// clock and resets on each tick.
func TestLastSweepAge(t *testing.T) {
	h := newHarness(Config{})
	cfg := h.th.Config()
	if h.th.LastSweepAge() != 0 {
		t.Fatalf("initial sweep age = %v, want 0", h.th.LastSweepAge())
	}
	h.clock.Advance(cfg.SweepInterval / 2)
	if got := h.th.LastSweepAge(); got != cfg.SweepInterval/2 {
		t.Fatalf("sweep age = %v, want %v", got, cfg.SweepInterval/2)
	}
	h.clock.Advance(cfg.SweepInterval) // tick fires, resetting the age
	if got := h.th.LastSweepAge(); got >= cfg.SweepInterval {
		t.Fatalf("sweep age = %v after a tick, want < %v", got, cfg.SweepInterval)
	}
}
