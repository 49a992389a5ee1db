package core

import (
	"testing"
	"time"
)

// These tests pin how Reconfigure interleaves with the brownout
// ladder — the exact race a fleet rollout creates when a config push
// lands while (or just after) an origin stalls. The contract:
//
//   - A stalled thinner holds every eviction, even when a reconfigure
//     shrinks the timeouts far below the channels' ages.
//   - Reconfigure's sweep-chain restart never doubles the chain,
//     stalled or not (the sweepGen guard).
//   - The recovery grace window (holdUntil) is fixed when recovery
//     begins; a later reconfigure does not shorten it retroactively.
//   - Once the ladder returns to OK, the new timeouts govern.

func liveTimers(c *fakeClock) int {
	n := 0
	for _, tm := range c.timers {
		if !tm.dead {
			n++
		}
	}
	return n
}

func TestReconfigureDuringStallHoldsEvictions(t *testing.T) {
	h := newHarness(Config{})                   // defaults: orphan 10s, inactivity 30s, sweep 1s
	h.th.RequestArrived(1)                      // busy
	h.th.Table().Credit(42, 500, h.clock.Now()) // orphan candidate: bytes, no request
	h.th.RequestArrived(2)                      // inactivity candidate: request, no bytes
	h.th.SetOriginStalled(true)

	// Mid-brownout, a rollout shrinks every timeout far below the
	// channels' eventual ages.
	if err := h.th.Reconfigure(Config{
		OrphanTimeout:     time.Second,
		InactivityTimeout: 2 * time.Second,
		SweepInterval:     500 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(time.Minute)

	if len(h.evicted) != 0 {
		t.Fatalf("evicted %v during a stall: the hold must outrank shrunken timeouts", h.evicted)
	}
	if h.th.Health() != HealthStalled {
		t.Fatalf("health = %v, want stalled", h.th.Health())
	}
	if h.th.Table().Balance(42) != 500 {
		t.Fatal("held orphan lost its balance")
	}
	// Arrivals keep being shed under the new config.
	h.th.RequestArrived(3)
	if got := h.th.Stats().Shed; got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	if len(h.admitted) != 1 || h.th.Table().Eligible() != 1 || h.th.Table().Contains(3) {
		t.Fatalf("mid-stall arrival reached the auction: admitted=%v contenders=%d",
			h.admitted, h.th.Table().Eligible())
	}
}

func TestReconfigureDuringStallKeepsSingleSweepChain(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1)
	h.th.SetOriginStalled(true)

	// Repeated reconfigures must each replace — never duplicate — the
	// pending sweep timer, including while the sweep body is a held
	// no-op.
	for i := 0; i < 3; i++ {
		if err := h.th.Reconfigure(Config{SweepInterval: 250 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	h.clock.Advance(0) // compact cancelled timers
	if n := liveTimers(h.clock); n != 1 {
		t.Fatalf("%d live sweep timers after reconfigures, want 1", n)
	}
	h.clock.Advance(10 * time.Second)
	if n := liveTimers(h.clock); n != 1 {
		t.Fatalf("%d live sweep timers after sweeping while stalled, want 1", n)
	}
}

func TestReconfigureDuringRecoveryRespectsHold(t *testing.T) {
	h := newHarness(Config{})                   // orphan timeout 10s
	h.th.RequestArrived(1)                      // busy
	h.th.Table().Credit(42, 500, h.clock.Now()) // orphan candidate
	h.th.SetOriginStalled(true)
	h.clock.Advance(3 * time.Second)

	// Recovery fixes the grace window at now + the OLD orphan timeout.
	h.th.SetOriginStalled(false)
	if h.th.Health() != HealthRecovering {
		t.Fatalf("health = %v, want recovering", h.th.Health())
	}
	// A rollout now shrinks the orphan timeout. The already-granted
	// grace must not shrink with it: contenders were promised the time
	// to re-establish their payment streams.
	if err := h.th.Reconfigure(Config{OrphanTimeout: time.Second}); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(5 * time.Second) // inside the original 10s hold
	if len(h.evicted) != 0 {
		t.Fatalf("evicted %v inside the recovery grace window", h.evicted)
	}
	if h.th.Health() != HealthRecovering {
		t.Fatalf("health = %v, want still recovering", h.th.Health())
	}

	// Past the hold the ladder returns to OK and the NEW timeout
	// governs: 42 is long overdue at 1s.
	h.clock.Advance(6 * time.Second)
	if h.th.Health() != HealthOK {
		t.Fatalf("health = %v, want ok past the hold", h.th.Health())
	}
	if len(h.evicted) != 1 || h.evicted[0] != 42 {
		t.Fatalf("evicted = %v, want [42] under the shrunken timeout", h.evicted)
	}
}

func TestReconfigureBeforeRecoverySetsNewGrace(t *testing.T) {
	h := newHarness(Config{})
	h.th.RequestArrived(1)
	h.th.Table().Credit(42, 500, h.clock.Now())
	h.th.SetOriginStalled(true)

	// The push lands during the stall; recovery afterwards grants grace
	// from the NEW orphan timeout.
	if err := h.th.Reconfigure(Config{OrphanTimeout: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	h.clock.Advance(time.Second)
	h.th.SetOriginStalled(false)

	h.clock.Advance(1500 * time.Millisecond) // inside the 2s grace
	if len(h.evicted) != 0 || h.th.Health() != HealthRecovering {
		t.Fatalf("grace cut short: evicted=%v health=%v", h.evicted, h.th.Health())
	}
	h.clock.Advance(time.Second) // past it
	if h.th.Health() != HealthOK {
		t.Fatalf("health = %v, want ok", h.th.Health())
	}
	if len(h.evicted) != 1 || h.evicted[0] != 42 {
		t.Fatalf("evicted = %v, want [42]", h.evicted)
	}
}
