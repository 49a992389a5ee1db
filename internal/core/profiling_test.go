package core

import (
	"testing"
	"time"
)

func newProfiler(cfg ProfilerConfig) (*fakeClock, *Profiler) {
	clock := &fakeClock{}
	return clock, NewProfiler(clock, cfg)
}

func TestProfilerAllowsBaselineRate(t *testing.T) {
	clock, p := newProfiler(ProfilerConfig{BaselineRate: 2, Slack: 3, Burst: 5})
	// One request every 500ms (the baseline) stays well within 3x slack.
	allowed := 0
	for i := 0; i < 40; i++ {
		if p.Allow(1) {
			allowed++
		}
		clock.Advance(500 * time.Millisecond)
	}
	if allowed != 40 {
		t.Fatalf("baseline traffic blocked: allowed %d/40", allowed)
	}
	if p.Blocked() != 0 {
		t.Fatalf("blocked = %d", p.Blocked())
	}
}

func TestProfilerBlocksFlooding(t *testing.T) {
	clock, p := newProfiler(ProfilerConfig{BaselineRate: 2, Slack: 3, Burst: 5})
	// 40 requests/second for 10 seconds: only ~6/s (plus burst) pass.
	passed := 0
	for tick := 0; tick < 400; tick++ {
		if p.Allow(7) {
			passed++
		}
		clock.Advance(25 * time.Millisecond)
	}
	if passed > 70+10 { // 6/s * 10s + burst, generous slack
		t.Fatalf("flood passed %d requests, want <= ~70", passed)
	}
	if p.Blocked() < 300 {
		t.Fatalf("blocked only %d of a 400-request flood", p.Blocked())
	}
	if int(p.Blocked())+passed != 400 {
		t.Fatalf("blocked %d + passed %d != 400: Blocked must count every refusal", p.Blocked(), passed)
	}
}

func TestProfilerSmartBotFliesUnderRadar(t *testing.T) {
	clock, p := newProfiler(ProfilerConfig{BaselineRate: 2, Slack: 3, Burst: 5})
	// Exactly the allowed 6/s: never blocked — profiling can only
	// limit, not block, a bot that mimics the profile (§8.1).
	allowed := 0
	for i := 0; i < 120; i++ {
		if p.Allow(9) {
			allowed++
		}
		clock.Advance(time.Second / 6)
	}
	if p.Blocked() > 2 {
		t.Fatalf("smart bot blocked %d times", p.Blocked())
	}
	if allowed < 115 {
		t.Fatalf("smart bot allowed only %d/120", allowed)
	}
}

func TestProfilerPerAddressIsolation(t *testing.T) {
	_, p := newProfiler(ProfilerConfig{BaselineRate: 2, Slack: 3, Burst: 2})
	// Address 1 floods and exhausts its bucket; address 2 must be
	// unaffected.
	for i := 0; i < 20; i++ {
		p.Allow(1)
	}
	blockedBefore := p.Blocked()
	if blockedBefore == 0 {
		t.Fatal("flooder not blocked")
	}
	if !p.Allow(2) || p.Blocked() != blockedBefore {
		t.Fatal("well-behaved address punished for another's flood")
	}
}

func TestProfilerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero baseline did not panic")
		}
	}()
	NewProfiler(&fakeClock{}, ProfilerConfig{})
}

func TestProfilerBlacklistsFlooders(t *testing.T) {
	clock, p := newProfiler(ProfilerConfig{BaselineRate: 2, Slack: 3, Burst: 5, BlacklistAfter: 10})
	for i := 0; i < 50; i++ {
		p.Allow(4)
		clock.Advance(10 * time.Millisecond)
	}
	if !p.Blacklisted(4) {
		t.Fatal("flooder not blacklisted after sustained violations")
	}
	// Everything is now dropped, even at a polite rate.
	blockedBefore := p.Blocked()
	clock.Advance(time.Second)
	if p.Allow(4) || p.Blocked() != blockedBefore+1 {
		t.Fatal("blacklisted address got through")
	}
}

func TestProfilerBlacklistExpires(t *testing.T) {
	clock, p := newProfiler(ProfilerConfig{
		BaselineRate: 2, Slack: 3, Burst: 5, BlacklistAfter: 5, BlacklistFor: 10 * time.Second,
	})
	for i := 0; i < 30; i++ {
		p.Allow(8)
	}
	if !p.Blacklisted(8) {
		t.Fatal("not blacklisted")
	}
	clock.Advance(11 * time.Second)
	if !p.Allow(8) {
		t.Fatal("reformed address still blocked after expiry")
	}
}
