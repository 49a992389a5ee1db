package core

import (
	"time"
)

// Address identifies a client for detect-and-block purposes (an IP
// address, in the paper's terms). Speak-up deliberately avoids relying
// on addresses (spoofing, NATs — §2.2); the Profiler exists as the
// paper's §8.1 comparison baseline.
type Address uint64

// ProfilerConfig tunes the Profiler.
type ProfilerConfig struct {
	// BaselineRate is the learned per-address request rate from the
	// historical profile (requests/second). The paper's profiling
	// products build this during peacetime; here it is handed in,
	// which is the best case for profiling. Required.
	BaselineRate float64
	// Slack is the multiple of the baseline an address may reach
	// before being blocked (profiles must tolerate variance).
	// Default 3.
	Slack float64
	// Burst is the per-address token-bucket depth in requests.
	// Default 5.
	Burst float64
	// BlacklistAfter is how many profile violations get an address
	// blacklisted outright (detection -> blocking). Default 10.
	BlacklistAfter int
	// BlacklistFor is how long a blacklisted address stays blocked.
	// Default 60s.
	BlacklistFor time.Duration
}

func (c ProfilerConfig) withDefaults() ProfilerConfig {
	if c.Slack == 0 {
		c.Slack = 3
	}
	if c.Burst == 0 {
		c.Burst = 5
	}
	if c.BlacklistAfter == 0 {
		c.BlacklistAfter = 10
	}
	if c.BlacklistFor == 0 {
		c.BlacklistFor = 60 * time.Second
	}
	return c
}

// Profiler is the address profile of the §8.1 detect-and-block
// baseline (paper §1 taxonomy): it rate-limits each client address to
// Slack times its learned baseline, and requests over the profile are
// blocked outright. A front runs it ahead of a PassThrough, so past the
// profile the baseline behaves like the no-defense pass-through.
//
// Against primitive bots (which must send fast to be effective) this
// works very well. Against "smart" bots that stay within the profile's
// slack, it can only limit, never block — the §8.1 argument for
// currency-based schemes like speak-up.
type Profiler struct {
	clock Clock
	cfg   ProfilerConfig

	buckets map[Address]*profileBucket
	blocked uint64
}

type profileBucket struct {
	tokens      float64
	lastFill    time.Duration
	violations  int
	blockedTill time.Duration // 0 = not blacklisted
}

// NewProfiler creates the §8.1 address profile.
func NewProfiler(clock Clock, cfg ProfilerConfig) *Profiler {
	if cfg.BaselineRate <= 0 {
		panic("core: Profiler requires BaselineRate > 0")
	}
	return &Profiler{
		clock:   clock,
		cfg:     cfg.withDefaults(),
		buckets: make(map[Address]*profileBucket),
	}
}

// Blocked returns how many requests the profile rejected.
func (p *Profiler) Blocked() uint64 { return p.blocked }

// Allow charges one request against from's profile bucket and reports
// whether it may proceed; a refusal counts toward Blocked. Repeated
// violations blacklist the address (detection -> blocking).
func (p *Profiler) Allow(from Address) bool {
	now := p.clock.Now()
	b, ok := p.buckets[from]
	if !ok {
		b = &profileBucket{tokens: p.cfg.Burst, lastFill: now}
		p.buckets[from] = b
	}
	if b.blockedTill > 0 {
		if now < b.blockedTill {
			p.blocked++
			return false
		}
		b.blockedTill = 0
		b.violations = 0
		b.tokens = p.cfg.Burst
		b.lastFill = now
	}
	rate := p.cfg.BaselineRate * p.cfg.Slack
	b.tokens += (now - b.lastFill).Seconds() * rate
	if b.tokens > p.cfg.Burst {
		b.tokens = p.cfg.Burst
	}
	b.lastFill = now
	if b.tokens < 1 {
		b.violations++
		if b.violations >= p.cfg.BlacklistAfter {
			b.blockedTill = now + p.cfg.BlacklistFor
		}
		p.blocked++
		return false
	}
	b.tokens--
	return true
}

// Blacklisted reports whether from is currently blacklisted.
func (p *Profiler) Blacklisted(from Address) bool {
	b, ok := p.buckets[from]
	return ok && b.blockedTill > 0 && p.clock.Now() < b.blockedTill
}
