// Package adversary implements strategy-driven attackers for both
// stacks: the deterministic simulator (internal/clients via the
// scenario layer) and the live load generator (internal/loadgen over
// real sockets). The paper's robustness claim (§6-§7) is that speak-up
// holds not just against fixed-rate floods but against attackers who
// adapt — cheat on payment, time their bursts, mimic good clients —
// so the attacker itself must be programmable.
//
// A Strategy decides, from observed feedback (admissions, denials,
// the current price), everything one client controls: request timing,
// the outstanding-request window and payment sizing. It is the only
// client process either stack runs: the paper's good and bad clients
// (§7.1) are the poisson profile with λ=2, w=1 and λ=40, w=20. How
// much work a request costs the server is a property of the client
// group, not of the strategy. Strategies keyed by name are plain data
// (Spec), so sweep grids, scenario configs, and command-line flags
// can all declare them; internal/exp/exp_adversary.go scans the
// registry into a robustness-frontier table.
//
// Strategies must be safe for concurrent use (the live load generator
// calls them from many goroutines) and deterministic when driven from
// a single goroutine with a seeded rng (the simulator's event loop),
// which is why all mutable state lives in atomics and all randomness
// comes in through Gap's rng parameter.
package adversary

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Outcome is the feedback one request feeds back into its strategy.
type Outcome struct {
	// Served reports admission + service; !Served && !Denied is an
	// explicit failure (eviction, OFF-mode drop, abort).
	Served bool
	// Denied marks a request that died in the client's backlog (or was
	// dropped at a full window) without ever being issued.
	Denied bool
	// Price is the last observed winning bid in bytes (the thinner's
	// admission price, a public observable); 0 when unknown.
	Price int64
	// Paid is the payment bytes this request pushed.
	Paid int64
	// Now is the completion time (virtual in the simulator, elapsed
	// wall time in the live load generator).
	Now time.Duration
}

// Strategy drives one client. The simulator calls Gap and
// Window on its single event-loop goroutine; the live load generator
// calls PostSize and Observe from per-request goroutines, so
// implementations keep mutable state in atomics.
type Strategy interface {
	// Name identifies the profile, e.g. "onoff".
	Name() string
	// Gap returns the gap from now until the next generated request.
	// All randomness must come from rng so the simulator stays a pure
	// function of its seed.
	Gap(now time.Duration, rng *rand.Rand) time.Duration
	// Window returns the outstanding-request cap in force at now
	// (0 suspends issuing entirely, e.g. the OFF phase of a pulse).
	Window(now time.Duration) int
	// PostSize sizes the next payment POST for a request that has
	// already paid `paid` bytes; def is the protocol default (1 MB).
	// Returning <= 0 stops paying while keeping the request open —
	// the defector's move.
	PostSize(now time.Duration, paid int64, def int) int
	// Observe feeds one finished (or denied) request back.
	Observe(o Outcome)
}

// Spec names a strategy and its knobs. It is plain data so scenario
// configs, sweep grids, and flags can declare attackers without
// touching constructors. Zero fields take per-profile defaults.
type Spec struct {
	// Name selects the profile; see Names for the registry.
	Name string
	// Aggressiveness scales the profile's nominal demand — request
	// rate and window — linearly. 0 means 1.
	Aggressiveness float64
	// Lambda overrides the profile's base Poisson rate (requests/s).
	Lambda float64
	// Window overrides the profile's base outstanding cap.
	Window int
	// Period is the pulse/phase period for onoff and adaptive
	// (default 10s).
	Period time.Duration
	// Duty is onoff's ON fraction of each period, in (0, 1]
	// (default 0.25).
	Duty float64
}

// profile is one registry entry.
type profile struct {
	lambda float64 // default base rate
	window int     // default outstanding cap
	doc    string
	build  func(Spec, *Cohort) Strategy
}

// profiles is populated in init: the build closures reach Spec
// methods that read the map back, which a composite-literal
// initializer would report as an initialization cycle.
var profiles = map[string]profile{}

func init() {
	profiles["poisson"] = profile{
		lambda: 40, window: 20,
		doc:   "fixed-rate flood: the paper's §7.1 bad client (Poisson λ=40, w=20, full payment)",
		build: func(s Spec, _ *Cohort) Strategy { return &fixed{spec: s} },
	}
	profiles["mimic"] = profile{
		lambda: 2, window: 1,
		doc:   "good-client impersonation at scale (λ=2, w=1, honest payment) — §8.1's smart bots, under the profiling radar",
		build: func(s Spec, _ *Cohort) Strategy { return &fixed{spec: s} },
	}
	profiles["onoff"] = profile{
		lambda: 40, window: 20,
		doc:   "shrew-style pulsing: the ON fraction (Duty) of each Period bursts at λ/Duty, then goes silent",
		build: func(s Spec, _ *Cohort) Strategy { return newOnOff(s) },
	}
	profiles["defector"] = profile{
		lambda: 40, window: 20,
		doc:   "pays only up to a probe of the minimum winning bid: shaves the probe below each observed win, doubles it after losses",
		build: func(s Spec, _ *Cohort) Strategy { return newDefector(s) },
	}
	profiles["flood"] = profile{
		lambda: 40, window: 64,
		doc:   "many concurrent request ids with tiny (1 KB) payments, stressing the thinner's waiter bookkeeping",
		build: func(s Spec, _ *Cohort) Strategy { return &fixed{spec: s, post: floodPost} },
	}
	profiles["adaptive"] = profile{
		lambda: 40, window: 20,
		doc:   "retunes rate/window/burst phase from served-vs-denied feedback; the cohort shares a fixed bandwidth budget and coupon-collects winning phases",
		build: newAdaptive,
	}
}

// Names returns the registered strategy names, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for name := range profiles {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Doc returns a one-line description of a registered strategy ("" if
// unknown).
func Doc(name string) string { return profiles[name].doc }

// Validate reports an unknown name or out-of-range knobs.
func (s Spec) Validate() error {
	if _, ok := profiles[s.Name]; !ok {
		return fmt.Errorf("adversary: unknown strategy %q (have %s)",
			s.Name, strings.Join(Names(), ", "))
	}
	if s.Aggressiveness < 0 {
		return fmt.Errorf("adversary: %s: Aggressiveness must be >= 0, got %g", s.Name, s.Aggressiveness)
	}
	if s.Lambda < 0 {
		return fmt.Errorf("adversary: %s: Lambda must be >= 0, got %g", s.Name, s.Lambda)
	}
	if s.Window < 0 {
		return fmt.Errorf("adversary: %s: Window must be >= 0, got %d", s.Name, s.Window)
	}
	if s.Period < 0 {
		return fmt.Errorf("adversary: %s: Period must be >= 0, got %v", s.Name, s.Period)
	}
	if s.Duty < 0 || s.Duty > 1 {
		return fmt.Errorf("adversary: %s: Duty must be in (0, 1], got %g", s.Name, s.Duty)
	}
	return nil
}

func (s Spec) withDefaults() Spec {
	p := profiles[s.Name]
	if s.Aggressiveness == 0 {
		s.Aggressiveness = 1
	}
	if s.Lambda == 0 {
		s.Lambda = p.lambda
	}
	if s.Window == 0 {
		s.Window = p.window
	}
	if s.Period == 0 {
		s.Period = 10 * time.Second
	}
	if s.Duty == 0 {
		s.Duty = 0.25
	}
	return s
}

// New builds a fresh strategy instance for one client. cohort may be
// nil for strategies that do not coordinate (adaptive then runs a
// private single-member cohort). It panics on specs Validate rejects;
// validate first when the spec comes from user input.
func (s Spec) New(cohort *Cohort) Strategy {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	s = s.withDefaults()
	return profiles[s.Name].build(s, cohort)
}

// rate is the aggressiveness-scaled request rate (defaults applied).
func (s Spec) rate() float64 { return s.Lambda * s.Aggressiveness }

// win is the aggressiveness-scaled outstanding cap, at least 1.
func (s Spec) win() int {
	w := int(float64(s.Window)*s.Aggressiveness + 0.5)
	if w < 1 {
		w = 1
	}
	return w
}

// expGap draws an exponential inter-arrival gap at the given rate.
func expGap(rng *rand.Rand, lambda float64) time.Duration {
	if lambda <= 0 {
		return time.Hour
	}
	return time.Duration(rng.ExpFloat64() / lambda * float64(time.Second))
}

// floodPost is the flood profile's tiny payment size.
const floodPost = 1 << 10

// fixed is the stateless family: a Poisson process at a fixed rate and
// window. poisson and mimic differ only in their defaults; flood also
// caps each POST at floodPost bytes.
type fixed struct {
	spec Spec
	post int // 0 = protocol default
}

func (f *fixed) Name() string { return f.spec.Name }

func (f *fixed) Gap(_ time.Duration, rng *rand.Rand) time.Duration {
	return expGap(rng, f.spec.rate())
}

func (f *fixed) Window(time.Duration) int { return f.spec.win() }

func (f *fixed) PostSize(_ time.Duration, _ int64, def int) int {
	if f.post > 0 && f.post < def {
		return f.post
	}
	return def
}

func (f *fixed) Observe(Outcome) {}
