package adversary

import (
	"math/rand"
	"time"
)

// onoff is the shrew-style pulsing attacker: it concentrates its
// nominal rate λ into the ON fraction (Duty) of each Period, bursting
// at λ/Duty, then goes completely silent. Against rate-profiling
// defenses the average rate looks benign; against an auction the
// synchronized bursts try to spike the price while the attacker is
// paying and leave quiet windows otherwise. Every onoff client shares
// phase zero, so a cohort pulses in lockstep — synchronization is the
// point of the attack.
type onoff struct {
	spec  Spec
	burst float64       // ON-phase request rate (rate/duty)
	onLen time.Duration // ON span at the start of each period
}

func newOnOff(s Spec) Strategy {
	return &onoff{
		spec:  s,
		burst: s.rate() / s.Duty,
		onLen: time.Duration(float64(s.Period) * s.Duty),
	}
}

func (o *onoff) Name() string { return o.spec.Name }

// Gap draws a burst-rate exponential gap and, whenever the arrival
// would land in the OFF span, defers it to the start of the next
// period (where ON begins).
func (o *onoff) Gap(now time.Duration, rng *rand.Rand) time.Duration {
	t := now + expGap(rng, o.burst)
	if pos := t % o.spec.Period; pos >= o.onLen {
		t += o.spec.Period - pos
	}
	if t <= now {
		t = now + time.Nanosecond
	}
	return t - now
}

// Window collapses to 0 during the OFF span so completions do not
// refill from the backlog between bursts.
func (o *onoff) Window(now time.Duration) int {
	if now%o.spec.Period >= o.onLen {
		return 0
	}
	return o.spec.win()
}

func (o *onoff) PostSize(_ time.Duration, _ int64, def int) int { return def }

func (o *onoff) Observe(Outcome) {}
