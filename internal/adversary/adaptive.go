package adversary

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// adaptive is the probing botnet member: it watches its own
// served-vs-denied ratio and retunes. When starved it rotates its
// burst phase to a slot the cohort has not yet won (coupon-collection
// of the defense's weak moments), grows its window, and claims more
// rate from the cohort's shared bandwidth budget; when winning
// comfortably it releases rate back to the pool for starved members.
// The cohort's aggregate demand therefore stays fixed while its
// distribution chases whatever the defense leaves open.
type adaptive struct {
	spec   Spec
	cohort *Cohort

	phase      atomic.Int32
	rateMilli  atomic.Int64 // current personal rate, milli-requests/s
	window     atomic.Int32
	wins, lost atomic.Uint32 // outcomes since the last retune
}

// Retune thresholds: reconsider every retuneEvery outcomes; below
// starvedFrac served rotate-and-claim, above happyFrac release.
const (
	retuneEvery = 8
	starvedFrac = 0.3
	happyFrac   = 0.7
)

func newAdaptive(s Spec, c *Cohort) Strategy {
	if c == nil {
		c = NewCohort(s, 1)
	}
	a := &adaptive{spec: s, cohort: c}
	a.phase.Store(int32(c.Join()))
	a.rateMilli.Store(c.Claim(milliRate(s.rate())))
	a.window.Store(int32(s.win()))
	return a
}

func (a *adaptive) Name() string { return a.spec.Name }

// Gap draws an exponential gap at the current claimed rate, then
// defers arrivals that would land outside the member's burst-phase
// slot to that slot's next occurrence.
func (a *adaptive) Gap(now time.Duration, rng *rand.Rand) time.Duration {
	t := now + expGap(rng, float64(a.rateMilli.Load())/1000)
	period := a.spec.Period
	slot := period / CohortSlots
	start := time.Duration(a.phase.Load()) * slot
	if pos := t % period; pos < start || pos >= start+slot {
		base := t - pos
		if pos >= start {
			base += period
		}
		t = base + start
	}
	if t <= now {
		t = now + time.Nanosecond
	}
	return t - now
}

func (a *adaptive) Window(time.Duration) int { return int(a.window.Load()) }

func (a *adaptive) PostSize(_ time.Duration, _ int64, def int) int { return def }

func (a *adaptive) Observe(o Outcome) {
	if o.Served {
		a.wins.Add(1)
		a.cohort.MarkWon(int(a.phase.Load()))
	} else {
		a.lost.Add(1)
	}
	w, l := a.wins.Load(), a.lost.Load()
	if w+l < retuneEvery {
		return
	}
	// Concurrent observers may each reset and retune once; the loss of
	// a few counts between Load and Store is harmless noise.
	a.wins.Store(0)
	a.lost.Store(0)
	switch frac := float64(w) / float64(w+l); {
	case frac < starvedFrac:
		// Starved: probe an uncollected burst phase, widen the window,
		// and claim whatever rate the cohort pool can spare.
		a.phase.Store(int32(a.cohort.NextPhase(int(a.phase.Load()))))
		if grown := a.window.Load() * 2; grown <= int32(4*a.spec.win()) {
			a.window.Store(grown)
		}
		a.rateMilli.Add(a.cohort.Claim(a.rateMilli.Load() / 2))
	case frac > happyFrac:
		// Winning comfortably: shrink back toward base demand and give
		// the spare rate to starved cohort members.
		if shrunk := a.window.Load() / 2; shrunk >= int32(a.spec.win()) {
			a.window.Store(shrunk)
		}
		// CAS so concurrent releases cannot stack and push the rate
		// below the base/2 floor.
		base := milliRate(a.spec.rate())
		for {
			have := a.rateMilli.Load()
			give := have / 4
			if give <= 0 || have-give < base/2 {
				break
			}
			if a.rateMilli.CompareAndSwap(have, have-give) {
				a.cohort.Release(give)
				break
			}
		}
	}
}
