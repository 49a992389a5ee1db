package adversary

import (
	"math/rand"
	"sync/atomic"
	"time"
)

// defector games the payment channel (§3.4): it refuses to pay beyond
// a per-request probe of the minimum winning bid. After a win it
// shaves the probe to 7/8 of the observed price — trying to win the
// next auction for less — and after a loss it doubles the probe. A
// correctly priced auction forces the probe back up to the true
// market price, so the defector ends up paying what everyone else
// pays; the strategy exists to verify exactly that.
type defector struct {
	spec  Spec
	probe atomic.Int64 // current per-request payment cap, bytes
}

// Probe bounds: start at 256 KB, never shave below 4 KB, never
// escalate past 64 MB.
const (
	defectorStart = 256 << 10
	defectorFloor = 4 << 10
	defectorCeil  = 64 << 20
)

func newDefector(s Spec) Strategy {
	d := &defector{spec: s}
	d.probe.Store(defectorStart)
	return d
}

func (d *defector) Name() string { return d.spec.Name }

func (d *defector) Gap(_ time.Duration, rng *rand.Rand) time.Duration {
	return expGap(rng, d.spec.rate())
}

func (d *defector) Window(time.Duration) int { return d.spec.win() }

// PostSize pays up to the probe, then stops cold: the request stays
// open (camping on its bid) and the thinner's inactivity timeout is
// what should eventually clear it if the bid never wins.
func (d *defector) PostSize(_ time.Duration, paid int64, def int) int {
	rem := d.probe.Load() - paid
	if rem <= 0 {
		return 0
	}
	if rem < int64(def) {
		return int(rem)
	}
	return def
}

func (d *defector) Observe(o Outcome) {
	if o.Denied {
		return
	}
	if o.Served {
		won := o.Price
		if won <= 0 {
			won = o.Paid
		}
		if won > 0 {
			d.probe.Store(clamp64(won*7/8, defectorFloor, defectorCeil))
		}
		return
	}
	// Outbid, evicted, or aborted after actually bidding: the probe
	// was too low. Failures that never paid (transport errors, busy
	// drops) carry no auction signal — escalating on them would let a
	// flaky link inflate the probe to the ceiling.
	if o.Paid > 0 {
		d.probe.Store(clamp64(d.probe.Load()*2, defectorFloor, defectorCeil))
	}
}

func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
