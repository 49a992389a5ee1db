package core

import (
	"math/rand"
	"slices"
	"time"

	"speakup/internal/metrics"
)

// baseline is what the two payment-free policies share: callbacks, the
// server's busy latch and the registry they count in.
type baseline struct {
	Callbacks
	busy bool
	reg  metrics.Registry
}

// Busy is always false: the baselines ask no one to pay.
func (b *baseline) Busy() bool { return false }

// Stats returns the activity counters, read from the registry.
func (b *baseline) Stats() Stats { return b.reg.Snapshot().Counters }

// refuse counts an arrival as evicted and turns it away with v.
func (b *baseline) refuse(v ArriveVerdict) ArriveVerdict {
	b.reg.RecordEvict(0)
	return v
}

// admit counts id's admission, ends its (empty) payment and hands it
// to the server. direct marks an admission straight to a free server.
func (b *baseline) admit(id RequestID, direct bool) {
	b.reg.RecordAdmit(0, direct)
	if b.Evict != nil {
		b.Evict(id, 0, false)
	}
	if b.Admit != nil {
		b.Admit(id, 0)
	}
}

// PassThrough is the no-defense baseline the paper's "OFF" experiments
// use (§3 illustration, §7.2): when the server is free, the next
// arriving request is served; requests arriving while it is busy are
// refused (the thinner replies "busy" at once). Over Poisson arrivals
// this allocates the server in proportion to request rates — which is
// exactly why attackers win without speak-up.
type PassThrough struct{ baseline }

// NewPassThrough returns the OFF-mode front-end.
func NewPassThrough() *PassThrough { return &PassThrough{} }

// RequestArrived admits the request if the server is free, else sheds
// it.
func (p *PassThrough) RequestArrived(id RequestID) ArriveVerdict {
	if p.busy {
		return p.refuse(ArriveShed)
	}
	p.busy = true
	p.admit(id, true)
	return ArriveOK
}

// ServerDone signals that the server finished id.
func (p *PassThrough) ServerDone(id RequestID) {
	p.busy = false
	p.done(id)
}

// RandomDrop is the §3.2 speak-up variant: the thinner admits each
// incoming request with probability prob and asks the client to retry
// otherwise; clients pipeline congestion-controlled retries. The
// admission probability adapts so the admitted rate tracks the
// server's capacity c: each adaptation interval it sets
// prob = c / (measured arrival rate).
//
// The price (retries per service) emerges as 1/prob = (B+G)/c, giving
// the same bandwidth-proportional allocation as the auction (§3.2).
// Dropped requests are refused with a please-retry signal (with
// pipelined clients it is informational).
type RandomDrop struct {
	baseline

	clock Clock
	rng   *rand.Rand
	cfg   RandomDropConfig

	prob    float64
	arrived int         // requests in the current adaptation interval
	tickFn  func()      // built once; rescheduled every AdaptEvery
	queue   []RequestID // admitted, waiting for the server
	active  RequestID   // the request the server holds, while busy
}

// RandomDropConfig tunes a RandomDrop front-end.
type RandomDropConfig struct {
	// Capacity is the server's rate c in requests/second. Required.
	Capacity float64
	// AdaptEvery is the probability-adaptation interval. Default 1s.
	AdaptEvery time.Duration
	// MaxQueue bounds the admitted-but-unserved queue; beyond it,
	// admitted requests are dropped (the server is strictly paced).
	// Default 2.
	MaxQueue int
	// Seed seeds the drop coin. The simulation passes a fixed seed for
	// reproducibility.
	Seed int64
}

func (c RandomDropConfig) withDefaults() RandomDropConfig {
	if c.AdaptEvery == 0 {
		c.AdaptEvery = time.Second
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 2
	}
	return c
}

// NewRandomDrop creates the §3.2 front-end and starts its adaptation
// timer on the given clock.
func NewRandomDrop(clock Clock, cfg RandomDropConfig) *RandomDrop {
	if cfg.Capacity <= 0 {
		panic("core: RandomDrop requires Capacity > 0")
	}
	r := &RandomDrop{
		clock: clock,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		cfg:   cfg.withDefaults(),
		prob:  1,
	}
	r.tickFn = r.adapt
	r.scheduleTick()
	return r
}

// Prob returns the current admission probability (the price is 1/Prob).
func (r *RandomDrop) Prob() float64 { return r.prob }

func (r *RandomDrop) scheduleTick() { r.clock.After(r.cfg.AdaptEvery, r.tickFn) }

// adapt sets the admission probability from the last interval's
// arrival rate and starts the next interval.
func (r *RandomDrop) adapt() {
	rate := float64(r.arrived) / r.cfg.AdaptEvery.Seconds()
	r.arrived = 0
	if rate <= r.cfg.Capacity {
		r.prob = 1
	} else {
		r.prob = r.cfg.Capacity / rate
	}
	r.scheduleTick()
}

// RequestArrived applies the drop coin. Admitted requests go to the
// server (or its short queue); dropped ones are told to retry. A
// pipelined retry of a request already queued or in service counts
// toward the arrival rate but flips no coin: it is already admitted.
func (r *RandomDrop) RequestArrived(id RequestID) ArriveVerdict {
	r.arrived++
	if (r.busy && r.active == id) || slices.Contains(r.queue, id) {
		return ArriveOK
	}
	if r.rng.Float64() >= r.prob || len(r.queue) >= r.cfg.MaxQueue {
		return r.refuse(ArriveRetry)
	}
	if r.busy {
		r.queue = append(r.queue, id)
		return ArriveOK
	}
	r.busy, r.active = true, id
	r.admit(id, false)
	return ArriveOK
}

// ServerDone signals that the server finished id; the next queued
// admitted request (if any) starts.
func (r *RandomDrop) ServerDone(id RequestID) {
	r.busy = false
	r.done(id)
	if len(r.queue) == 0 {
		return
	}
	next := r.queue[0]
	r.queue = r.queue[1:]
	r.busy, r.active = true, next
	r.admit(next, false)
}
