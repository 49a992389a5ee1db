package core

import (
	"time"
)

// HeteroThinner generalizes the virtual auction to unequal requests
// (§5). Time is broken into quanta of length Tau; a request of x
// quanta must win x auctions. Instead of terminating the winner's
// payment channel, the thinner keeps charging it: every quantum it
// compares the payment (since last charge) of the currently-active
// request v against the top contender u and
//
//  1. if u outbid v: SUSPEND v, admit/RESUME u, zero u's payment;
//  2. otherwise: let v continue and zero v's payment (it just paid for
//     the next quantum);
//  3. requests SUSPENDed longer than AbortAfter are ABORTed.
//
// The server must export SUSPEND/RESUME/ABORT (internal/server does).
//
// Payments live in the same BidTable the §3.3 auction uses. Charging
// settles the channel and reopens an empty, ineligible one that the
// active request keeps paying into, so the active request never
// contends and the table's winner is always the top challenger u.
// Suspending v makes its channel eligible again, bidding with what v
// paid since its last charge.
type HeteroThinner struct {
	clock Clock
	cfg   HeteroConfig
	table *BidTable
	stats Stats

	active    RequestID
	hasActive bool
	started   map[RequestID]bool          // requests already begun (RESUME vs Start)
	suspended map[RequestID]time.Duration // id -> when suspended
	charged   map[RequestID]int64         // bytes charged across quanta so far
	orphans   []RequestID                 // DueOrphans buffer, reused every tick

	stopTick func()

	// Start begins serving a fresh request.
	Start func(id RequestID)
	// Suspend pauses the active request, preserving its progress.
	Suspend func(id RequestID)
	// Resume continues a previously suspended request.
	Resume func(id RequestID)
	// Abort cancels a suspended request that timed out.
	Abort func(id RequestID)
	// Done reports a request that finished service (its channel may be
	// closed); paid is the total charged over its lifetime.
	Done func(id RequestID, paid int64)
}

// HeteroConfig tunes a HeteroThinner.
type HeteroConfig struct {
	// Tau is the quantum length (the paper's τ). Required.
	Tau time.Duration
	// AbortAfter aborts requests suspended this long (paper: 30s).
	AbortAfter time.Duration
	// OrphanTimeout evicts request-less payment channels. Default 10s.
	OrphanTimeout time.Duration
}

func (c HeteroConfig) withDefaults() HeteroConfig {
	if c.AbortAfter == 0 {
		c.AbortAfter = 30 * time.Second
	}
	if c.OrphanTimeout == 0 {
		c.OrphanTimeout = 10 * time.Second
	}
	return c
}

// NewHeteroThinner creates the §5 scheduler and starts its quantum
// timer on the given clock.
func NewHeteroThinner(clock Clock, cfg HeteroConfig) *HeteroThinner {
	if cfg.Tau <= 0 {
		panic("core: HeteroThinner requires Tau > 0")
	}
	h := &HeteroThinner{
		clock:     clock,
		cfg:       cfg.withDefaults(),
		table:     NewBidTable(1),
		started:   make(map[RequestID]bool),
		suspended: make(map[RequestID]time.Duration),
		charged:   make(map[RequestID]int64),
	}
	h.scheduleTick()
	return h
}

// Table exposes the payment table.
func (h *HeteroThinner) Table() *BidTable { return h.table }

// Stats returns a copy of the activity counters.
func (h *HeteroThinner) Stats() Stats { return h.stats }

// Active returns the currently-served request, if any.
func (h *HeteroThinner) Active() (RequestID, bool) { return h.active, h.hasActive }

// Stop cancels the quantum timer.
func (h *HeteroThinner) Stop() {
	if h.stopTick != nil {
		h.stopTick()
		h.stopTick = nil
	}
}

// RequestArrived registers a request; it contends for quanta from now
// on. Unlike the homogeneous thinner there is no free-server fast
// path bypassing the auction: every request is admitted via the quantum
// procedure so that attackers cannot sneak hard requests in for free.
// When the server is idle the next tick admits the top contender, so
// idle-server latency is bounded by Tau.
func (h *HeteroThinner) RequestArrived(id RequestID) {
	h.table.MarkEligible(id, h.clock.Now())
}

// PaymentReceived credits bytes to id's channel.
func (h *HeteroThinner) PaymentReceived(id RequestID, bytes int64) {
	h.table.Credit(id, bytes, h.clock.Now())
}

// ServerDone reports that the active request completed.
func (h *HeteroThinner) ServerDone(id RequestID) {
	if !h.hasActive || h.active != id {
		return
	}
	h.hasActive = false
	paid := h.charged[id] + h.table.Remove(id, ChanAdmitted)
	delete(h.charged, id)
	delete(h.started, id)
	h.stats.Admitted++
	h.stats.PaidBytes += paid
	if h.Done != nil {
		h.Done(id, paid)
	}
	// Don't wait a full quantum with an idle server: run the
	// procedure immediately to admit the next contender.
	h.tick()
}

func (h *HeteroThinner) scheduleTick() {
	h.stopTick = h.clock.After(h.cfg.Tau, func() {
		h.tick()
		h.scheduleTick()
	})
}

// tick is the every-τ procedure from §5.
func (h *HeteroThinner) tick() {
	now := h.clock.Now()

	// Abort requests suspended too long.
	for id, since := range h.suspended {
		if now-since >= h.cfg.AbortAfter {
			delete(h.suspended, id)
			delete(h.started, id)
			paid := h.charged[id] + h.table.Remove(id, ChanEvicted)
			delete(h.charged, id)
			h.stats.Evicted++
			h.stats.WastedBytes += paid
			if h.Abort != nil {
				h.Abort(id)
			}
		}
	}
	// Evict orphaned payment channels. The active request's channel
	// is ineligible too, but it is being served, not orphaned.
	h.orphans = h.table.DueOrphans(h.orphans[:0], now-h.cfg.OrphanTimeout)
	for _, id := range h.orphans {
		if h.hasActive && id == h.active {
			continue
		}
		h.stats.Evicted++
		h.stats.WastedBytes += h.table.Remove(id, ChanEvicted)
	}

	u, uPaid, ok := h.table.Winner()
	if !ok {
		return // nobody waiting; v (if any) keeps running for free
	}
	if !h.hasActive {
		h.admit(u)
		return
	}
	vPaid := h.table.Balance(h.active)
	if uPaid > vPaid {
		// u outbids v: suspend v, start/resume u.
		v := h.active
		h.suspended[v] = now
		h.hasActive = false
		h.table.MarkEligible(v, now)
		if h.Suspend != nil {
			h.Suspend(v)
		}
		h.admit(u)
		return
	}
	// v holds the server: charge it for the next quantum.
	h.charge(h.active)
}

// charge settles id's payment since its last charge into its lifetime
// total and reopens an empty, ineligible channel for it to keep paying
// into.
func (h *HeteroThinner) charge(id RequestID) {
	h.charged[id] += h.table.Remove(id, ChanAdmitted)
	h.table.Channel(id, h.clock.Now())
}

func (h *HeteroThinner) admit(id RequestID) {
	h.stats.Auctions++
	h.charge(id)
	h.active = id
	h.hasActive = true
	delete(h.suspended, id)
	if h.started[id] {
		if h.Resume != nil {
			h.Resume(id)
		}
		return
	}
	h.started[id] = true
	if h.Start != nil {
		h.Start(id)
	}
}
