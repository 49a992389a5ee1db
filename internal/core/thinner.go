// Package core implements speak-up's central mechanism: the thinner.
//
// The thinner is the front-end the paper places before a protected
// server (§3). It performs *encouragement* — causing clients to send
// payment bytes when the server is overloaded, which the transports
// carry out on the policy's behalf — and *proportional allocation* —
// admitting, each time the server frees up, the contending request
// that has paid the most (the virtual auction of §3.3). The package
// also implements the random-drop/aggressive-retry variant of §3.2,
// the no-defense pass-through baseline used by the paper's "OFF"
// experiments, the §8.1 address profile, and the heterogeneous-request
// quantum scheduler of §5. Both auctions keep their payments in one book, the
// BidTable.
//
// The policies are transport-independent: the same state machines
// drive the discrete-event simulation (internal/scenario) and the
// real-socket front-ends (internal/web, internal/wire). Only payment
// runs concurrently: transports credit chunks through a cached PayChan
// from any goroutine, with no lock. A policy's arrivals, auctions,
// admissions and sweeps must be serialized by the caller; the live
// front holds its control mutex for them (see the BidTable's
// concurrency contract in bidtable.go).
package core

import (
	"fmt"
	"slices"
	"time"

	"speakup/internal/metrics"
	"speakup/internal/trace"
)

// RequestID identifies one client request. The request message and its
// payment channel carry the same ID so the thinner can correlate them
// (the paper's prototype uses an id field in both HTTP requests).
type RequestID uint64

// Clock abstracts time so the thinner runs unchanged over virtual time
// (simulation) and wall-clock time (real sockets).
type Clock interface {
	// Now returns the elapsed time since an arbitrary epoch.
	Now() time.Duration
	// After schedules fn after d; the returned function cancels it.
	After(d time.Duration, fn func()) (cancel func())
}

// Config tunes a Thinner. The zero value selects the paper's settings.
type Config struct {
	// OrphanTimeout evicts payment channels whose request message has
	// not arrived (§7.3: "the thinner accepts payment for 10 seconds,
	// at which point it times out the payment channel"). Default 10s.
	OrphanTimeout time.Duration
	// InactivityTimeout evicts contenders that stopped paying entirely
	// (e.g. their client vanished). Default 30s.
	InactivityTimeout time.Duration
	// SweepInterval is how often timeouts are checked. Default 1s.
	SweepInterval time.Duration
	// Shards sets the bid table's shard count (rounded up to a power
	// of two); 0 selects a GOMAXPROCS-scaled default. Shard count
	// tunes live-path concurrency only — auction outcomes, and hence
	// the deterministic simulation, are identical for any setting.
	Shards int
}

func (c Config) withDefaults() Config {
	if c.OrphanTimeout == 0 {
		c.OrphanTimeout = 10 * time.Second
	}
	if c.InactivityTimeout == 0 {
		c.InactivityTimeout = 30 * time.Second
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = time.Second
	}
	return c
}

// Stats counts thinner activity for the evaluation harness.
type Stats struct {
	Admitted       uint64 // requests handed to the server
	AdmittedDirect uint64 // of those, admitted with no auction (server free)
	Auctions       uint64 // auctions held
	Evicted        uint64 // payment channels terminated by timeout
	Shed           uint64 // arrivals refused during an origin brownout
	Brownouts      uint64 // times the origin-health ladder left HealthOK
	WastedBytes    int64  // payment bytes of evicted channels
	PaidBytes      int64  // payment bytes of auction winners (the prices)
}

// HealthState is the origin-health brownout ladder. The thinner's job
// during an origin outage is to keep its constituency intact: paying
// contenders keep their accumulated balances, admitted-but-unserved
// work is not abandoned, and new arrivals are shed fast with a
// retry-later signal instead of being stranded as waiters.
type HealthState int32

const (
	// HealthOK: the origin is answering; normal auction operation.
	HealthOK HealthState = iota
	// HealthStalled: the origin is unresponsive. Auctions pause (no
	// point admitting into a black hole), timeout evictions are held
	// (the outage is not the contenders' fault), and new arrivals are
	// shed with a retry signal.
	HealthStalled
	// HealthRecovering: the origin is back. Admissions and auctions
	// flow again, but evictions stay held for one OrphanTimeout of
	// grace so channels whose payment streams died during the outage
	// can re-establish before the sweep judges them.
	HealthRecovering
)

func (h HealthState) String() string {
	switch h {
	case HealthOK:
		return "ok"
	case HealthStalled:
		return "stalled"
	case HealthRecovering:
		return "recovering"
	}
	return fmt.Sprintf("HealthState(%d)", int32(h))
}

// Thinner is the virtual-auction front-end of §3.3.
//
// Wiring: the application layer calls RequestArrived, PaymentReceived,
// and ServerDone; the thinner invokes the callbacks to act. It does
// not encourage clients itself: a transport reads Busy and tells the
// client to pay (the live front's 402, the simulator's please reply).
// Control methods (RequestArrived, ServerDone, Stop, and the sweep
// timer) must be called from one goroutine (or under one lock);
// PaymentReceived — and crediting directly through the bid table's
// channels — is safe from any goroutine, which is what lets the live
// front sink payment bytes on every core while the auction stays
// single-threaded.
type Thinner struct {
	clock Clock
	cfg   Config
	table *BidTable
	busy  bool

	// reg is the thinner's only tally: admissions, evictions, bytes
	// charged, the going rate, the last winner and the health ladder's
	// state. Stats, GoingRate, LastWinner and Health read it; the live
	// front's /telemetry and /metrics stream it without the control
	// lock.
	reg metrics.Registry

	holdUntil time.Duration // HealthRecovering: evictions held until here
	lastSweep time.Duration // when the sweep chain last ticked (liveness probe)

	stopSweep func()
	sweepGen  uint64      // invalidates fired-but-unrun sweep timers on Reconfigure
	sweepIDs  []RequestID // reused eviction buffer; sweep is single-goroutine

	// Trace, if non-nil, receives sampled request-lifecycle events
	// (arrive, auction rounds, settle). Set it before traffic, from the
	// control goroutine. Nil — the default — skips everything,
	// including the clock reads the hooks would need.
	Trace *trace.Tracer

	// Admit delivers a request to the server; paid is the winning bid
	// in bytes (0 when the server was free — no auction needed).
	Admit func(id RequestID, paid int64)
	// Evict terminates a payment channel: the client should stop
	// sending. Called for auction winners (stop paying, you're in) and
	// for timed-out channels. wasted is true for timeouts.
	Evict func(id RequestID, paid int64, wasted bool)
	// Shed, if set, is told about requests refused during an origin
	// brownout (HealthStalled) so the application can answer
	// retry-later instead of leaving the client waiting.
	Shed func(id RequestID)
}

// NewThinner creates a virtual-auction thinner and starts its timeout
// sweeper on the given clock.
func NewThinner(clock Clock, cfg Config) *Thinner {
	cfg = cfg.withDefaults()
	t := &Thinner{clock: clock, cfg: cfg, table: NewBidTable(cfg.Shards)}
	t.lastSweep = clock.Now()
	// Align the table's inactivity wheel with the sweep's cutoff so
	// deadline checks fire exactly when channels come due.
	t.table.SetInactivityTimeout(cfg.InactivityTimeout)
	t.scheduleSweep()
	return t
}

// Table exposes the concurrent bid table (read-mostly; used by tests,
// the live-status endpoints, and the live front's payment hot path).
func (t *Thinner) Table() *BidTable { return t.table }

// Registry exposes the thinner's tally. Every counter and gauge is an
// atomic, so it may be read from any goroutine; the live front streams
// it on /telemetry and /metrics and its wire listener records into it.
func (t *Thinner) Registry() *metrics.Registry { return &t.reg }

// Stats returns the activity counters, read from the registry.
func (t *Thinner) Stats() Stats {
	s := t.reg.Snapshot()
	return Stats{
		Admitted:       s.Admitted,
		AdmittedDirect: s.AdmittedDirect,
		Auctions:       s.Auctions,
		Evicted:        s.Evicted,
		Shed:           s.Shed,
		Brownouts:      s.Brownouts,
		WastedBytes:    s.WastedBytes,
		PaidBytes:      s.PaidBytes,
	}
}

// Busy reports whether the server is occupied.
func (t *Thinner) Busy() bool { return t.busy }

// GoingRate returns the price of the most recent auction in bytes
// (§3.3: "the going rate for access is the winning bid from the most
// recent auction"). It is 0 before any auction.
func (t *Thinner) GoingRate() int64 { return t.reg.GoingPrice() }

// LastWinner returns the id of the most recent auction winner (0
// before any auction).
func (t *Thinner) LastWinner() RequestID { return RequestID(t.reg.LastWinner()) }

// Config returns the thinner's effective configuration (defaults
// applied, later Reconfigure calls included).
func (t *Thinner) Config() Config { return t.cfg }

// Reconfigure applies safe live configuration changes from the
// control goroutine: the two eviction timeouts and the sweep cadence.
// Zero fields keep their current value; negative ones are rejected. A
// Shards change is rejected — the bid table's shard count is fixed at
// construction (restart to change it) — except as a no-op restating
// the current count. The call is atomic: on error nothing changes.
//
// A shrunk InactivityTimeout takes full effect lazily: channels
// already scheduled on the inactivity wheel fire at their old
// deadline, where the sweep re-checks them against the new timeout —
// so an eviction can run late by at most the old timeout, never early.
func (t *Thinner) Reconfigure(cfg Config) error {
	next := t.cfg
	if cfg.OrphanTimeout < 0 || cfg.InactivityTimeout < 0 || cfg.SweepInterval < 0 {
		return fmt.Errorf("core: negative timeouts are invalid: %+v", cfg)
	}
	if cfg.Shards != 0 && cfg.Shards != t.table.Shards() {
		return fmt.Errorf("core: shard count is fixed at construction (have %d, asked %d); restart the thinner to resize the bid table",
			t.table.Shards(), cfg.Shards)
	}
	if cfg.OrphanTimeout != 0 {
		next.OrphanTimeout = cfg.OrphanTimeout
	}
	if cfg.InactivityTimeout != 0 {
		next.InactivityTimeout = cfg.InactivityTimeout
	}
	if cfg.SweepInterval != 0 {
		next.SweepInterval = cfg.SweepInterval
	}
	t.cfg = next
	t.table.UpdateInactivityTimeout(next.InactivityTimeout)
	if t.stopSweep != nil {
		// Restart the sweep chain at the new cadence. The old timer may
		// already have fired and be blocked on the control mutex we hold;
		// bumping the generation makes that stale callback a no-op
		// instead of a second concurrent chain.
		t.stopSweep()
		t.sweepGen++
		t.scheduleSweep()
	}
	return nil
}

// Stop cancels the timeout sweeper.
func (t *Thinner) Stop() {
	if t.stopSweep != nil {
		t.stopSweep()
		t.stopSweep = nil
	}
}

// Health returns the origin-health brownout state. It only moves on the
// control path, so a reader that must act on it consistently (shed an
// arrival, refuse a reconfiguration) reads it under the control lock.
func (t *Thinner) Health() HealthState { return HealthState(t.reg.Health()) }

// LastSweepAge returns how long ago the timeout sweeper last ticked —
// the /healthz liveness signal for the sweep chain.
func (t *Thinner) LastSweepAge() time.Duration { return t.clock.Now() - t.lastSweep }

// SetOriginStalled moves the brownout ladder: true enters
// HealthStalled (auctions pause, arrivals shed, evictions held);
// false begins HealthRecovering — a deferred auction runs immediately
// if the origin is free, and evictions stay held for one
// OrphanTimeout of grace before the sweep returns to HealthOK.
// Call it from the control path, like RequestArrived.
func (t *Thinner) SetOriginStalled(stalled bool) {
	if stalled {
		if t.Health() == HealthStalled {
			return
		}
		t.reg.RecordBrownout(int32(HealthStalled))
		return
	}
	if t.Health() != HealthStalled {
		return
	}
	t.reg.RecordHealth(int32(HealthRecovering))
	t.holdUntil = t.clock.Now() + t.cfg.OrphanTimeout
	if !t.busy {
		// The auction the brownout deferred: contenders kept paying
		// into the held table; settle the backlog now.
		t.auctionNext()
	}
}

// ShedArrival records one refused-during-brownout arrival. The live
// front calls it directly (it answers the HTTP side itself);
// RequestArrived uses it for the simulator path.
func (t *Thinner) ShedArrival(id RequestID) {
	t.reg.RecordShed(uint64(id))
	if t.Trace != nil {
		t.Trace.OnShed(uint64(id), t.clock.Now())
	}
}

// RequestArrived processes a client request message. If the server is
// free it is admitted immediately; otherwise the client becomes an
// eligible contender whose payments count toward the next auction.
// During an origin brownout the request is shed instead: stranding it
// as a waiter would just grow a queue the origin cannot drain.
func (t *Thinner) RequestArrived(id RequestID) {
	if t.Health() == HealthStalled {
		t.ShedArrival(id)
		if t.Shed != nil {
			t.Shed(id)
		}
		return
	}
	if t.Trace != nil {
		t.Trace.OnArrive(uint64(id), t.clock.Now())
	}
	if !t.busy {
		t.busy = true
		// Any pre-paid bytes count as its price.
		paid := t.table.Remove(id, ChanAdmitted)
		t.reg.RecordAdmit(uint64(id), paid, false)
		if t.Trace != nil {
			t.Trace.OnAdmit(uint64(id), paid, t.clock.Now(), false)
		}
		if t.Admit != nil {
			t.Admit(id, paid)
		}
		return
	}
	t.table.MarkEligible(id, t.clock.Now())
}

// PaymentReceived credits bytes to id. Payment may arrive before the
// request message; such entries are orphans until the request shows up
// and are evicted after OrphanTimeout.
func (t *Thinner) PaymentReceived(id RequestID, bytes int64) {
	now := t.clock.Now()
	t.table.Credit(id, bytes, now)
	t.Trace.OnCredit(uint64(id), bytes, now, trace.TransportSim)
}

// ServerDone signals that the server finished a request. The thinner
// holds the virtual auction: the highest-paid eligible contender is
// admitted and its payment channel terminated. During an origin
// brownout the auction is deferred — contenders keep their balances
// and the settle runs when SetOriginStalled(false) reopens the floor.
func (t *Thinner) ServerDone() {
	t.busy = false
	if t.Health() == HealthStalled {
		return
	}
	t.auctionNext()
}

func (t *Thinner) auctionNext() {
	start := t.clock.Now()
	id, _, ok := t.table.Winner()
	if !ok {
		return // no contenders; server idles until the next request
	}
	// Remove's balance is the authoritative price: in live mode,
	// payment chunks may land between the scan and the settle. (In the
	// single-threaded simulator the two are always equal.)
	paid := t.table.Remove(id, ChanAdmitted)
	t.busy = true
	t.reg.RecordAdmit(uint64(id), paid, true)
	if t.Trace != nil {
		now := t.clock.Now()
		t.Trace.OnAuction(uint64(id), now) // losers accrue a lost round
		t.Trace.OnAdmit(uint64(id), paid, now, true)
	}
	if t.Evict != nil {
		t.Evict(id, paid, false)
	}
	if t.Admit != nil {
		t.Admit(id, paid)
	}
	// Full settle cost: winner selection through the callbacks that
	// release the admitted waiter.
	t.reg.Latency().AuctionLatency.Observe(t.clock.Now() - start)
}

func (t *Thinner) scheduleSweep() {
	gen := t.sweepGen
	t.stopSweep = t.clock.After(t.cfg.SweepInterval, func() {
		if t.sweepGen != gen {
			return // Reconfigure restarted the chain after this timer fired
		}
		t.sweep()
		t.scheduleSweep()
	})
}

// sweep evicts orphaned payment channels and inactive contenders. The
// table's expiry indexes (creation-ordered orphan lists, inactivity
// timing wheel) surface only the channels actually due, so a tick
// costs O(due), not O(table). The shard collection order is
// arbitrary, so each class is sorted by id to keep eviction order —
// and everything the Evict callbacks schedule — deterministic across
// runs. The id buffer is reused tick to tick: steady-state sweeps
// allocate nothing.
func (t *Thinner) sweep() {
	now := t.clock.Now()
	t.lastSweep = now
	switch t.Health() {
	case HealthStalled:
		// Hold everything: the outage is the origin's fault, not the
		// contenders'. Balances and waiters survive untouched.
		return
	case HealthRecovering:
		if now < t.holdUntil {
			return // grace window: let payment streams re-establish
		}
		t.reg.RecordHealth(int32(HealthOK))
	}
	ids := t.sweepIDs[:0]
	ids = t.table.DueOrphans(ids, now-t.cfg.OrphanTimeout)
	n := len(ids)
	slices.Sort(ids[:n])
	ids = t.table.DueInactive(ids, now, now-t.cfg.InactivityTimeout)
	slices.Sort(ids[n:])
	for _, id := range ids {
		paid := t.table.Remove(id, ChanEvicted)
		t.reg.RecordEvict(uint64(id), paid)
		if t.Trace != nil {
			t.Trace.OnEvict(uint64(id), paid, now)
		}
		if t.Evict != nil {
			t.Evict(id, paid, true)
		}
	}
	t.sweepIDs = ids[:0]
}
