// Package core implements speak-up's central mechanism: the thinner.
//
// The thinner is the front-end the paper places before a protected
// server (§3). It performs *encouragement* — causing clients to send
// payment bytes when the server is overloaded, which the transports
// carry out on the policy's behalf — and *proportional allocation* —
// admitting, each time the server frees up, the contending request
// that has paid the most (the virtual auction of §3.3). Given a
// quantum, the same Thinner is the §5 scheduler for unequal requests,
// which runs that auction once per quantum; both keep their payments
// in one book, the BidTable. The package also implements the
// random-drop/aggressive-retry variant of §3.2, the no-defense
// pass-through baseline used by the paper's "OFF" experiments, and the
// §8.1 address profile.
//
// The three admission policies share one Policy interface and one set
// of Callbacks. They are transport-independent: one admission front
// (internal/front) runs the same state machines for the discrete-event
// simulation (internal/appsim) and the real-socket listeners
// (internal/web, internal/wire). Only payment runs concurrently:
// transports credit chunks through a cached PayChan from any
// goroutine, with no lock. A policy's arrivals, auctions,
// admissions and sweeps must be serialized by the caller; the live
// front holds its control mutex for them (see the BidTable's
// concurrency contract in bidtable.go).
package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
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
	// After schedules fn after d and returns a handle that cancels it.
	After(d time.Duration, fn func()) Timer
}

// Timer is a handle to a callback scheduled with Clock.After. It is a
// small value, so a clock whose timers need no state of their own (the
// simulator's) hands one out without allocating. The zero Timer refers
// to nothing.
type Timer struct {
	c  TimerCanceler
	id uint64
}

// TimerCanceler is the part of a Clock that cancels its timers: id is
// whatever the clock stored in the Timer with NewTimer.
type TimerCanceler interface {
	CancelTimer(id uint64)
}

// NewTimer returns a Timer that Stop cancels by calling c.CancelTimer(id).
func NewTimer(c TimerCanceler, id uint64) Timer { return Timer{c: c, id: id} }

// Stop cancels the callback if it has not run yet. Stopping the zero
// Timer, or one that already ran or was stopped, does nothing.
func (t Timer) Stop() {
	if t.c != nil {
		t.c.CancelTimer(t.id)
	}
}

// WallClock is Clock over real time: Now is the time since Epoch, and
// each After callback runs under Mu, so it serializes with the
// caller's other work on the state Mu guards. A cancelled callback
// never runs, even one already waiting for Mu, as on a virtual clock.
type WallClock struct {
	Mu    *sync.Mutex
	Epoch time.Time
}

// Now implements Clock.
func (c *WallClock) Now() time.Duration { return time.Since(c.Epoch) }

// After implements Clock.
func (c *WallClock) After(d time.Duration, fn func()) Timer {
	w := &wallTimer{}
	w.t = time.AfterFunc(d, func() {
		c.Mu.Lock()
		defer c.Mu.Unlock()
		if !w.cancelled.Load() {
			fn()
		}
	})
	return NewTimer(w, 0)
}

// wallTimer is one WallClock timer: the flag is what keeps a callback
// already waiting for Mu from running once cancelled.
type wallTimer struct {
	t         *time.Timer
	cancelled atomic.Bool
}

// CancelTimer implements TimerCanceler.
func (w *wallTimer) CancelTimer(uint64) {
	w.cancelled.Store(true)
	w.t.Stop()
}

// Policy is an admission policy: the Thinner (§3.3, or §5 with a
// Quantum), RandomDrop (§3.2) or PassThrough (no defense). The
// admission front (internal/front) feeds it arrivals and completions
// and acts on its Callbacks, all from one goroutine or under one lock.
// Payment does not pass through it: transports credit the Thinner's
// payment channels directly, and the baselines take none.
type Policy interface {
	// RequestArrived offers a request to the policy and returns its
	// verdict: ArriveOK when it is admitted, held or queued, ArriveShed
	// during a brownout or from a busy pass-through, ArriveRetry when
	// random drop drops it (a lost coin toss or a full queue).
	RequestArrived(id RequestID) ArriveVerdict
	// ServerDone reports that the server finished (or lost) id.
	ServerDone(id RequestID)
	// Busy reports whether an arriving request should be told to pay
	// instead of being offered to RequestArrived.
	Busy() bool
	// Stats returns the activity counters.
	Stats() Stats
	// SetCallbacks installs the callbacks the policy acts through.
	SetCallbacks(cb Callbacks)
}

// Callbacks are how a Policy acts. Nil callbacks are skipped.
type Callbacks struct {
	// Admit hands id to the server: start it, or resume it if the
	// server holds suspended work for it (§5). paid is its price: the
	// winning bid, or on a direct admission to a free server whatever
	// it paid beforehand.
	Admit func(id RequestID, paid int64)
	// Evict ends id's payment: the client should stop sending. paid is
	// its price; wasted is true when it will not be served (a timeout
	// or a §5 abort). A served request's payment ends at admission, or
	// under §5, which charges it every quantum, at completion.
	Evict func(id RequestID, paid int64, wasted bool)
	// Suspend pauses the request holding the server so a higher bid
	// can take it (§5).
	Suspend func(id RequestID)
	// Done delivers id's response. ServerDone calls it after settling
	// id's price and before admitting the next request.
	Done func(id RequestID)
}

// SetCallbacks replaces c with cb; every policy embeds Callbacks, so
// this implements Policy.SetCallbacks for all of them.
func (c *Callbacks) SetCallbacks(cb Callbacks) { *c = cb }

func (c *Callbacks) done(id RequestID) {
	if c.Done != nil {
		c.Done(id)
	}
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
	// Quantum, if positive, makes the thinner the §5 scheduler, with
	// the sweep and its auction run every Quantum (the paper's τ)
	// instead of every SweepInterval. Fixed at construction.
	Quantum time.Duration
	// AbortAfter aborts §5 requests suspended this long. Default 30s.
	AbortAfter time.Duration
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
	if c.AbortAfter == 0 {
		c.AbortAfter = 30 * time.Second
	}
	return c
}

// Stats counts an admission policy's activity: the counters declared
// in internal/metrics, read from the policy's registry.
type Stats = metrics.Counters

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

// Thinner is the virtual-auction front-end of §3.3 and, with a
// Config.Quantum, the §5 scheduler for unequal requests.
//
// Wiring: the application layer calls RequestArrived and ServerDone;
// the thinner invokes the callbacks to act. It does not encourage
// clients itself: the admission front (internal/front) reads Busy and
// has the transport tell the client to pay (the live front's 402, the
// simulator's please reply).
// Control methods (RequestArrived, ServerDone, Stop, and the sweep
// timer) must be called from one goroutine (or under one lock);
// crediting through the bid table's channels is safe from any
// goroutine, which is what lets the live front sink payment bytes on
// every core while the auction stays single-threaded. Under §5 the
// sweep runs the auction every quantum and also aborts requests
// suspended longer than AbortAfter.
type Thinner struct {
	Callbacks

	clock Clock
	cfg   Config
	// timed is set on a WallClock: only real time gives the auction
	// latency a meaning, so only then is it measured.
	timed  bool
	table  *BidTable
	busy   bool
	active RequestID // §5: the request holding the server, while busy

	// suspended lists the §5 requests the server holds suspended,
	// oldest first, so the sweep's aborts are a prefix.
	suspended []suspension

	// reg is the thinner's only tally: admissions, evictions, bytes
	// charged, the going rate, the last winner and the health ladder's
	// state. Stats, GoingRate, LastWinner and Health read it; the live
	// front's /telemetry and /metrics stream it without the control
	// lock.
	reg metrics.Registry

	holdUntil time.Duration // HealthRecovering: evictions held until here
	lastSweep time.Duration // when the sweep chain last ticked (liveness probe)

	sweepTimer Timer       // the pending sweep; zero once Stop ends the chain
	sweepGen   uint64      // invalidates fired-but-unrun sweep timers on Reconfigure
	sweepIDs   []RequestID // reused eviction buffer; sweep is single-goroutine

	// Trace, if non-nil, receives sampled request-lifecycle events
	// (arrive, auction rounds, settle). Set it before traffic, from the
	// control goroutine. Nil — the default — skips everything,
	// including the clock reads the hooks would need.
	Trace *trace.Tracer
}

type suspension struct {
	id RequestID
	at time.Duration
}

// NewThinner creates a virtual-auction thinner and starts its timeout
// sweeper on the given clock.
func NewThinner(clock Clock, cfg Config) *Thinner {
	cfg = cfg.withDefaults()
	t := &Thinner{clock: clock, cfg: cfg, table: NewBidTable(cfg.Shards)}
	_, t.timed = clock.(*WallClock)
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
func (t *Thinner) Stats() Stats { return t.reg.Snapshot().Counters }

// Busy reports whether an arrival must pay: the server is occupied,
// or the thinner runs §5, where every request wins its quanta by
// auction and none reaches the server for free.
func (t *Thinner) Busy() bool { return t.busy || t.cfg.Quantum > 0 }

// Config returns the thinner's effective configuration (defaults
// applied, later Reconfigure calls included).
func (t *Thinner) Config() Config { return t.cfg }

// Reconfigure applies safe live configuration changes from the
// control goroutine: the two eviction timeouts and the sweep cadence.
// Zero fields keep their current value; negative ones are rejected. A
// Shards, Quantum or AbortAfter change is rejected — they are fixed at
// construction (restart to change them) — except as a no-op restating
// the current value. The call is atomic: on error nothing changes.
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
	if (cfg.Quantum != 0 && cfg.Quantum != t.cfg.Quantum) || (cfg.AbortAfter != 0 && cfg.AbortAfter != t.cfg.AbortAfter) {
		return fmt.Errorf("core: the §5 quantum and abort timeout are fixed at construction: %+v", cfg)
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
	if t.sweepTimer != (Timer{}) {
		// Restart the sweep chain at the new cadence. The old timer may
		// already have fired and be blocked on the control mutex we hold;
		// bumping the generation makes that stale callback a no-op
		// instead of a second concurrent chain.
		t.sweepTimer.Stop()
		t.sweepGen++
		t.scheduleSweep()
	}
	return nil
}

// Stop cancels the timeout sweeper.
func (t *Thinner) Stop() {
	t.sweepTimer.Stop()
	t.sweepTimer = Timer{}
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
		t.reg.RecordBrownout(int64(HealthStalled))
		return
	}
	if t.Health() != HealthStalled {
		return
	}
	t.reg.RecordHealth(int64(HealthRecovering))
	t.holdUntil = t.clock.Now() + t.cfg.OrphanTimeout
	if !t.busy {
		// The auction the brownout deferred: contenders kept paying
		// into the held table; settle the backlog now.
		t.reopen()
	}
}

// shed records one refused-during-brownout arrival.
func (t *Thinner) shed(id RequestID) {
	t.reg.RecordShed()
	if t.Trace != nil {
		t.Trace.OnShed(uint64(id), t.clock.Now())
	}
}

// RequestArrived processes a client request message. If the server is
// free it is admitted immediately; otherwise the client becomes an
// eligible contender whose payments count toward the next auction.
// Either way the verdict is ArriveOK. During an origin brownout the
// request is shed instead (ArriveShed): stranding it as a waiter would
// just grow a queue the origin cannot drain.
func (t *Thinner) RequestArrived(id RequestID) ArriveVerdict {
	if t.Health() == HealthStalled {
		t.shed(id)
		return ArriveShed
	}
	if t.Trace != nil {
		t.Trace.OnArrive(uint64(id), t.clock.Now())
	}
	if !t.Busy() {
		t.busy, t.active = true, id
		paid := t.settle(id, true) // any pre-paid bytes count as its price
		if t.Trace != nil {
			t.Trace.OnAdmit(uint64(id), paid, t.clock.Now(), false)
		}
		if t.Admit != nil {
			t.Admit(id, paid)
		}
		return ArriveOK
	}
	t.table.MarkEligible(id, t.clock.Now())
	return ArriveOK
}

// ServerDone signals that the server finished id. Under §5 the thinner
// first settles id's lifetime price. Then it reopens the floor: the
// highest-paid eligible contender is admitted. During an origin
// brownout that is deferred — contenders keep their balances and the
// settle runs when SetOriginStalled(false) reopens the floor.
func (t *Thinner) ServerDone(id RequestID) {
	if t.cfg.Quantum > 0 {
		if !t.busy || t.active != id {
			return
		}
		paid := t.settle(id, false)
		if t.Trace != nil { // settle the trace slot its charged payment opened
			t.Trace.OnAdmit(uint64(id), paid, t.clock.Now(), true)
		}
	}
	t.busy = false
	t.done(id)
	if t.Health() == HealthStalled {
		return
	}
	t.reopen()
}

// reopen fills a free server: §3.3 holds the auction now; §5 runs its
// quantum procedure at once rather than idle until the next tick.
func (t *Thinner) reopen() {
	if t.cfg.Quantum > 0 {
		t.sweep()
		return
	}
	t.auction(t.clock.Now())
}

// settle ends served request id's payment. Remove's balance is the
// authoritative price: live payment chunks may land between the
// auction's scan and the settle (in the simulator the two are equal).
func (t *Thinner) settle(id RequestID, direct bool) int64 {
	paid := t.table.Remove(id, ChanAdmitted)
	t.reg.RecordAdmit(paid, direct)
	if t.Evict != nil {
		t.Evict(id, paid, false)
	}
	return paid
}

// auction admits the top contender u: under §3.3 when the server frees
// up, settling u's payment; under §5 every quantum, charging u, which
// pays on until its service completes. A §5 request v holding the
// server loses it only to a bid above what v paid since its last
// charge: v is then suspended and bids with that payment; otherwise
// it is charged for the next quantum (for free if nobody contends).
func (t *Thinner) auction(now time.Duration) {
	// The settle is timed on the wall clock, and only when the thinner
	// runs on one: a virtual clock does not move inside a callback, and
	// the wall time a simulated auction takes means nothing there.
	// Nothing but the latency histogram reads the measurement.
	var start time.Time
	if t.timed {
		start = time.Now()
	}
	u, uPaid, ok := t.table.Winner()
	if !ok {
		return // no contenders; server idles until the next request
	}
	if t.busy { // §5 only: §3.3 auctions a free server
		v := t.active
		if uPaid <= t.table.Balance(v) {
			t.table.Charge(v, now)
			return
		}
		t.busy = false
		t.suspended = append(t.suspended, suspension{v, now})
		t.table.MarkEligible(v, now)
		if t.Suspend != nil {
			t.Suspend(v)
		}
	}
	var paid int64
	if t.cfg.Quantum > 0 {
		paid = t.table.Charge(u, now)
	} else {
		paid = t.settle(u, false)
	}
	t.busy, t.active = true, u
	t.unsuspend(u)
	t.reg.RecordAuction(uint64(u), paid)
	if t.Trace != nil {
		t.Trace.OnAuction(uint64(u), now) // losers accrue a lost round
		t.Trace.OnAdmit(uint64(u), paid, now, true)
	}
	if t.Admit != nil {
		t.Admit(u, paid)
	}
	// Full settle cost: winner selection through the callbacks that
	// release the admitted waiter.
	if t.timed {
		t.reg.Latency().AuctionLatency.Observe(time.Since(start))
	}
}

func (t *Thinner) scheduleSweep() {
	gen := t.sweepGen
	every := t.cfg.SweepInterval
	if t.cfg.Quantum > 0 {
		every = t.cfg.Quantum
	}
	t.sweepTimer = t.clock.After(every, func() {
		if t.sweepGen != gen {
			return // Reconfigure restarted the chain after this timer fired
		}
		t.sweep()
		t.scheduleSweep()
	})
}

// sweep evicts orphaned payment channels and inactive contenders and,
// under §5, aborts requests suspended for AbortAfter and then runs the
// quantum's auction. The table's expiry indexes (creation-ordered
// orphan lists, inactivity timing wheel) surface only the channels
// actually due, so a tick costs O(due), not O(table). The shard
// collection order is arbitrary, so each class is sorted by id to keep
// eviction order — and everything the Evict callbacks schedule —
// deterministic across runs. The id buffer is reused tick to tick:
// steady-state sweeps allocate nothing.
func (t *Thinner) sweep() {
	now := t.clock.Now()
	t.lastSweep = now
	switch t.Health() {
	case HealthStalled:
		// Hold everything: the outage is the origin's fault, not the
		// contenders'. Balances and waiters survive untouched, and no
		// quantum is admitted into a black hole.
		return
	case HealthRecovering:
		if now < t.holdUntil {
			// Grace window: let payment streams re-establish.
			if t.cfg.Quantum > 0 {
				t.auction(now)
			}
			return
		}
		t.reg.RecordHealth(int64(HealthOK))
	}
	ids := t.sweepIDs[:0]
	for _, s := range t.suspended {
		if now-s.at < t.cfg.AbortAfter {
			break
		}
		ids = append(ids, s.id)
	}
	// Aborts go first: evicting them unlinks their channels, so the
	// inactivity wheel below cannot return them a second time.
	slices.Sort(ids)
	t.evict(ids, now)
	ids = t.table.DueOrphans(ids[:0], now-t.cfg.OrphanTimeout)
	n := len(ids)
	slices.Sort(ids[:n])
	ids = t.table.DueInactive(ids, now, now-t.cfg.InactivityTimeout)
	slices.Sort(ids[n:])
	t.evict(ids, now)
	t.sweepIDs = ids[:0]
	if t.cfg.Quantum > 0 {
		t.auction(now)
	}
}

// evict times out each of ids. A suspended request's eviction is its
// §5 abort, and its price includes every quantum it was charged.
func (t *Thinner) evict(ids []RequestID, now time.Duration) {
	for _, id := range ids {
		t.unsuspend(id)
		paid := t.table.Remove(id, ChanEvicted)
		t.reg.RecordEvict(paid)
		if t.Trace != nil {
			t.Trace.OnEvict(uint64(id), paid, now)
		}
		if t.Evict != nil {
			t.Evict(id, paid, true)
		}
	}
}

func (t *Thinner) unsuspend(id RequestID) {
	t.suspended = slices.DeleteFunc(t.suspended, func(s suspension) bool { return s.id == id })
}
