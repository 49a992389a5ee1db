// Package clients models the request-generation behaviour of the
// paper's custom Python clients (§7.1).
//
// A Pacer decides when each request arrives and how many may be
// outstanding; excess arrivals wait in a backlog queue and are logged
// as service denials after 10 seconds. The paper's clients are the
// adversary package's poisson strategy: Poisson arrivals at rate λ
// with a window w, λ=2, w=1 for good clients and λ=40, w=20 for bad
// ones. The package is transport-independent: the Issue callback
// starts the actual protocol exchange, and the transport reports
// completions back via RequestServed or RequestFailed. The simulator
// (internal/appsim) runs it over virtual time, and the live load
// generator (internal/loadgen) over a core.WallClock.
package clients

import (
	"math/rand"
	"time"

	"speakup/internal/core"
	"speakup/internal/faults"
)

// Pacer drives arrival pacing and windowing; the adversary strategies
// (internal/adversary) implement it. Gap draws
// the next inter-arrival gap (all randomness must come from rng, so
// the client stays a pure function of its seed); Window returns the
// outstanding-request cap in force at now — it may change over time
// (e.g. collapse to 0 between bursts).
type Pacer interface {
	Gap(now time.Duration, rng *rand.Rand) time.Duration
	Window(now time.Duration) int
}

// Config parameterizes one client.
type Config struct {
	// Pacer draws the arrival gaps and sets the window. Required.
	Pacer Pacer
	// BacklogTimeout denies queued requests after this long. Default 10s.
	BacklogTimeout time.Duration
	// Seed seeds this client's arrival process.
	Seed int64

	// RetryBudget, when positive, re-issues a failed request up to
	// this many times with jittered exponential backoff before
	// counting it Failed — the hardened-client behaviour fault plans
	// assume. Zero (the default) fails immediately, preserving the
	// original model and its goldens.
	RetryBudget int
	// RetryBackoff tunes the retry pacing (zero fields take the
	// faults package defaults: 200ms base, 5s cap).
	RetryBackoff faults.Backoff
	// Deadline abandons a request still outstanding after this long:
	// the Abandon callback (or, absent one, the failure path) runs,
	// freeing the window slot instead of letting a stranded transport
	// pin it forever. Zero disables deadlines.
	Deadline time.Duration
}

func (c Config) withDefaults() Config {
	if c.BacklogTimeout == 0 {
		c.BacklogTimeout = 10 * time.Second
	}
	return c
}

// Stats counts per-client workload outcomes.
type Stats struct {
	Generated uint64 // arrivals
	Issued    uint64 // handed to the transport (fresh requests)
	Served    uint64
	Failed    uint64 // explicit failures (e.g. OFF-mode busy replies)
	Denied    uint64 // backlog timeouts (the paper's "service denial")
	Retried   uint64 // failed attempts re-issued under the retry budget
	Abandoned uint64 // attempts that hit the per-request deadline
}

// Offered returns the demand the client actually presented: requests
// that were issued or died waiting.
func (s Stats) Offered() uint64 { return s.Issued + s.Denied }

type backlogEntry struct {
	id       core.RequestID
	enqueued time.Duration
}

// Client is one workload generator.
type Client struct {
	clock core.Clock
	cfg   Config
	rng   *rand.Rand

	outstanding int
	// backlog[head:] is the queue, oldest first. Popping advances head;
	// a push into a full array shifts the queue down to the front if at
	// least half of the array is popped, and grows it otherwise. So the
	// copies cost O(1) per arrival, and a steady arrival and completion
	// rate reuses one array.
	backlog   []backlogEntry
	head      int
	nextID    func() core.RequestID
	stats     Stats
	stopped   bool
	arrival   core.Timer
	arrivalFn func() // built once; rescheduled every arrival

	retries   map[core.RequestID]int        // attempts burned per in-flight id (retry mode only)
	backoffs  map[core.RequestID]core.Timer // pending retries (retry mode only)
	deadlines map[core.RequestID]core.Timer // pending deadlines (deadline mode only)

	// Issue starts the protocol exchange for a fresh request.
	Issue func(id core.RequestID)
	// OnDenial, if set, observes backlog timeouts.
	OnDenial func(id core.RequestID)
	// Abandon, if set, is called when a request hits its Deadline so
	// the transport can tear down its half-open exchange; the
	// transport must then report RequestFailed (which may retry).
	// Without it the deadline fails the request directly.
	Abandon func(id core.RequestID)
}

// New creates a client. nextID must return process-unique request IDs
// (the scenario shares one counter across all clients). Call Start to
// begin generating.
func New(clock core.Clock, cfg Config, nextID func() core.RequestID) *Client {
	if cfg.Pacer == nil {
		panic("clients: Pacer required")
	}
	if nextID == nil {
		panic("clients: nextID required")
	}
	c := &Client{
		clock:  clock,
		cfg:    cfg.withDefaults(),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		nextID: nextID,
	}
	c.arrivalFn = func() {
		c.arrive()
		c.scheduleArrival()
	}
	return c
}

// Stats returns a copy of the workload counters.
func (c *Client) Stats() Stats { return c.stats }

// Outstanding returns the number of requests in flight.
func (c *Client) Outstanding() int { return c.outstanding }

// BacklogLen returns the number of queued requests.
func (c *Client) BacklogLen() int { return len(c.backlog) - c.head }

// Start begins the arrival process.
func (c *Client) Start() {
	c.scheduleArrival()
}

// Stop halts request generation. Outstanding requests may still
// complete and be counted, but are not retried, and the backlog is
// not issued; a request waiting out a retry backoff counts Failed now.
func (c *Client) Stop() {
	c.stopped = true
	c.arrival.Stop()
	c.arrival = core.Timer{}
	for id, backoff := range c.backoffs {
		backoff.Stop()
		delete(c.backoffs, id)
		delete(c.retries, id)
		c.stats.Failed++
		c.completeOne()
	}
}

func (c *Client) scheduleArrival() {
	if c.stopped {
		return
	}
	gap := c.cfg.Pacer.Gap(c.clock.Now(), c.rng)
	c.arrival = c.clock.After(gap, c.arrivalFn)
}

// window returns the cap in force now.
func (c *Client) window() int { return c.cfg.Pacer.Window(c.clock.Now()) }

func (c *Client) arrive() {
	c.stats.Generated++
	c.expireBacklog()
	id := c.nextID()
	if c.outstanding < c.window() {
		c.issue(id)
		return
	}
	if len(c.backlog) == cap(c.backlog) && 2*c.head >= len(c.backlog) && c.head > 0 {
		c.backlog = c.backlog[:copy(c.backlog, c.backlog[c.head:])]
		c.head = 0
	}
	c.backlog = append(c.backlog, backlogEntry{id: id, enqueued: c.clock.Now()})
}

// popBacklog removes and returns the oldest queued arrival.
func (c *Client) popBacklog() backlogEntry {
	e := c.backlog[c.head]
	c.head++
	if c.head == len(c.backlog) {
		c.backlog, c.head = c.backlog[:0], 0
	}
	return e
}

func (c *Client) issue(id core.RequestID) {
	c.outstanding++
	c.stats.Issued++
	if c.Issue != nil {
		c.Issue(id)
	}
	c.armDeadline(id)
}

func (c *Client) armDeadline(id core.RequestID) {
	if c.cfg.Deadline <= 0 {
		return
	}
	if c.deadlines == nil {
		c.deadlines = make(map[core.RequestID]core.Timer)
	}
	c.deadlines[id] = c.clock.After(c.cfg.Deadline, func() {
		delete(c.deadlines, id)
		c.stats.Abandoned++
		if c.Abandon != nil {
			c.Abandon(id) // transport tears down, then reports RequestFailed
			return
		}
		c.RequestFailed(id, 0)
	})
}

func (c *Client) disarmDeadline(id core.RequestID) {
	if deadline, ok := c.deadlines[id]; ok {
		deadline.Stop()
		delete(c.deadlines, id)
	}
}

// expireBacklog denies queue entries older than the timeout. Entries
// are appended in arrival order, so enqueue times are monotonic and
// the expired set is always a prefix: the scan stops at the first
// still-fresh entry instead of walking the whole backlog (bad clients
// run hundreds deep, and this runs on every arrival and completion).
func (c *Client) expireBacklog() {
	cutoff := c.clock.Now() - c.cfg.BacklogTimeout
	for c.head < len(c.backlog) && c.backlog[c.head].enqueued <= cutoff {
		e := c.popBacklog()
		c.stats.Denied++
		if c.OnDenial != nil {
			c.OnDenial(e.id)
		}
	}
}

// RequestServed reports a completed request; a backlog entry (if any)
// is issued in its place.
func (c *Client) RequestServed(id core.RequestID) {
	c.disarmDeadline(id)
	if c.retries != nil {
		delete(c.retries, id)
	}
	c.stats.Served++
	c.completeOne()
}

// RequestFailed reports an explicitly failed request attempt (an
// OFF-mode drop, a crashed origin, an abandoned deadline). With a
// retry budget the request is re-issued after a jittered exponential
// backoff, or after floor if that is longer (a server's Retry-After;
// the simulator passes 0). Its window slot stays held, so a retrying
// client offers no more concurrency than a healthy one. Budget
// exhausted (or no budget), the request is counted Failed and the
// slot freed. RequestFailed reports whether the request will be
// re-issued.
func (c *Client) RequestFailed(id core.RequestID, floor time.Duration) (retrying bool) {
	c.disarmDeadline(id)
	if c.cfg.RetryBudget > 0 && !c.stopped {
		if c.retries == nil {
			c.retries = make(map[core.RequestID]int)
			c.backoffs = make(map[core.RequestID]core.Timer)
		}
		attempt := c.retries[id]
		if attempt < c.cfg.RetryBudget {
			c.retries[id] = attempt + 1
			c.stats.Retried++
			delay := max(c.cfg.RetryBackoff.Delay(attempt, c.rng), floor)
			c.backoffs[id] = c.clock.After(delay, func() {
				delete(c.backoffs, id)
				if c.Issue != nil {
					c.Issue(id)
				}
				c.armDeadline(id)
			})
			return true
		}
		delete(c.retries, id)
	}
	c.stats.Failed++
	c.completeOne()
	return false
}

func (c *Client) completeOne() {
	if c.outstanding > 0 {
		c.outstanding--
	}
	c.expireBacklog()
	for !c.stopped && c.outstanding < c.window() && c.head < len(c.backlog) {
		c.issue(c.popBacklog().id)
	}
}
