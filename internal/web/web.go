// Package web implements speak-up's thinner as a real network front-end
// over net/http — the production counterpart of the paper's OKWS
// prototype (§6).
//
// Protocol (mirroring the JavaScript flow the paper describes):
//
//	GET  /request?id=N            the client's request. If the origin is
//	                              free it is served directly. If busy,
//	                              the thinner replies 402 with
//	                              Speakup-Action: pay.
//	GET  /request?id=N&wait=1     the re-issued actual request; held open
//	                              until N wins an auction and the origin
//	                              responds.
//	POST /pay?id=N                the payment channel: the thinner sinks
//	                              and counts the dummy body bytes. The
//	                              response tells the client to continue
//	                              with another POST, that it was
//	                              admitted, or that it was evicted.
//	GET  /stats                   JSON counters.
//	GET  /telemetry               NDJSON stream of periodic snapshots
//	                              (?interval=500ms tunes the cadence).
//	GET  /control/config          the thinner's effective configuration
//	                              (the scenario schema's thinner section)
//	                              plus its canonical config_hash, the
//	                              identity fleet rollouts converge on.
//	POST /control/config          live reconfiguration: a thinner section
//	                              whose zero fields mean "unchanged".
//	                              Timeouts and the sweep cadence apply
//	                              atomically; a shard-count change is
//	                              rejected with 400, and any patch is
//	                              refused with 503 + Retry-After while
//	                              the origin is browned out (a patch
//	                              applied mid-brownout is indistinguishable
//	                              from the patch causing it).
//
// Ingest architecture: the whole point of speak-up is that the thinner
// absorbs far more traffic than the origin serves, so the payment path
// must scale with cores. Each /pay stream resolves its request's
// payment channel once in the sharded core.BidTable and then credits
// every chunk through that channel's atomics — no locks, no
// allocation, no sharing beyond its shard. Admission and eviction are
// published by compare-and-swapping the channel's state word, which
// in-flight POSTs observe between chunks. Only the rare control events
// — request arrival, the auction when the origin frees up, the timeout
// sweep — serialize on a small mutex, preserving the thinner core's
// single-threaded auction semantics.
package web

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"speakup/internal/config"
	"speakup/internal/core"
	"speakup/internal/metrics"
	"speakup/internal/trace"
)

// Origin is the protected service behind the thinner.
type Origin interface {
	// Serve processes one request and returns the response body. Calls
	// are serialized by the Front (the emulated server model: one
	// request at a time).
	Serve(id core.RequestID) ([]byte, error)
}

// OriginFunc adapts a function to the Origin interface.
type OriginFunc func(id core.RequestID) ([]byte, error)

// Serve implements Origin.
func (f OriginFunc) Serve(id core.RequestID) ([]byte, error) { return f(id) }

// EmulatedOrigin reproduces the paper's emulated server: service time
// drawn uniformly from [0.9/c, 1.1/c] per request.
type EmulatedOrigin struct {
	mu       sync.Mutex
	capacity float64
	body     []byte
}

// NewEmulatedOrigin creates an origin with the given capacity
// (requests/second).
func NewEmulatedOrigin(capacity float64) *EmulatedOrigin {
	if capacity <= 0 {
		panic("web: origin capacity must be positive")
	}
	return &EmulatedOrigin{
		capacity: capacity,
		body:     []byte("ok: your request has been served by the protected origin\n"),
	}
}

// Serve sleeps for the drawn service time and returns a fixed body.
func (o *EmulatedOrigin) Serve(id core.RequestID) ([]byte, error) {
	mean := time.Duration(float64(time.Second) / o.capacity)
	lo := time.Duration(float64(mean) * 0.9)
	span := time.Duration(float64(mean) * 0.2)
	o.mu.Lock()
	jitter := time.Duration(int64(time.Now().UnixNano()) % int64(span+1))
	o.mu.Unlock()
	time.Sleep(lo + jitter)
	return o.body, nil
}

// Config tunes a Front.
type Config struct {
	// Thinner configures the §3.3 auction core (timeouts, bid-table
	// shard count — Shards defaults to GOMAXPROCS-scaled). Quantum
	// must stay 0: an origin here cannot suspend a request for §5.
	Thinner core.Config
	// PayChunk is the read-buffer size for payment bodies. Default 16 KB.
	PayChunk int
	// PayPollInterval bounds how quickly a winning/evicted payment
	// channel is released mid-POST. Default 50ms.
	PayPollInterval time.Duration
	// RequestTimeout bounds how long a held request waits for service.
	// Default 5 minutes.
	RequestTimeout time.Duration
	// OriginStallAfter declares the origin browned out when a single
	// Serve call exceeds it: auctions pause, held channels survive,
	// and new /request arrivals are shed with 503 + Retry-After until
	// the call returns. Default 30s.
	OriginStallAfter time.Duration
	// Trace configures request-lifecycle tracing (internal/trace).
	// Zero Sample — the default — disables it entirely: no tracer is
	// built, /trace answers 404, and the request and payment paths pay
	// nothing.
	Trace trace.Config
}

func (c Config) withDefaults() Config {
	if c.PayChunk == 0 {
		c.PayChunk = 16 << 10
	}
	if c.PayPollInterval == 0 {
		c.PayPollInterval = 50 * time.Millisecond
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 5 * time.Minute
	}
	if c.OriginStallAfter == 0 {
		c.OriginStallAfter = 30 * time.Second
	}
	return c
}

// Front is the speak-up HTTP front-end. Create with NewFront; it
// implements http.Handler.
type Front struct {
	cfg     Config
	origin  Origin
	started time.Time

	// ctl serializes the thinner's control path: request arrival, the
	// auction on server-free, and the timeout sweep. These are rare
	// (at most a few per served request). Payment crediting — the hot
	// path — never takes it.
	ctl   sync.Mutex
	th    *core.Thinner
	table *core.BidTable
	// cfgHash is the canonical hash of th's config, recomputed under
	// ctl whenever the config changes (construction, Reconfigure) so
	// Snapshot reads it instead of hashing on every call.
	cfgHash string

	// tracer is the sampled request-lifecycle tracer (nil when
	// disabled; every hook tolerates that). It is shared by the HTTP
	// handlers, the thinner core, and any wire listener attached via
	// Tracer(), which is what makes co-sampling across transports
	// automatic: one sampling decision per id, one record.
	tracer *trace.Tracer

	served atomic.Uint64
	bufs   sync.Pool // *[]byte of cfg.PayChunk, for /pay read loops

	// closed ends /telemetry streams when the front shuts down.
	closed    chan struct{}
	closeOnce sync.Once
}

// NewFront builds the front-end for an origin.
func NewFront(origin Origin, cfg Config) *Front {
	f := &Front{
		cfg:     cfg.withDefaults(),
		origin:  origin,
		started: time.Now(),
		closed:  make(chan struct{}),
	}
	f.bufs.New = func() any {
		b := make([]byte, f.cfg.PayChunk)
		return &b
	}
	// Construct and wire the thinner under ctl: its sweep timer runs
	// callbacks under the same mutex, so holding it here makes the
	// constructor's writes (timer handle, callbacks) visible to the
	// first sweep no matter how soon it fires. The tracer records its
	// histograms into the thinner's registry, so it is built second.
	clock := &ctlClock{epoch: f.started, mu: &f.ctl}
	f.ctl.Lock()
	f.th = core.NewThinner(clock, f.cfg.Thinner)
	f.table = f.th.Table()
	f.th.Admit = f.admit
	f.th.Evict = f.evict
	tc := f.cfg.Trace
	tc.Hists = f.th.Registry().Latency()
	f.tracer = trace.New(tc)
	f.th.Trace = f.tracer
	f.rehash()
	f.ctl.Unlock()
	return f
}

// rehash recomputes cfgHash; call it with ctl held after th's config
// changes.
func (f *Front) rehash() {
	f.cfgHash = config.HashThinner(config.ThinnerFromCore(f.th.Config()))
}

// ctlClock adapts wall-clock time to core.Clock, running timer
// callbacks (the timeout sweep) under the Front's control mutex so
// they serialize with arrivals and auctions.
type ctlClock struct {
	mu    *sync.Mutex
	epoch time.Time
}

func (c *ctlClock) Now() time.Duration { return time.Since(c.epoch) }

func (c *ctlClock) After(d time.Duration, fn func()) func() {
	t := time.AfterFunc(d, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		fn()
	})
	return func() { t.Stop() }
}

// Now reads the front's clock (the epoch its thinner, payment
// channels, and sweep share). Additional transports (internal/wire)
// stamp their credits with it so both listeners age channels alike.
func (f *Front) Now() time.Duration { return time.Since(f.started) }

// chanWaiter is the HTTP front's core.Waiter: a held request's handler
// waits on it for the response body, nil meaning evicted.
type chanWaiter chan []byte

// Deliver implements core.Waiter. The channel has one slot, so it
// never blocks, even once the handler has given up.
func (w chanWaiter) Deliver(body []byte) { w <- body }

// deliver hands a taken waiter, if any, its outcome.
func deliver(w core.Waiter, body []byte) {
	if w != nil {
		w.Deliver(body)
	}
}

// admit (called with ctl held, from the thinner core) collects the
// held request's waiter and dispatches the request to the origin on
// its own goroutine. The winner's payment POST learns of the admission
// from its channel's state word, which the core flipped on settle.
func (f *Front) admit(id core.RequestID, paid int64) {
	w := f.table.TakeWaiter(id)
	go func() {
		// Watchdog: a Serve call that exceeds OriginStallAfter browns
		// the thinner out. The done flag is flipped under ctl, so the
		// timer callback either observes it (Serve finished first) or
		// declares the stall strictly before the recovery below.
		var done atomic.Bool
		watchdog := time.AfterFunc(f.cfg.OriginStallAfter, func() {
			f.ctl.Lock()
			defer f.ctl.Unlock()
			if done.Load() {
				return
			}
			f.th.SetOriginStalled(true)
		})
		body, err := f.origin.Serve(id)
		if err != nil {
			body = []byte("origin error: " + err.Error())
		}
		if body == nil {
			body = []byte{}
		}
		f.served.Add(1)
		deliver(w, body)
		f.ctl.Lock()
		done.Store(true)
		watchdog.Stop()
		// No-op unless the watchdog fired: recovery re-opens the
		// auction floor (with an eviction grace window) before
		// ServerDone settles the next winner.
		f.th.SetOriginStalled(false)
		f.th.ServerDone(id)
		f.ctl.Unlock()
	}()
}

// evict (called with ctl held, from the sweep) releases a timed-out
// contender's held request, if any. A nil body tells the waiter it was
// evicted. The payment POST itself stops via the state word.
func (f *Front) evict(id core.RequestID, paid int64, wasted bool) {
	if !wasted {
		return // auction winner: admit delivers the response
	}
	deliver(f.table.TakeWaiter(id), nil)
}

// Arrive runs the front's pinned arrival protocol for a re-issued
// (waiting) request on behalf of any transport: under the control
// mutex it sheds during a brownout, rejects a duplicate id, and
// otherwise registers w as the id's waiter and announces the arrival
// to the thinner. The HTTP wait path and the wire front's OPEN both
// land here, so the 503/409/held semantics cannot drift apart.
func (f *Front) Arrive(id core.RequestID, w core.Waiter) core.ArriveVerdict {
	return f.arrive(id, w, false)
}

// arrive is Arrive with the HTTP initial leg folded in: an initial
// request that finds the origin occupied gets ArriveBusy (the 402
// "pay" reply) after the brownout check and before anything is
// registered.
func (f *Front) arrive(id core.RequestID, w core.Waiter, initial bool) core.ArriveVerdict {
	f.ctl.Lock()
	defer f.ctl.Unlock()
	if f.th.Health() == core.HealthStalled {
		// Origin brownout: shed fast with a retry hint instead of
		// stranding this client as a waiter the origin cannot drain.
		// Contenders already holding channels keep their balances.
		f.th.ShedArrival(id)
		return core.ArriveShed
	}
	if initial && f.th.Busy() {
		return core.ArriveBusy
	}
	if !f.table.SetWaiter(id, w) {
		// A request with this id is already held. Overwriting would
		// strand the earlier waiter until RequestTimeout.
		f.tracer.OnDuplicate(uint64(id), f.Now())
		return core.ArriveDuplicate
	}
	f.th.RequestArrived(id)
	return core.ArriveOK
}

// Channel resolves id's payment channel at the front's clock — the
// wire transport's credit path (the /pay handler resolves inline).
func (f *Front) Channel(id core.RequestID) *core.PayChan {
	return f.table.Channel(id, f.Now())
}

// ReleaseWaiter drops w's registration for id if it is still the
// current waiter — a transport's client gave up (HTTP: request
// context canceled; wire: CLOSE frame or connection teardown).
func (f *Front) ReleaseWaiter(id core.RequestID, w core.Waiter) {
	f.table.DropWaiter(id, w)
}

// Registry exposes the thinner's registry — the one tally /stats,
// /telemetry and /metrics read — so additional transports record into
// the same stream.
func (f *Front) Registry() *metrics.Registry { return f.th.Registry() }

// Tracer exposes the front's request-lifecycle tracer (nil when
// tracing is disabled) so additional transports — the wire listener —
// credit into the same sampled records.
func (f *Front) Tracer() *trace.Tracer { return f.tracer }

// ServeHTTP implements http.Handler.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/request":
		f.handleRequest(w, r)
	case "/pay":
		f.handlePay(w, r)
	case "/stats":
		f.handleStats(w)
	case "/metrics":
		f.handleMetrics(w)
	case "/trace":
		f.handleTrace(w, r)
	case "/healthz":
		f.handleHealthz(w)
	case "/telemetry":
		f.handleTelemetry(w, r)
	case "/control/config":
		f.handleControlConfig(w, r)
	default:
		http.NotFound(w, r)
	}
}

func parseID(r *http.Request) (core.RequestID, error) {
	raw := r.URL.Query().Get("id")
	if raw == "" {
		return 0, errors.New("missing id")
	}
	n, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad id: %v", err)
	}
	return core.RequestID(n), nil
}

func (f *Front) handleRequest(w http.ResponseWriter, r *http.Request) {
	id, err := parseID(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ch := make(chanWaiter, 1)
	switch f.arrive(id, ch, r.URL.Query().Get("wait") == "") {
	case core.ArriveBusy:
		// The "JavaScript" reply: open a payment channel and re-issue.
		w.Header().Set("Speakup-Action", "pay")
		w.WriteHeader(http.StatusPaymentRequired)
		fmt.Fprintln(w, "server busy: stream dummy bytes to /pay and re-issue with &wait=1")
		return
	case core.ArriveShed:
		w.Header().Set("Retry-After", "1")
		http.Error(w, core.ShedMsg, http.StatusServiceUnavailable)
		return
	case core.ArriveDuplicate:
		http.Error(w, core.DuplicateMsg, http.StatusConflict)
		return
	}

	select {
	case body := <-ch:
		if body == nil {
			http.Error(w, core.EvictedMsg, http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Write(body)
	case <-r.Context().Done():
		f.table.DropWaiter(id, ch)
	case <-time.After(f.cfg.RequestTimeout):
		f.table.DropWaiter(id, ch)
		http.Error(w, "timed out waiting for service", http.StatusGatewayTimeout)
	}
}

// payReply is the JSON body of /pay responses.
type payReply struct {
	Status string `json:"status"` // "continue", "admitted", "evicted"
	Paid   int64  `json:"paid"`   // bytes credited on this channel call
}

func (f *Front) handlePay(w http.ResponseWriter, r *http.Request) {
	id, err := parseID(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	// Resolve the payment channel once; every chunk below is credited
	// through its atomics without locks.
	pc := f.table.Channel(id, f.Now())

	// The sink goroutine blocks in Read and credits chunks as they
	// land — the hot path: one Read, one atomic credit, one state load
	// per chunk, no locks, no deadlines. (Read deadlines are unusable
	// here: a deadline expiring mid-chunked-body poisons net/http's
	// chunked reader permanently, which would stop ingest cold.)
	var credited atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		bufp := f.bufs.Get().(*[]byte)
		buf := *bufp
		tr := f.tracer
		for {
			n, err := r.Body.Read(buf)
			if n > 0 {
				now := f.Now()
				if pc.Credit(int64(n), now) {
					// Count only accepted bytes so the reply's paid tally
					// matches the table (a chunk racing the settle is
					// dropped by Credit).
					credited.Add(int64(n))
					tr.OnCredit(uint64(id), int64(n), now, trace.TransportHTTP)
				}
			}
			if err != nil || pc.State() != core.ChanActive {
				break // EOF, client gone, handler returned, or settled
			}
		}
		f.bufs.Put(bufp)
	}()

	// Wait for the POST to complete, polling the channel's state word
	// so a settle (auction win or eviction) interrupts the stream. The
	// sink may be parked inside Read holding net/http's body mutex —
	// which the response-write path also needs — so to cut a settled
	// stream short we expire the connection's read deadline, join the
	// sink, and only then respond. (The connection is not reused after
	// an aborted body; that's fine, the client was told to stop.)
	rc := http.NewResponseController(w)
	ticker := time.NewTicker(f.cfg.PayPollInterval)
	defer ticker.Stop()
	for waiting := true; waiting; {
		select {
		case <-done:
			waiting = false
		case <-ticker.C:
			if pc.State() != core.ChanActive {
				rc.SetReadDeadline(time.Now())
				<-done
				waiting = false
			}
		}
	}
	rc.SetReadDeadline(time.Time{})
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(payReply{Status: stateString(pc.State()), Paid: credited.Load()})
}

func stateString(st core.ChanState) string {
	switch st {
	case core.ChanAdmitted:
		return "admitted"
	case core.ChanEvicted:
		return "evicted"
	}
	return "continue"
}

// Stats is the JSON shape of /stats.
type Stats struct {
	Uptime string `json:"uptime"`
	// UptimeSeconds is the same span as a bare number, for consumers
	// that should not parse Go duration strings.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// GOMAXPROCS is the front's scheduler width — context for judging
	// the sharded ingest numbers below.
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Served       uint64  `json:"served"`
	PaymentBytes int64   `json:"payment_bytes"`
	PaymentMbps  float64 `json:"payment_mbps"`
	GoingRate    int64   `json:"going_rate_bytes"`
	// LastWinner is the id of the most recent auction winner (0 before
	// any auction) — with GoingRate, the public auction observables.
	LastWinner core.RequestID `json:"last_winner_id"`
	Contenders int            `json:"contenders"`
	// OpenChannels counts every open payment channel including
	// orphans (paid, request not yet arrived) — under flood this is
	// the population the PR 5 indexes keep auction and sweep cost
	// independent of.
	OpenChannels int `json:"open_channels"`
	Shards       int `json:"shards"`
	// Health is the origin-health brownout ladder state ("ok",
	// "stalled", "recovering").
	Health string `json:"health"`
	// ConfigHash is the canonical hash of the thinner's effective
	// configuration — the identity fleet rollouts converge on (the same
	// value /control/config reports).
	ConfigHash string `json:"config_hash"`
	// Wire-transport slice of the ingest (0s when no wire listener is
	// attached).
	metrics.Wire
	ThinnerTotals core.Stats `json:"thinner"`
}

// Snapshot returns current counters: the registry's under the control
// mutex, so the thinner's tallies are one consistent cut, and the
// deployment gauges Telemetry adds.
func (f *Front) Snapshot() Stats {
	f.ctl.Lock()
	s := f.Telemetry()
	cfgHash := f.cfgHash
	f.ctl.Unlock()
	up := time.Duration(s.UptimeMS) * time.Millisecond
	return Stats{
		Uptime:        up.String(),
		UptimeSeconds: float64(s.UptimeMS) / 1e3,
		GOMAXPROCS:    s.GOMAXPROCS,
		Served:        s.Served,
		PaymentBytes:  s.IngestBytes,
		PaymentMbps:   s.IngestMbps,
		GoingRate:     s.GoingPrice,
		LastWinner:    core.RequestID(s.LastWinner),
		Contenders:    s.Contenders,
		OpenChannels:  s.OpenChannels,
		Shards:        f.table.Shards(),
		Health:        core.HealthState(s.Health).String(),
		ConfigHash:    cfgHash,
		Wire:          s.Wire,
		ThinnerTotals: s.Counters,
	}
}

func (f *Front) handleStats(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(f.Snapshot())
}

// handleMetrics renders GET /metrics: every declared metric of a
// telemetry snapshot and the registry's lifecycle histograms in
// Prometheus text exposition format, plus the tracer's own gauges.
// Like /telemetry it never takes the control mutex.
func (f *Front) handleMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s := f.Telemetry()
	if err := metrics.WritePrometheus(w, &s, f.Registry().Latency()); err != nil || f.tracer == nil {
		return
	}
	metrics.WritePrometheusValue(w, "speakup_trace_sample_n",
		"Tracing samples one in this many request ids.", "gauge", float64(f.tracer.SampleN()))
	metrics.WritePrometheusValue(w, "speakup_trace_completed_total",
		"Request-lifecycle traces retired to the ring.", "counter", float64(f.tracer.Completed()))
	metrics.WritePrometheusValue(w, "speakup_trace_drops_total",
		"Sampled requests untraced because the in-flight slot table was full.", "counter", float64(f.tracer.Drops()))
}

// traceView is the NDJSON line shape of /trace: a trace.Record with
// the enums rendered as strings and the headline latency precomputed.
type traceView struct {
	trace.Record
	Verdict   string  `json:"verdict"`
	Transport string  `json:"transport"`
	WaitMS    float64 `json:"wait_ms"`
}

// handleTrace serves GET /trace?n=&id=: the most recent completed
// request-lifecycle traces, newest first, one JSON object per line.
// n bounds the count (default 100); id filters to one request id.
// With tracing disabled the endpoint answers 404 — the knob to flip is
// the front's trace sample rate, not a query parameter.
func (f *Front) handleTrace(w http.ResponseWriter, r *http.Request) {
	if f.tracer == nil {
		http.Error(w, "tracing disabled: start the front with a trace sample rate (thinnerd -trace-sample)",
			http.StatusNotFound)
		return
	}
	n := 100
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			http.Error(w, "bad n: want a positive integer", http.StatusBadRequest)
			return
		}
		n = v
	}
	var id uint64
	if raw := r.URL.Query().Get("id"); raw != "" {
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			http.Error(w, "bad id: "+err.Error(), http.StatusBadRequest)
			return
		}
		id = v
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, rec := range f.tracer.Snapshot(n, id) {
		enc.Encode(traceView{
			Record:    rec,
			Verdict:   rec.Verdict.String(),
			Transport: rec.Transport.String(),
			WaitMS:    float64(rec.Wait().Nanoseconds()) / 1e6,
		})
	}
}

// Healthz is the JSON shape of /healthz — the readiness probe fleet
// orchestration points at a front. Ready means: the listener answered
// (implicit), the timeout-sweep chain is alive, and the origin is not
// browned out.
type Healthz struct {
	Status      string `json:"status"` // "ok" or "degraded"
	Origin      string `json:"origin"` // brownout ladder: ok | stalled | recovering
	SweepOK     bool   `json:"sweep_ok"`
	LastSweepMS int64  `json:"last_sweep_ms"` // age of the last sweep tick
	UptimeMS    int64  `json:"uptime_ms"`
}

// Health returns the readiness view (the /healthz body).
func (f *Front) Health() Healthz {
	f.ctl.Lock()
	origin := f.th.Health()
	age := f.th.LastSweepAge()
	interval := f.th.Config().SweepInterval
	f.ctl.Unlock()
	h := Healthz{
		Origin:      origin.String(),
		SweepOK:     age <= 3*interval,
		LastSweepMS: age.Milliseconds(),
		UptimeMS:    time.Since(f.started).Milliseconds(),
	}
	if h.SweepOK && origin != core.HealthStalled {
		h.Status = "ok"
	} else {
		h.Status = "degraded"
	}
	return h
}

func (f *Front) handleHealthz(w http.ResponseWriter) {
	h := f.Health()
	w.Header().Set("Content-Type", "application/json")
	if h.Status != "ok" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

// ErrReconfigStalled rejects live reconfiguration during an origin
// brownout: a patch applied mid-brownout is indistinguishable from the
// patch causing the brownout, so the control plane refuses to move
// while the ladder reads HealthStalled. /control/config maps it to
// 503 + Retry-After; fleet controllers treat it as a retryable
// unhealthy signal, exactly like a shed arrival.
var ErrReconfigStalled = errors.New("origin browned out (health stalled): reconfiguration refused until the origin recovers")

// Reconfigure applies a thinner-section patch to the live auction
// core: zero fields keep their value, timeouts and the sweep cadence
// apply atomically under the control mutex, and a shard-count change
// is rejected (the bid table is sized at construction). While the
// origin is browned out (HealthStalled) every patch is refused with
// ErrReconfigStalled. Safe to call concurrently with traffic;
// /control/config POSTs land here.
func (f *Front) Reconfigure(patch config.Thinner) error {
	f.ctl.Lock()
	defer f.ctl.Unlock()
	if f.th.Health() == core.HealthStalled {
		return ErrReconfigStalled
	}
	if err := f.th.Reconfigure(patch.Core()); err != nil {
		return err
	}
	f.rehash()
	return nil
}

// ThinnerConfig returns the thinner's effective configuration as its
// scenario-schema section (what /control/config GET reports).
func (f *Front) ThinnerConfig() config.Thinner {
	f.ctl.Lock()
	defer f.ctl.Unlock()
	return config.ThinnerFromCore(f.th.Config())
}

func (f *Front) handleControlConfig(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(config.StatusOf(f.ThinnerConfig()))
	case http.MethodPost:
		patch, err := config.DecodeThinner(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if err := f.Reconfigure(patch); err != nil {
			if errors.Is(err, ErrReconfigStalled) {
				w.Header().Set("Retry-After", "1")
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(config.StatusOf(f.ThinnerConfig()))
	default:
		http.Error(w, "GET or POST required", http.StatusMethodNotAllowed)
	}
}

// Telemetry returns one telemetry snapshot: the thinner registry's
// counters plus the deployment gauges only the front can see. It
// never takes the control mutex, so streaming cannot contend with
// auctions.
func (f *Front) Telemetry() metrics.Snapshot {
	s := f.Registry().Snapshot()
	up := time.Since(f.started)
	s.UptimeMS = up.Milliseconds()
	s.Served = f.served.Load()
	s.GOMAXPROCS = runtime.GOMAXPROCS(0)
	s.IngestBytes = f.table.TotalCredited()
	s.IngestMbps = float64(s.IngestBytes) * 8 / up.Seconds() / 1e6
	s.OpenChannels = f.table.Size()
	s.Contenders = f.table.Eligible()
	return s
}

func (f *Front) handleTelemetry(w http.ResponseWriter, r *http.Request) {
	interval := time.Second
	if raw := r.URL.Query().Get("interval"); raw != "" {
		d, err := time.ParseDuration(raw)
		if err != nil || d <= 0 {
			http.Error(w, "bad interval: want a positive Go duration like 500ms", http.StatusBadRequest)
			return
		}
		if d < 10*time.Millisecond {
			d = 10 * time.Millisecond // floor: keep a hostile ?interval=1ns from busy-looping
		}
		interval = d
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		if err := enc.Encode(f.Telemetry()); err != nil {
			return
		}
		// Flush through the ResponseController and stop on its error:
		// a dead client surfaces here on the next tick instead of the
		// stream silently writing into a closed connection until the
		// server reaps it.
		if err := rc.Flush(); err != nil {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-f.closed:
			return
		case <-ticker.C:
		}
	}
}

// Table exposes the front's bid table (tests, stats integrations).
func (f *Front) Table() *core.BidTable { return f.table }

// Close stops the thinner's background timers and ends any open
// /telemetry streams.
func (f *Front) Close() {
	f.closeOnce.Do(func() { close(f.closed) })
	f.ctl.Lock()
	defer f.ctl.Unlock()
	f.th.Stop()
}
