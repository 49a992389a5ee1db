// Package loadgen runs the paper's client workloads (§7.1) over real
// sockets against the internal/web front-end. Each Client binds one
// internal/clients workload, the client process the simulator runs, to
// a wall clock: the workload owns arrivals and the window (from an
// adversary.Strategy; the paper's good and bad clients are its poisson
// profile), the 10 s backlog and its denials, retries and per-attempt
// deadlines. The binding keeps only the transport: an upload shaped by
// a token bucket (the Emulab 2 Mbit/s access link) and the speak-up
// exchange over HTTP or the wire transport — re-issue the request and
// stream 1 MB payment POSTs when told to pay.
package loadgen

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"speakup/internal/adversary"
	"speakup/internal/clients"
	"speakup/internal/core"
	"speakup/internal/metrics"
	"speakup/internal/trace"
	"speakup/internal/wire"
)

// Config tunes one load-generating client.
type Config struct {
	// BaseURL points at the thinner front-end, e.g. http://127.0.0.1:8080.
	BaseURL string
	// UploadBits shapes the client's total upload (bits/s). Default 2e6.
	UploadBits float64
	// PostBytes is the payment POST size. Default 1 MB.
	PostBytes int
	// PayConns is the number of payment POST loops run in parallel per
	// request over HTTP; they share the request's paid count and the
	// client's upload. The wire transport has one channel per request
	// and ignores it. Default 1.
	PayConns int
	// Strategy paces arrivals, sets the outstanding window, and sizes
	// payments (see internal/adversary). Required. The same strategy
	// implementations that drive the simulator drive real traffic here.
	Strategy adversary.Strategy
	// Workload is the §7.1 client process the transport binds to: its
	// seed, retry budget and backoff, per-attempt deadline and backlog
	// timeout. Its Pacer is Strategy.
	Workload clients.Config
	// Client optionally overrides the HTTP client (tests inject
	// in-process transports).
	Client *http.Client
	// Transport selects how the client speaks to the front: "http"
	// (default) walks GET /request + POST /pay; "wire" multiplexes
	// OPEN/CREDIT frames over one persistent binary connection
	// (internal/wire). Both carry identical speak-up semantics.
	Transport string
	// WireAddr is the wire listener's host:port (required with
	// Transport "wire").
	WireAddr string
	// TraceSample mirrors the server's trace sampling rate (thinnerd
	// -trace-sample). When > 0, the client records which of its issued
	// ids the server traced — the sampling predicate is a shared pure
	// function of (id, rate) — so a client-side latency sample can be
	// joined against the server's /trace?id= record. 0 records nothing.
	TraceSample int
}

func (c Config) withDefaults() Config {
	if c.UploadBits == 0 {
		c.UploadBits = 2e6
	}
	if c.PostBytes == 0 {
		c.PostBytes = 1 << 20
	}
	if c.PayConns == 0 {
		c.PayConns = 1
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Transport == "" {
		c.Transport = "http"
	}
	c.Workload.Pacer = c.Strategy
	return c
}

// Stats holds the transport's own counters; the workload's (issued,
// served, failed, denied, retried, abandoned) are Client.Workload.
type Stats struct {
	PaidBytes atomic.Int64
	// Latency records the time from a served request's first attempt
	// to its response, in the same log₂ buckets as the thinner's
	// lifecycle histograms.
	Latency metrics.Hist
}

// Client binds one §7.1 workload (internal/clients) to real sockets.
// The workload decides when each attempt starts, how many are
// outstanding, and what a failure or deadline costs; the client runs
// each attempt's exchange in its own goroutine and reports the
// outcome. Every workload callback runs under mu.
type Client struct {
	cfg    Config
	bucket *TokenBucket

	mu    sync.Mutex
	clock core.WallClock
	wl    *clients.Client
	reqs  map[core.RequestID]*request // issued, not yet served or failed
	// sampled collects the issued ids the server's tracer co-sampled
	// (Config.TraceSample > 0).
	sampled []uint64

	// wire is the lazily dialed persistent binary connection all of
	// this client's channels multiplex over (Transport "wire").
	wireMu sync.Mutex
	wire   *wire.Client

	Stats Stats

	ctx    context.Context // cancelled by Stop; parents every attempt
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// request is one issued request across its attempts.
type request struct {
	first  time.Time          // when its first attempt started
	cancel context.CancelFunc // ends the running attempt
}

// result is one attempt's outcome: served or not, the payment bytes it
// pushed, and the server's Retry-After, if it sent one.
type result struct {
	served     bool
	paid       int64
	retryAfter time.Duration
}

// NewClient creates a client; ids must be shared by all clients of one
// run so request IDs are unique.
func NewClient(cfg Config, ids *atomic.Uint64) *Client {
	if cfg.Strategy == nil {
		panic("loadgen: Strategy required")
	}
	cfg = cfg.withDefaults()
	switch cfg.Transport {
	case "http":
	case "wire":
		if cfg.WireAddr == "" {
			panic("loadgen: Transport \"wire\" requires WireAddr")
		}
	default:
		panic("loadgen: Transport must be \"http\" or \"wire\", got " + cfg.Transport)
	}
	c := &Client{
		cfg:    cfg,
		bucket: NewTokenBucket(cfg.UploadBits, 32<<10),
		reqs:   make(map[core.RequestID]*request),
	}
	c.clock.Mu = &c.mu
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.wl = clients.New(&c.clock, cfg.Workload, func() core.RequestID {
		return core.RequestID(ids.Add(1))
	})
	c.wl.Issue = c.issue
	c.wl.Abandon = c.abandon
	c.wl.OnDenial = func(core.RequestID) {
		c.cfg.Strategy.Observe(adversary.Outcome{Denied: true, Now: c.clock.Now()})
	}
	return c
}

// Workload returns the workload's counters: arrivals, issues, serves,
// failures, backlog denials, retries and abandons.
func (c *Client) Workload() clients.Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wl.Stats()
}

// SampledIDs returns the issued request ids the server's tracer
// co-sampled (ascending — ids are issued monotonically). Empty unless
// Config.TraceSample was set. Each is fetchable server-side as
// /trace?id=N.
func (c *Client) SampledIDs() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.sampled)
}

// Run starts the arrivals; the workload's clock starts now.
func (c *Client) Run() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock.Epoch = time.Now()
	c.wl.Start()
}

// Stop halts the arrivals, cancels every running attempt and waits
// for it to report. No counter moves after Stop returns.
func (c *Client) Stop() {
	c.mu.Lock()
	c.wl.Stop()
	c.mu.Unlock()
	c.cancel()
	c.wg.Wait()
	if c.wire != nil { // no attempt is left to dial it
		c.wire.Close()
	}
}

// issue starts one attempt of id's exchange: the workload's Issue, for
// a fresh request and for each retry.
func (c *Client) issue(id core.RequestID) {
	r := c.reqs[id]
	if r == nil {
		r = &request{first: time.Now()}
		c.reqs[id] = r
		if c.cfg.TraceSample > 0 && trace.Sampled(uint64(id), c.cfg.TraceSample) {
			c.sampled = append(c.sampled, uint64(id))
		}
	}
	var ctx context.Context
	ctx, r.cancel = context.WithCancel(c.ctx)
	c.wg.Add(1)
	go c.attempt(ctx, id, r)
}

// abandon ends id's running attempt at its deadline; the attempt then
// reports its failure like any other.
func (c *Client) abandon(id core.RequestID) {
	if r := c.reqs[id]; r != nil {
		r.cancel()
	}
}

// attempt runs one exchange and reports its outcome to the workload
// and the strategy, as the simulator's transport does. An attempt that
// Stop cuts short has no outcome, like a simulated request still in
// flight when the run ends; a deadline abandon ends only the attempt's
// own context, so it still fails.
func (c *Client) attempt(ctx context.Context, id core.RequestID, r *request) {
	defer c.wg.Done()
	var res result
	if c.cfg.Transport == "wire" {
		res = c.exchangeWire(ctx, id)
	} else {
		res = c.exchangeHTTP(ctx, id)
	}
	done := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	r.cancel()
	switch {
	case res.served:
		c.Stats.Latency.Observe(done.Sub(r.first))
		delete(c.reqs, id)
		c.wl.RequestServed(id)
	case c.ctx.Err() != nil:
		return
	case !c.wl.RequestFailed(id, res.retryAfter):
		delete(c.reqs, id)
	}
	c.cfg.Strategy.Observe(adversary.Outcome{Served: res.served, Paid: res.paid, Now: c.clock.Now()})
}

func (c *Client) url(path string, id core.RequestID, extra string) string {
	return fmt.Sprintf("%s%s?id=%d%s", c.cfg.BaseURL, path, uint64(id), extra)
}

// exchangeHTTP walks the speak-up protocol once over HTTP: a GET
// /request, and when told to pay, the held request plus payment POSTs.
func (c *Client) exchangeHTTP(ctx context.Context, id core.RequestID) result {
	// Requests cost a little upload budget, too.
	c.bucket.Take(200)
	resp, err := c.do(ctx, http.MethodGet, c.url("/request", id, ""), nil)
	if err != nil {
		return result{}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return result{served: true}
	case http.StatusPaymentRequired:
		return c.payAndWait(ctx, id)
	default:
		return result{retryAfter: parseRetryAfter(resp)}
	}
}

// parseRetryAfter reads a delay-seconds Retry-After header; 0 if absent
// or unparseable (HTTP-date forms are not worth handling here).
func parseRetryAfter(resp *http.Response) time.Duration {
	s := resp.Header.Get("Retry-After")
	if s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0
	}
	return time.Duration(n) * time.Second
}

// do sends one request of the exchange; body is nil for a GET.
func (c *Client) do(ctx context.Context, method, url string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	return c.cfg.Client.Do(req)
}

// payAndWait re-issues the actual request, held by the thinner until
// admitted or evicted, while PayConns loops stream payment POSTs. The
// loops outlive the verdict only until the attempt's context ends.
func (c *Client) payAndWait(ctx context.Context, id core.RequestID) result {
	var stopped atomic.Bool
	var paid atomic.Int64
	c.wg.Add(c.cfg.PayConns)
	for range c.cfg.PayConns {
		go c.pay(ctx, id, &paid, &stopped)
	}
	c.bucket.Take(200)
	served := false
	if resp, err := c.do(ctx, http.MethodGet, c.url("/request", id, "&wait=1"), nil); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		served = resp.StatusCode == http.StatusOK
	}
	stopped.Store(true)
	return result{served: served, paid: paid.Load()}
}

// pay is one payment channel: POSTs until the verdict, an eviction, or
// a defection. Each POST is sized by the strategy; a zero size
// defects — payment stops while the request stays open, camping on its
// bid.
func (c *Client) pay(ctx context.Context, id core.RequestID, paid *atomic.Int64, stopped *atomic.Bool) {
	defer c.wg.Done()
	for !stopped.Load() {
		size := c.cfg.Strategy.PostSize(c.clock.Now(), paid.Load(), c.cfg.PostBytes)
		if size <= 0 {
			return
		}
		body := &shapedReader{
			bucket:  c.bucket,
			total:   size,
			chunk:   16 << 10,
			stopped: stopped.Load,
		}
		resp, err := c.do(ctx, http.MethodPost, c.url("/pay", id, ""), io.NopCloser(body))
		paid.Add(body.Sent())
		c.Stats.PaidBytes.Add(body.Sent())
		if err != nil {
			return
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Contains(raw, []byte("continue")) {
			return
		}
	}
}
