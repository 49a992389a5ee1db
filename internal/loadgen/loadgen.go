// Package loadgen reproduces the paper's client workloads (§7.1) over
// real sockets against the internal/web front-end: arrivals, a window
// of outstanding requests and payment sizes from an adversary.Strategy
// (the paper's good and bad clients are its poisson profile), an
// upload shaped by a token bucket (the Emulab 2 Mbit/s access link),
// and the speak-up protocol — re-issue the request and stream 1 MB
// payment POSTs when told to pay.
package loadgen

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"speakup/internal/adversary"
	"speakup/internal/core"
	"speakup/internal/faults"
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
	// Good labels the client in reports.
	Good bool
	// Strategy drives arrival pacing, the outstanding window, and
	// payment sizing (see internal/adversary). Required. The same
	// strategy implementations that drive the simulator drive real
	// traffic here.
	Strategy adversary.Strategy
	// Seed seeds the arrival process.
	Seed int64
	// Client optionally overrides the HTTP client (tests inject
	// in-process transports).
	Client *http.Client
	// RetryBudget is the max re-issues per request after a retryable
	// failure (transport error, 502/503/504, eviction). 0 disables.
	RetryBudget int
	// RetryBase/RetryCap bound the jittered exponential backoff between
	// retries (defaults from faults.Backoff: 200ms base, 5s cap).
	RetryBase, RetryCap time.Duration
	// RequestTimeout is the per-request deadline covering the whole
	// speak-up exchange (initial GET through payment to response).
	// 0 means no deadline.
	RequestTimeout time.Duration
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
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Transport == "" {
		c.Transport = "http"
	}
	return c
}

// Stats counts a client's outcomes. Fields are atomics: read with the
// corresponding Load methods or via Snapshot.
type Stats struct {
	Issued    atomic.Uint64
	Dropped   atomic.Uint64 // arrivals discarded because the window was full
	Served    atomic.Uint64
	Failed    atomic.Uint64
	Retried   atomic.Uint64 // re-issues after retryable failures
	PaidBytes atomic.Int64
	// Latency records issue-to-response time of served requests, in
	// the same log₂ buckets as the thinner's lifecycle histograms.
	Latency metrics.Hist
}

// Offered returns the demand the client presented: issued plus
// window-overflow arrivals (the analog of the simulator's backlog
// denials at small scale).
func (s *Stats) Offered() uint64 { return s.Issued.Load() + s.Dropped.Load() }

// Client is one workload generator over real HTTP.
type Client struct {
	cfg    Config
	bucket *TokenBucket
	rng    *rand.Rand
	rngMu  sync.Mutex
	ids    *atomic.Uint64 // shared across clients for unique ids

	started     time.Time    // strategy clocks run on elapsed time
	outstanding atomic.Int64 // in-flight requests, held against the window

	// wire is the lazily dialed persistent binary connection all of
	// this client's channels multiplex over (Transport "wire").
	wireMu sync.Mutex
	wire   *wire.Client

	// sampled collects the issued ids the server's tracer co-sampled
	// (Config.TraceSample > 0).
	sampledMu sync.Mutex
	sampled   []uint64

	Stats Stats

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewClient creates a client; ids must be shared by all clients of one
// run so request IDs are unique.
func NewClient(cfg Config, ids *atomic.Uint64) *Client {
	cfg = cfg.withDefaults()
	if cfg.Strategy == nil {
		panic("loadgen: Strategy required")
	}
	switch cfg.Transport {
	case "http":
	case "wire":
		if cfg.WireAddr == "" {
			panic("loadgen: Transport \"wire\" requires WireAddr")
		}
	default:
		panic("loadgen: Transport must be \"http\" or \"wire\", got " + cfg.Transport)
	}
	return &Client{
		cfg:    cfg,
		bucket: NewTokenBucket(cfg.UploadBits, 32<<10),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		ids:    ids,
		stop:   make(chan struct{}),
	}
}

// SampledIDs returns the issued request ids the server's tracer
// co-sampled (ascending — ids are issued monotonically). Empty unless
// Config.TraceSample was set. Each is fetchable server-side as
// /trace?id=N.
func (c *Client) SampledIDs() []uint64 {
	c.sampledMu.Lock()
	defer c.sampledMu.Unlock()
	out := make([]uint64, len(c.sampled))
	copy(out, c.sampled)
	return out
}

// Run generates load until Stop is called.
func (c *Client) Run() {
	c.started = time.Now()
	c.wg.Add(1)
	go c.arrivals()
}

// now is the strategy clock: elapsed time since Run.
func (c *Client) now() time.Duration { return time.Since(c.started) }

// Stop halts generation and waits for in-flight requests to wind down.
func (c *Client) Stop() {
	close(c.stop)
	c.wg.Wait()
	c.closeWire()
}

func (c *Client) arrivals() {
	defer c.wg.Done()
	// One reusable timer for the whole arrival loop: time.After would
	// allocate a fresh runtime timer per gap, which at high lambda is
	// measurable garbage on the load-generation path.
	gapTimer := time.NewTimer(time.Hour)
	defer gapTimer.Stop()
	for {
		c.rngMu.Lock()
		gap := c.cfg.Strategy.Gap(c.now(), c.rng)
		c.rngMu.Unlock()
		gapTimer.Reset(gap)
		select {
		case <-c.stop:
			return
		case <-gapTimer.C:
		}
		// Windows may change over time, so count in-flight requests
		// against the cap in force right now. Window full: the paper's
		// client would queue in a backlog; over real sockets we drop
		// immediately (equivalent to an instant backlog timeout at
		// small scale) and count it.
		if c.outstanding.Load() >= int64(c.cfg.Strategy.Window(c.now())) {
			c.Stats.Dropped.Add(1)
			c.cfg.Strategy.Observe(adversary.Outcome{Denied: true, Now: c.now()})
			continue
		}
		c.outstanding.Add(1)
		c.launch()
	}
}

// launch runs one request in its own goroutine, holding a window slot
// until it completes. The slot stays held across retries, so a
// retrying client offers no extra concurrency.
func (c *Client) launch() {
	id := core.RequestID(c.ids.Add(1))
	c.Stats.Issued.Add(1)
	if c.cfg.TraceSample > 0 && trace.Sampled(uint64(id), c.cfg.TraceSample) {
		c.sampledMu.Lock()
		c.sampled = append(c.sampled, uint64(id))
		c.sampledMu.Unlock()
	}
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer c.outstanding.Add(-1)
		backoff := faults.Backoff{Base: c.cfg.RetryBase, Cap: c.cfg.RetryCap}.WithDefaults()
		start := time.Now()
		var served bool
		var paid int64
		for attempt := 0; ; attempt++ {
			var retry bool
			var retryAfter time.Duration
			served, paid, retry, retryAfter = c.doRequest(id)
			if served || !retry || attempt >= c.cfg.RetryBudget {
				break
			}
			c.rngMu.Lock()
			d := backoff.Delay(attempt, c.rng)
			c.rngMu.Unlock()
			if retryAfter > d {
				d = retryAfter
			}
			if !c.sleep(d) {
				break // shutting down
			}
			c.Stats.Retried.Add(1)
		}
		if served {
			c.Stats.Served.Add(1)
			c.Stats.Latency.Observe(time.Since(start))
		} else {
			c.Stats.Failed.Add(1)
		}
		c.cfg.Strategy.Observe(adversary.Outcome{
			Served: served, Paid: paid, Now: c.now(),
		})
	}()
}

// sleep waits for d or until Stop; it reports whether the client is
// still running.
func (c *Client) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.stop:
		return false
	case <-t.C:
		return true
	}
}

func (c *Client) url(path string, id core.RequestID, extra string) string {
	return fmt.Sprintf("%s%s?id=%d%s", c.cfg.BaseURL, path, uint64(id), extra)
}

// doRequest walks the speak-up protocol once; it reports success, the
// payment bytes this attempt pushed, whether a failure is worth
// retrying (transport error, brownout-style 5xx, eviction), and any
// server-suggested Retry-After delay.
func (c *Client) doRequest(id core.RequestID) (served bool, paid int64, retry bool, retryAfter time.Duration) {
	if c.cfg.Transport == "wire" {
		return c.doRequestWire(id)
	}
	ctx := context.Background()
	cancel := func() {}
	if c.cfg.RequestTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, c.cfg.RequestTimeout)
	}
	defer cancel()
	// Requests cost a little upload budget, too.
	c.bucket.Take(200)
	resp, err := c.get(ctx, c.url("/request", id, ""))
	if err != nil {
		return false, 0, true, 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return true, 0, false, 0
	case http.StatusPaymentRequired:
		ok, paid := c.payAndWait(ctx, id)
		// Not served after paying means evicted or deadline-expired:
		// both are transient, so the retry budget applies.
		return ok, paid, !ok, 0
	case http.StatusServiceUnavailable, http.StatusBadGateway, http.StatusGatewayTimeout:
		return false, 0, true, parseRetryAfter(resp)
	default:
		return false, 0, false, 0
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

func (c *Client) get(ctx context.Context, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.cfg.Client.Do(req)
}

func (c *Client) post(ctx context.Context, url string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	return c.cfg.Client.Do(req)
}

// payAndWait re-issues the actual request and streams payment POSTs
// until admitted (then collects the held response) or evicted. Each
// POST is sized by the strategy; a zero size defects — payment stops
// while the request stays open, camping on its bid.
func (c *Client) payAndWait(ctx context.Context, id core.RequestID) (bool, int64) {
	done := make(chan bool, 1)
	var stopped atomic.Bool
	var paid atomic.Int64
	// The actual request (1), held by the thinner until served.
	go func() {
		c.bucket.Take(200)
		resp, err := c.get(ctx, c.url("/request", id, "&wait=1"))
		if err != nil {
			done <- false
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode == http.StatusOK
	}()
	// The payment channel (2): POSTs until admitted/evicted/defected.
	go func() {
		for !stopped.Load() {
			size := c.cfg.Strategy.PostSize(c.now(), paid.Load(), c.cfg.PostBytes)
			if size <= 0 {
				return // defect: stop paying, keep the waiter open
			}
			body := &shapedReader{
				bucket:  c.bucket,
				total:   size,
				chunk:   16 << 10,
				stopped: stopped.Load,
			}
			resp, err := c.post(ctx, c.url("/pay", id, ""), io.NopCloser(body))
			if err != nil {
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			paid.Add(body.Sent())
			c.Stats.PaidBytes.Add(body.Sent())
			if stopped.Load() || !isContinue(raw) {
				return
			}
		}
	}()
	select {
	case ok := <-done:
		stopped.Store(true)
		return ok, paid.Load()
	case <-c.stop:
		stopped.Store(true)
		return false, paid.Load()
	}
}

// isContinue reports whether a /pay reply asks for another POST.
func isContinue(raw []byte) bool {
	// Cheap check to avoid a JSON decode on the hot path.
	for i := 0; i+7 < len(raw); i++ {
		if string(raw[i:i+8]) == "continue" {
			return true
		}
	}
	return false
}
