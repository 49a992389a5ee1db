package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"speakup/internal/core"
	"speakup/internal/loadgen"
)

const (
	// httpPostBytes is one POST /pay body. The flow sends the next id's
	// GET only after the POST in flight ends, so a short body keeps the
	// GET from lagging the origin: with 1 MB bodies the wait's p99 rose
	// by 5 ms in the runs where the host ran slow.
	httpPostBytes  = 256 << 10
	httpWrite      = 256 << 10 // bytes per body write
	httpWarmAdmits = 10
	// httpPayBits paces the POST stream: each POST waits for its whole
	// body's budget from a token bucket, then streams at full speed.
	// Unpaced, the byte rate swung by half from run to run with how the
	// scheduler overlapped the client's writer and the server's reader
	// on two CPUs; 640 MB/s is about a third of what the HTTP path
	// copies on one 2 GHz core, so the pace sets the byte rate and
	// what it costs shows in the process's CPU.
	httpPayBits = 8 * 640e6
	// httpPayBurst is the bucket's depth, a few POSTs, so a take that
	// wakes late is made up by the next ones.
	httpPayBurst = 8 * httpPostBytes
)

// zeros is the payment body's content: only its length pays.
var zeros = make([]byte, httpWrite)

// payBody is one chunked POST /pay body of httpPostBytes zero bytes.
// It has no declared length, so the transport sends it chunked.
type payBody struct{ left int }

func (b *payBody) Read(p []byte) (int, error) {
	if b.left == 0 {
		return 0, io.EOF
	}
	n := min(len(p), b.left)
	clear(p[:n])
	b.left -= n
	return n, nil
}

// WriteTo streams the body in httpWrite-sized writes (io.Copy prefers
// it to Read's 32 KB buffer).
func (b *payBody) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for b.left > 0 {
		n, err := w.Write(zeros[:min(len(zeros), b.left)])
		total += int64(n)
		b.left -= n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// payReply is the JSON body of a /pay response.
type payReply struct {
	Status string `json:"status"`
	Paid   int64  `json:"paid"`
}

// httpFlood is one http_flood deployment: a front behind net/http on
// loopback, one connection streaming POST /pay bodies and one holding
// GET /request?wait=1, one request id at a time.
type httpFlood struct {
	rig       *rig
	ids       *ids
	base      string
	get, post *http.Client
	bucket    *loadgen.TokenBucket
	traced    bool
	body      []byte

	recording atomic.Bool
	stop      atomic.Bool
	done      sync.WaitGroup
	requests  atomic.Int64 // GETs and POSTs completed
	posts     atomic.Int64

	// Flow-owned until done.Wait returns.
	replied   int64 // sum of the /pay replies' credited tallies
	admitted  int64
	postTimes []float64 // traced: seconds per POST
	win       tally
	errs      []string
}

// oneConn is an HTTP client bound to at most one connection.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

func startHTTPFlood(seed int64, traced bool) (*httpFlood, error) {
	org := newOrigin(seed, floodService, 0, traced)
	r, err := newRig(org, rigConfig{http: true, traced: traced})
	if err != nil {
		return nil, err
	}
	h := &httpFlood{
		rig: r, ids: newIDs(), traced: traced, body: org.body,
		base: "http://" + r.httpLn.Addr().String(),
		get:  oneConn(), post: oneConn(),
		bucket: loadgen.NewTokenBucket(httpPayBits, httpPayBurst),
	}
	r.events = h.requests.Load
	h.done.Add(1)
	go h.flow()
	for org.count.Load() < httpWarmAdmits && !h.stop.Load() {
		time.Sleep(time.Millisecond)
	}
	return h, nil
}

// flow walks one request id after another through the speak-up
// protocol: while the origin serves the previous id, it streams POST
// /pay bodies for the next one; once the previous id's GET has been
// answered it re-issues the next id's request (GET ?wait=1), which the
// now-free origin admits at the price already paid. Every POST ends
// with its body, so none is cut mid-stream and every /pay reply's
// credited tally arrives.
func (h *httpFlood) flow() {
	defer h.done.Done()
	var prev *heldGet
	defer func() { h.finishGet(prev) }()
	for !h.stop.Load() {
		id, opened := h.ids.open(), time.Now()
		inWindow := h.recording.Load()
		if inWindow {
			h.win.offered++
		}
		for {
			if !h.pay(id) {
				return
			}
			if prev == nil || prev.finished() || h.stop.Load() {
				break
			}
		}
		ok := h.finishGet(prev)
		prev = nil
		if !ok || h.stop.Load() {
			return // id keeps its balance as an orphan channel
		}
		prev = h.startGet(id, opened, inWindow)
	}
}

// pay sends one POST /pay for id and reports whether the thinner asked
// for more.
func (h *httpFlood) pay(id core.RequestID) bool {
	h.bucket.Take(httpPostBytes)
	start := time.Now()
	var reply payReply
	resp, err := h.post.Post(fmt.Sprintf("%s/pay?id=%d", h.base, id), "application/octet-stream",
		&payBody{left: httpPostBytes})
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
	}
	h.requests.Add(1)
	h.posts.Add(1)
	if h.traced && h.recording.Load() {
		h.postTimes = append(h.postTimes, time.Since(start).Seconds())
	}
	if err != nil || reply.Status != "continue" {
		h.win.failed++
		h.errs = append(h.errs, fmt.Sprintf("POST id %d: status %q err %v", id, reply.Status, err))
		return false
	}
	h.replied += reply.Paid
	return true
}

// heldGet is one GET /request?wait=1 in flight.
type heldGet struct {
	id       core.RequestID
	opened   time.Time // the id was opened: its first POST /pay fell due
	inWindow bool
	done     chan struct{}
	status   int
	body     []byte
	err      error
	at       time.Time
}

func (h *httpFlood) startGet(id core.RequestID, opened time.Time, inWindow bool) *heldGet {
	g := &heldGet{id: id, opened: opened, inWindow: inWindow, done: make(chan struct{})}
	go func() {
		defer close(g.done)
		resp, err := h.get.Get(fmt.Sprintf("%s/request?id=%d&wait=1", h.base, id))
		if err == nil {
			g.body, err = io.ReadAll(resp.Body)
			g.status = resp.StatusCode
			resp.Body.Close()
		}
		g.err, g.at = err, time.Now()
	}()
	return g
}

func (g *heldGet) finished() bool {
	select {
	case <-g.done:
		return true
	default:
		return false
	}
}

// finishGet waits for a held GET and records its outcome; it reports
// whether the request was served.
func (h *httpFlood) finishGet(g *heldGet) bool {
	if g == nil {
		return true
	}
	<-g.done
	h.requests.Add(1)
	rec := h.recording.Load()
	if g.err != nil || g.status != http.StatusOK {
		h.win.failed++
		h.errs = append(h.errs, fmt.Sprintf("GET id %d: status %d err %v", g.id, g.status, g.err))
		return false
	}
	if string(g.body) != string(h.body) {
		h.errs = append(h.errs, "GET body differs from the origin's response")
	}
	h.admitted++
	if rec {
		h.win.admits++
		h.win.wait(g.at, ms(g.at.Sub(g.opened)))
	}
	if g.inWindow {
		h.win.served++
	}
	return true
}

// finish stops the flow, checks the deployment and tears it down:
// every admission was an opened id, served once; the /pay replies'
// credited tallies sum exactly to the front's payment bytes; nothing
// is left after teardown.
func (h *httpFlood) finish(rep *report) {
	h.stop.Store(true)
	h.done.Wait()
	for _, e := range h.errs {
		rep.fail("http_flood: %s", e)
	}
	served := h.rig.origin.checkServed(rep, h.ids.isOpened)
	if h.admitted > int64(served) {
		rep.fail("http_flood: clients saw %d admissions, origin served %d", h.admitted, served)
	}
	snap := h.rig.front.Snapshot()
	if h.replied != snap.PaymentBytes {
		rep.fail("http_flood: /pay replies credited %d bytes, front payment_bytes %d", h.replied, snap.PaymentBytes)
	}
	rep.layer["core.conservation_drift_bytes"] = float64(h.rig.drift())
	h.get.CloseIdleConnections()
	h.post.CloseIdleConnections()
	if err := h.rig.close(); err != nil {
		rep.fail("http_flood: %v", err)
	}
}

func runHTTPFlood(o opts) *report {
	rep := newReport()
	var h *httpFlood
	setup, setups := medianOf(setupRepeats, func() time.Duration {
		if h != nil {
			h.finish(rep)
		}
		start := time.Now()
		var err error
		if h, err = startHTTPFlood(o.seed, o.traced); err != nil {
			rep.fail("http_flood setup: %v", err)
		}
		return time.Since(start)
	})
	rep.e2e["setup_s"] = setup
	rep.info["setup_samples_s"] = setups
	if h == nil {
		return rep
	}

	measure := o.measure
	if o.tiny {
		measure = 300 * time.Millisecond
	}
	posts0 := h.posts.Load()
	lw := openLiveWindow(h.rig, o.traced)
	h.recording.Store(true)
	lw.run(h.rig, measure)
	h.recording.Store(false)
	goroutines := runtime.NumGoroutine()
	lw.close(h.rig, rep, func(_, _ liveCounters) float64 { return float64(h.posts.Load() - posts0) })
	// The flow goroutine owns the tallies; read them after it stops.
	h.stop.Store(true)
	h.done.Wait()
	rep.layer["web.post_s_p50"] = quantile(h.postTimes, 0.5)
	fillGood(rep, h.win, h.win.admits)
	rep.attempted = h.win.offered
	rep.failed = h.win.failed
	rep.info["connections"] = 2
	rep.info["goroutines"] = goroutines
	rep.info["post_bytes"] = httpPostBytes
	rep.info["good_wait_samples"] = len(h.win.waits)
	rep.info["wait_clock"] = "wall time, the id opened (its first POST /pay due) to its GET's 200 response"
	rep.info["events"] = "HTTP requests completed (GET /request and POST /pay)"
	h.finish(rep)
	return rep
}
