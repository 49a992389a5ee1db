package main

import (
	"bytes"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"speakup/internal/core"
	"speakup/internal/loadgen"
	"speakup/internal/wire"
)

// The paper's §7 setup on loopback: a good and a bad cohort, each one
// wire connection whose upload a token bucket paces (G = B, so the
// good fraction of bandwidth f = 0.5), open-loop seeded Poisson
// arrivals, and an origin serving about 1000 requests a second. The
// bad window holds hundreds of contenders. G + B is small enough that
// the whole process stays well under half the host's CPU, so pacing —
// not the scheduler — sets the shares.
const (
	pacedService    = time.Millisecond // origin service time, ±10% seeded jitter
	pacedJitter     = 0.1
	pacedChunk      = 64 << 10 // CREDIT frame per bucket take
	pacedWarmAdmits = 100
	pacedBurst      = 1 << 20 // token-bucket depth
)

// pacedCohort describes one cohort: its upload bandwidth, Poisson
// arrival rate and window of outstanding requests.
type pacedCohort struct {
	good   bool
	bits   float64 // upload, bits/s
	lambda float64 // arrivals/s
	window int
}

var pacedCohorts = [2]pacedCohort{
	{good: true, bits: 800e6, lambda: 600, window: 64},
	{good: false, bits: 800e6, lambda: 2000, window: 512},
}

// pacedReq is one outstanding request.
type pacedReq struct {
	id       core.RequestID
	due      time.Time
	inWindow bool
}

// pacedConn is one cohort's connection, bucket, and outstanding set.
type pacedConn struct {
	spec   pacedCohort
	wc     *wire.Client
	bucket *loadgen.TokenBucket
	ids    *ids
	body   []byte
	traced bool

	recording *atomic.Bool
	stop      atomic.Bool
	payer     sync.WaitGroup
	waiters   sync.WaitGroup // one per outstanding request

	mu        sync.Mutex
	active    []*pacedReq // paid round-robin
	next      int
	written   int64
	admitted  int64
	teardowns int64
	credits   []float64 // traced: µs inside wire.Client.Credit
	win       tally
	drops     int64 // window drops inside the measured window
	errs      []string
}

// arrive handles one arrival due at due: a window drop when the cohort
// already has its window outstanding, otherwise an OPEN.
func (c *pacedConn) arrive(due time.Time) {
	rec := c.recording.Load()
	c.mu.Lock()
	if rec {
		c.win.offered++
	}
	if len(c.active) >= c.spec.window {
		if rec {
			c.drops++
		}
		c.mu.Unlock()
		return
	}
	r := &pacedReq{id: c.ids.open(), due: due, inWindow: rec}
	c.active = append(c.active, r)
	c.mu.Unlock()
	res, err := c.wc.Open(r.id)
	if err != nil {
		c.mu.Lock()
		c.teardowns++
		c.remove(r)
		c.mu.Unlock()
		return
	}
	c.waiters.Add(1)
	go c.await(r, res)
}

// await collects one request's verdict.
func (c *pacedConn) await(r *pacedReq, res <-chan wire.Result) {
	defer c.waiters.Done()
	v := <-res
	now := time.Now()
	rec := c.recording.Load()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.remove(r)
	if v.Status != wire.StatusAdmitted {
		if c.stop.Load() && v.Status == wire.StatusError {
			return // the connection closed at the end of the run
		}
		if rec || r.inWindow {
			c.win.failed++
		}
		c.errs = append(c.errs, "request ended "+v.Status.String())
		return
	}
	c.admitted++
	if !bytes.Equal(v.Body, c.body) {
		c.errs = append(c.errs, "ADMIT body differs from the origin's response")
	}
	if rec {
		c.win.admits++
	}
	if r.inWindow && rec {
		c.win.served++
		c.win.wait(now, ms(now.Sub(r.due)))
	}
}

func (c *pacedConn) remove(r *pacedReq) {
	for i, a := range c.active {
		if a == r {
			last := len(c.active) - 1
			c.active[i] = c.active[last]
			c.active[last] = nil
			c.active = c.active[:last]
			return
		}
	}
}

// pay spends the cohort's bucket on its outstanding requests, one
// chunk each in turn.
func (c *pacedConn) pay() {
	defer c.payer.Done()
	for !c.stop.Load() {
		c.mu.Lock()
		if len(c.active) == 0 {
			c.mu.Unlock()
			time.Sleep(200 * time.Microsecond)
			continue
		}
		c.next = (c.next + 1) % len(c.active)
		id := c.active[c.next].id
		c.mu.Unlock()
		c.bucket.Take(pacedChunk)
		var err error
		if c.traced {
			t0 := time.Now()
			err = c.wc.Credit(id, pacedChunk)
			d := float64(time.Since(t0).Nanoseconds()) / 1e3
			c.mu.Lock()
			c.credits = append(c.credits, d)
			c.mu.Unlock()
		} else {
			err = c.wc.Credit(id, pacedChunk)
		}
		c.mu.Lock()
		if err != nil {
			c.teardowns++
			c.mu.Unlock()
			return
		}
		c.written += pacedChunk
		c.mu.Unlock()
	}
}

// pacedDeployment is one paced_attack deployment.
type pacedDeployment struct {
	rig       *rig
	conns     []*pacedConn
	ids       *ids
	recording atomic.Bool
	rng       *rand.Rand

	gen    sync.WaitGroup
	stop   atomic.Bool
	lateMu sync.Mutex
	late   []float64 // traced: ms each arrival was handled after it was due
}

func startPaced(seed int64, traced bool) (*pacedDeployment, error) {
	org := newOrigin(seed, pacedService, pacedJitter, traced)
	r, err := newRig(org, rigConfig{wire: true, traced: traced})
	if err != nil {
		return nil, err
	}
	d := &pacedDeployment{rig: r, ids: newIDs(), rng: rand.New(rand.NewSource(seed + 1))}
	nconn := min(len(pacedCohorts), runtime.NumCPU())
	for i, spec := range pacedCohorts {
		var wc *wire.Client
		if i < nconn {
			if wc, err = wire.Dial(r.wireLn.Addr().String()); err != nil {
				d.teardown()
				return nil, err
			}
		} else {
			wc = d.conns[0].wc // one CPU: both cohorts share one connection
		}
		d.conns = append(d.conns, &pacedConn{
			spec: spec, wc: wc, ids: d.ids, body: org.body, traced: traced,
			bucket:    loadgen.NewTokenBucket(spec.bits, pacedBurst),
			recording: &d.recording,
		})
	}
	for _, c := range d.conns {
		c.payer.Add(1)
		go c.pay()
	}
	d.gen.Add(1)
	go d.generate()
	for org.count.Load() < pacedWarmAdmits {
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

// generate is the open-loop arrival process: each cohort's arrivals
// are a seeded Poisson schedule in absolute time, handled as soon as
// they fall due however late the generator runs.
func (d *pacedDeployment) generate() {
	defer d.gen.Done()
	start := time.Now()
	next := make([]time.Duration, len(d.conns))
	gap := func(i int) time.Duration {
		return time.Duration(d.rng.ExpFloat64() / d.conns[i].spec.lambda * float64(time.Second))
	}
	for i := range next {
		next[i] = gap(i)
	}
	for !d.stop.Load() {
		now := time.Since(start)
		soonest := time.Duration(1<<63 - 1)
		for i, c := range d.conns {
			for next[i] <= now {
				due := start.Add(next[i])
				if c.traced {
					late := ms(time.Since(due))
					d.lateMu.Lock()
					d.late = append(d.late, late)
					d.lateMu.Unlock()
				}
				c.arrive(due)
				next[i] += gap(i)
			}
			soonest = min(soonest, next[i])
		}
		if wait := soonest - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
	}
}

func (d *pacedDeployment) stopLoad() {
	d.stop.Store(true)
	d.gen.Wait()
	for _, c := range d.conns {
		c.stop.Store(true)
	}
	for _, c := range d.conns {
		c.payer.Wait()
	}
}

func (d *pacedDeployment) teardown() error {
	d.stopLoad()
	for _, c := range d.conns {
		c.wc.Close()
	}
	for _, c := range d.conns {
		c.waiters.Wait()
	}
	return d.rig.close()
}

// finish stops the load, checks the deployment and tears it down.
func (d *pacedDeployment) finish(rep *report) {
	d.stopLoad()
	d.rig.quiesce()
	var written, admitted int64
	for _, c := range d.conns {
		c.mu.Lock()
		written += c.written
		admitted += c.admitted
		for _, e := range c.errs {
			rep.fail("paced_attack: %s", e)
		}
		c.mu.Unlock()
	}
	served := d.rig.origin.checkServed(rep, d.ids.isOpened)
	if admitted > int64(served) {
		rep.fail("paced_attack: clients saw %d ADMITs, origin served %d", admitted, served)
	}
	snap := d.rig.front.Snapshot()
	ingest := snap.WireIngestBytes
	if ingest != snap.PaymentBytes {
		rep.fail("paced_attack: wire_ingest_bytes %d != payment_bytes %d", ingest, snap.PaymentBytes)
	}
	settles := int64(snap.ThinnerTotals.Admitted+snap.ThinnerTotals.Evicted) + 1
	if ingest > written || written-ingest > settles*pacedChunk {
		rep.fail("paced_attack: clients wrote %d bytes, server credited %d (settles %d)", written, ingest, settles)
	}
	rep.layer["core.conservation_drift_bytes"] = float64(d.rig.drift())
	if err := d.teardown(); err != nil {
		rep.fail("paced_attack: %v", err)
	}
}

func runPacedAttack(o opts) *report {
	rep := newReport()
	var d *pacedDeployment
	setup, setups := medianOf(setupRepeats, func() time.Duration {
		if d != nil {
			d.finish(rep)
		}
		start := time.Now()
		var err error
		if d, err = startPaced(o.seed, o.traced); err != nil {
			rep.fail("paced_attack setup: %v", err)
		}
		return time.Since(start)
	})
	rep.e2e["setup_s"] = setup
	rep.info["setup_samples_s"] = setups
	if d == nil {
		return rep
	}

	measure := o.measure
	if o.tiny {
		measure = 300 * time.Millisecond
	}
	lw := openLiveWindow(d.rig, o.traced)
	d.recording.Store(true)
	lw.run(d.rig, measure)
	d.recording.Store(false)
	goroutines := runtime.NumGoroutine()
	admits := func(c0, c1 liveCounters) float64 { return float64(c1.served - c0.served) }
	lw.close(d.rig, rep, admits)
	rep.costPerOp = lw.win.cpu.Seconds() / admits(lw.c0, lw.c1)

	var good, bad tally
	var credits []float64
	var teardowns, drops int64
	for _, c := range d.conns {
		c.mu.Lock()
		if c.spec.good {
			good = c.win // no wait is added once recording stops
		} else {
			bad = c.win
		}
		credits = append(credits, c.credits...)
		teardowns += c.teardowns
		drops += c.drops
		rep.attempted += c.win.offered - c.drops
		rep.failed += c.win.failed
		c.mu.Unlock()
	}
	rep.failed += teardowns
	fillGood(rep, good, good.admits+bad.admits)
	d.lateMu.Lock()
	rep.layer["loadgen.late_ms_p99"] = quantile(d.late, 0.99)
	d.lateMu.Unlock()
	rep.layer["loadgen.window_drops"] = float64(drops)
	rep.layer["wire.client_credit_us_p50"] = quantile(credits, 0.5)
	rep.layer["wire.client_credit_us_p99"] = quantile(credits, 0.99)
	rep.layer["wire.teardowns"] = float64(teardowns)
	rep.info["connections"] = min(len(pacedCohorts), runtime.NumCPU())
	rep.info["cohorts"] = []map[string]any{
		{"good": true, "upload_bits": pacedCohorts[0].bits, "lambda": pacedCohorts[0].lambda, "window": pacedCohorts[0].window},
		{"good": false, "upload_bits": pacedCohorts[1].bits, "lambda": pacedCohorts[1].lambda, "window": pacedCohorts[1].window},
	}
	rep.info["good_bandwidth_fraction"] = pacedCohorts[0].bits / (pacedCohorts[0].bits + pacedCohorts[1].bits)
	rep.info["goroutines"] = goroutines
	rep.info["good_wait_samples"] = len(good.waits)
	rep.info["wait_clock"] = "wall time, arrival due time to ADMIT"
	d.finish(rep)
	return rep
}
