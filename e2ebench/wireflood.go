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

const (
	floodFrame       = 4 << 10               // CREDIT frame payload
	floodService     = 10 * time.Millisecond // origin service time: ~100 admissions/s
	floodWarmAdmits  = 10                    // set-up ends at this many admissions
	floodSchedule    = 4096                  // length of the seeded frame schedule
	floodCreditEvery = 16                    // traced: time one Credit call in this many
	// floodBits paces each connection's frames with a token bucket
	// floodBurst deep, taken floodTake frames at a time. Unpaced, the
	// byte rate followed the CPU the host lent the process (1.4 to 1.9
	// of 2 CPUs between runs minutes apart) and moved by a quarter;
	// 300 MB/s a connection is about a quarter of that capacity, so the
	// pace sets the byte rate and its cost shows in the process's CPU.
	floodBits  = 8 * 300e6
	floodBurst = 1 << 20
	floodTake  = 16
)

// floodChannelSplit is the number of channels each connection carries:
// a few on the "good" connection, many on the "bad" one. Both are paced
// at floodBits, so their bandwidths are equal and the paper predicts
// equal admission shares whatever the channel counts.
var floodChannelSplit = [2]int{8, 56}

// ids hands out request ids unique within one deployment, and
// remembers every id a client opened for the admission checks.
type ids struct {
	next   atomic.Uint64
	mu     sync.Mutex
	opened map[core.RequestID]bool
}

func newIDs() *ids { return &ids{opened: make(map[core.RequestID]bool)} }

func (s *ids) open() core.RequestID {
	id := core.RequestID(s.next.Add(1))
	s.mu.Lock()
	s.opened[id] = true
	s.mu.Unlock()
	return id
}

func (s *ids) isOpened(id core.RequestID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opened[id]
}

// tally is one cohort's outcome counts and waits inside the measured
// window.
type tally struct {
	offered, served, admits, failed int64
	waits                           []float64   // ms, open (or due time) to ADMIT
	waitAt                          []time.Time // when each wait ended
}

func (t *tally) wait(at time.Time, ms float64) {
	t.waits = append(t.waits, ms)
	t.waitAt = append(t.waitAt, at)
}

// floodChan is one channel slot of a flooding connection.
type floodChan struct {
	id       core.RequestID
	res      <-chan wire.Result
	opened   time.Time
	inWindow bool
}

// floodConn is one wire connection and the channels it floods.
type floodConn struct {
	wc       *wire.Client
	ids      *ids
	body     []byte
	chans    []floodChan
	schedule []int
	bucket   *loadgen.TokenBucket
	traced   bool

	recording *atomic.Bool
	stop      atomic.Bool
	done      sync.WaitGroup

	// Sender-owned until done.Wait returns.
	written   int64
	admitted  int64 // ADMITs received over the deployment's life
	teardowns int64
	credits   []float64 // traced: µs inside wire.Client.Credit
	win       tally
	errs      []string
}

func newFloodConn(wc *wire.Client, s *ids, n int, rng *rand.Rand, recording *atomic.Bool, body []byte, traced bool) (*floodConn, error) {
	c := &floodConn{wc: wc, ids: s, body: body, recording: recording, traced: traced,
		bucket: loadgen.NewTokenBucket(floodBits, floodBurst)}
	c.chans = make([]floodChan, n)
	for i := range c.chans {
		if err := c.reopen(&c.chans[i], time.Now()); err != nil {
			return nil, err
		}
	}
	// The frame schedule: seeded permutations of the channel slots,
	// repeated, so the order frames hit channels comes from the seed.
	for len(c.schedule) < floodSchedule {
		c.schedule = append(c.schedule, rng.Perm(n)...)
	}
	return c, nil
}

func (c *floodConn) reopen(ch *floodChan, now time.Time) error {
	id := c.ids.open()
	res, err := c.wc.Open(id)
	if err != nil {
		return err
	}
	*ch = floodChan{id: id, res: res, opened: now, inWindow: c.recording.Load()}
	if ch.inWindow {
		c.win.offered++
	}
	return nil
}

// settle records a channel's verdict.
func (c *floodConn) settle(ch *floodChan, r wire.Result, now time.Time) {
	rec := c.recording.Load()
	if r.Status != wire.StatusAdmitted {
		if rec {
			c.win.failed++
		}
		return
	}
	c.admitted++
	if !bytes.Equal(r.Body, c.body) {
		c.errs = append(c.errs, "ADMIT body differs from the origin's response")
	}
	if rec {
		c.win.admits++
		c.win.wait(now, ms(now.Sub(ch.opened)))
	}
	if ch.inWindow {
		c.win.served++
	}
}

func (c *floodConn) run() {
	defer c.done.Done()
	for i := 0; !c.stop.Load(); i++ {
		ch := &c.chans[c.schedule[i%len(c.schedule)]]
		select {
		case r := <-ch.res:
			now := time.Now()
			c.settle(ch, r, now)
			if err := c.reopen(ch, now); err != nil {
				c.teardowns++
				return
			}
		default:
		}
		if i%floodTake == 0 {
			c.bucket.Take(floodTake * floodFrame)
		}
		var err error
		if c.traced && i%floodCreditEvery == 0 {
			t0 := time.Now()
			err = c.wc.Credit(ch.id, floodFrame)
			c.credits = append(c.credits, float64(time.Since(t0).Nanoseconds())/1e3)
		} else {
			err = c.wc.Credit(ch.id, floodFrame)
		}
		if err != nil {
			c.teardowns++
			return
		}
		c.written += floodFrame
	}
}

// floodDeployment is one wire_flood deployment: a front on loopback and
// two flooding connections.
type floodDeployment struct {
	rig       *rig
	conns     []*floodConn
	ids       *ids
	recording atomic.Bool
}

func startWireFlood(seed int64, traced bool) (*floodDeployment, error) {
	org := newOrigin(seed, floodService, 0, traced)
	r, err := newRig(org, rigConfig{wire: true, traced: traced})
	if err != nil {
		return nil, err
	}
	d := &floodDeployment{rig: r, ids: newIDs()}
	rng := rand.New(rand.NewSource(seed))
	nconn := min(len(floodChannelSplit), runtime.NumCPU())
	for i := 0; i < len(floodChannelSplit); i++ {
		var wc *wire.Client
		if i < nconn {
			if wc, err = wire.Dial(r.wireLn.Addr().String()); err != nil {
				d.teardown()
				return nil, err
			}
		} else {
			wc = d.conns[0].wc // one CPU: both cohorts share one connection
		}
		c, err := newFloodConn(wc, d.ids, floodChannelSplit[i], rng, &d.recording, org.body, traced)
		if err != nil {
			wc.Close()
			d.teardown()
			return nil, err
		}
		d.conns = append(d.conns, c)
	}
	for _, c := range d.conns {
		c.done.Add(1)
		go c.run()
	}
	for org.count.Load() < floodWarmAdmits {
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

// stopSenders stops every sender and waits for it to return.
func (d *floodDeployment) stopSenders() {
	for _, c := range d.conns {
		c.stop.Store(true)
	}
	for _, c := range d.conns {
		c.done.Wait()
	}
}

// teardown closes the clients and the deployment and runs the
// end-of-life checks.
func (d *floodDeployment) teardown() error {
	d.stopSenders()
	for _, c := range d.conns {
		c.wc.Close()
	}
	return d.rig.close()
}

// check runs the flood's correctness checks after the senders stopped:
// every admission was an opened id, served once; every byte the
// clients wrote was credited except the spans the server drops by
// design when a channel settles mid-frame (at most one frame per
// settle); after teardown nothing is left.
func (d *floodDeployment) check(rep *report) {
	d.rig.quiesce()
	var written, admitted int64
	for _, c := range d.conns {
		written += c.written
		admitted += c.admitted
		for _, e := range c.errs {
			rep.fail("wire_flood: %s", e)
		}
	}
	served := d.rig.origin.checkServed(rep, d.ids.isOpened)
	if admitted > int64(served) {
		rep.fail("wire_flood: clients saw %d ADMITs, origin served %d", admitted, served)
	}
	snap := d.rig.front.Snapshot()
	ingest := snap.WireIngestBytes
	if ingest != snap.PaymentBytes {
		rep.fail("wire_flood: wire_ingest_bytes %d != payment_bytes %d", ingest, snap.PaymentBytes)
	}
	settles := int64(snap.ThinnerTotals.Admitted+snap.ThinnerTotals.Evicted) + 1
	if ingest > written || written-ingest > settles*floodFrame {
		rep.fail("wire_flood: clients wrote %d bytes, server credited %d (settles %d)", written, ingest, settles)
	}
	rep.info["bytes_written"] = written
	rep.info["bytes_credited"] = ingest
	rep.layer["core.conservation_drift_bytes"] = float64(d.rig.drift())
}

func runWireFlood(o opts) *report {
	rep := newReport()
	var d *floodDeployment
	setup, setups := medianOf(setupRepeats, func() time.Duration {
		if d != nil {
			d.finish(rep)
		}
		start := time.Now()
		var err error
		if d, err = startWireFlood(o.seed, o.traced); err != nil {
			rep.fail("wire_flood setup: %v", err)
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
	lw.close(d.rig, rep, func(c0, c1 liveCounters) float64 { return float64(c1.frames - c0.frames) })
	d.stopSenders()

	good, bad := d.conns[0].win, d.conns[1].win
	fillGood(rep, good, good.admits+bad.admits)
	var credits []float64
	var teardowns int64
	for _, c := range d.conns {
		credits = append(credits, c.credits...)
		teardowns += c.teardowns
		rep.attempted += c.win.offered
		rep.failed += c.win.failed
	}
	rep.failed += teardowns
	rep.layer["wire.client_credit_us_p50"] = quantile(credits, 0.5)
	rep.layer["wire.client_credit_us_p99"] = quantile(credits, 0.99)
	rep.layer["wire.teardowns"] = float64(teardowns)
	rep.info["connections"] = min(len(floodChannelSplit), runtime.NumCPU())
	rep.info["channels_per_connection"] = floodChannelSplit
	rep.info["frame_bytes"] = floodFrame
	rep.info["goroutines"] = goroutines
	rep.info["good_wait_samples"] = len(good.waits)
	rep.info["wait_clock"] = "wall time, OPEN to ADMIT"

	d.finish(rep)
	return rep
}

// finish stops the senders, checks the deployment and tears it down.
func (d *floodDeployment) finish(rep *report) {
	d.stopSenders()
	d.check(rep)
	if err := d.teardown(); err != nil {
		rep.fail("wire_flood: %v", err)
	}
}

// fillGood sets the paper's observables from the good cohort's tally;
// allAdmits counts every cohort's admissions in the window.
func fillGood(rep *report, good tally, allAdmits int64) {
	if allAdmits > 0 {
		rep.e2e["good_share"] = float64(good.admits) / float64(allAdmits)
	}
	if good.offered > 0 {
		rep.e2e["good_served_fraction"] = float64(good.served) / float64(good.offered)
	}
	rep.e2e["good_wait_p99_ms"] = slicedP99(good)
	rep.e2e["good_wait_p50_ms"] = quantile(good.waits, 0.5)
	rep.layer["good_wait.samples"] = float64(len(good.waits))
}

// waitSlices is how many equal slices of the window slicedP99 takes.
const waitSlices = 4

// slicedP99 is the median over waitSlices equal time slices of the
// window of each slice's 99th-percentile wait, so one stall of the
// host moves at most one slice.
func slicedP99(t tally) float64 {
	if len(t.waits) == 0 {
		return 0
	}
	first, last := t.waitAt[0], t.waitAt[0]
	for _, at := range t.waitAt {
		if at.Before(first) {
			first = at
		}
		if at.After(last) {
			last = at
		}
	}
	span := last.Sub(first) + 1
	slices := make([][]float64, waitSlices)
	for i, at := range t.waitAt {
		k := int(int64(at.Sub(first)) * waitSlices / int64(span))
		slices[k] = append(slices[k], t.waits[i])
	}
	var p99s []float64
	for _, s := range slices {
		if len(s) > 0 {
			p99s = append(p99s, quantile(s, 0.99))
		}
	}
	return median(p99s)
}
