package main

import (
	"errors"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"speakup/internal/core"
	"speakup/internal/trace"
	"speakup/internal/web"
	"speakup/internal/wire"
)

// origin is the benchmark's own protected service: one request at a
// time (the front serializes Serve calls), each held for a service
// time drawn from a seeded RNG, so its schedule repeats for a seed —
// web.EmulatedOrigin draws its jitter from the wall clock and cannot.
// It records every id it serves, for the admission checks.
type origin struct {
	service time.Duration
	jitter  float64 // service time is drawn from service × [1-jitter, 1+jitter]
	traced  bool    // time the gap between Serve calls

	mu       sync.Mutex
	rng      *rand.Rand
	served   map[core.RequestID]int
	count    atomic.Int64
	lastEnd  time.Time
	deadline time.Time // when the current (or last) service ends
	gaps     []float64 // ms from one Serve's return to the next call
	busy     time.Duration
	body     []byte
}

// originSlack is how many service times late a request may start and
// still be served on the running grid.
const originSlack = 20

func newOrigin(seed int64, service time.Duration, jitter float64, traced bool) *origin {
	return &origin{
		service: service,
		jitter:  jitter,
		traced:  traced,
		rng:     rand.New(rand.NewSource(seed)),
		served:  make(map[core.RequestID]int),
		body:    []byte("ok: served by the benchmark origin\n"),
	}
}

func (o *origin) serve(id core.RequestID) ([]byte, error) {
	start := time.Now()
	o.mu.Lock()
	d := o.service
	if o.jitter > 0 {
		d = time.Duration(float64(d) * (1 - o.jitter + 2*o.jitter*o.rng.Float64()))
	}
	o.served[id]++
	if o.traced && !o.lastEnd.IsZero() {
		o.gaps = append(o.gaps, ms(start.Sub(o.lastEnd)))
	}
	// Service ends at a deadline carried over from the previous
	// request, so a sleep that overshoots (timers wake on a coarse
	// grid) is made up on the next one and a busy origin serves at
	// 1/service on average. After an idle spell the grid restarts.
	if start.Sub(o.deadline) > originSlack*o.service {
		o.deadline = start
	}
	o.deadline = o.deadline.Add(d)
	deadline := o.deadline
	o.mu.Unlock()
	time.Sleep(time.Until(deadline))
	end := time.Now()
	o.mu.Lock()
	o.busy += end.Sub(start)
	o.lastEnd = end
	o.mu.Unlock()
	o.count.Add(1)
	return o.body, nil
}

// busyTime returns the origin's accumulated time inside Serve.
func (o *origin) busyTime() time.Duration {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.busy
}

// checkServed verifies that the origin served only ids the clients
// opened, each exactly once, and returns how many it served.
func (o *origin) checkServed(rep *report, opened func(core.RequestID) bool) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	bad, twice := 0, 0
	for id, n := range o.served {
		if !opened(id) {
			bad++
		}
		if n > 1 {
			twice++
		}
	}
	if bad > 0 {
		rep.fail("origin served %d ids no client opened", bad)
	}
	if twice > 0 {
		rep.fail("origin served %d ids more than once", twice)
	}
	return len(o.served)
}

// rig is one live deployment on loopback: a front over the benchmark's
// origin, with a wire listener, an HTTP listener, or both.
type rig struct {
	origin  *origin
	front   *web.Front
	wireSrv *wire.Server
	wireLn  net.Listener
	httpSrv *http.Server
	httpLn  net.Listener
	serving sync.WaitGroup
	// events counts the workload's events when they are not the wire
	// frames the front decodes (nil: wire frames).
	events func() int64
}

type rigConfig struct {
	wire, http bool
	traced     bool // arm the front's sampled request tracer
}

func newRig(org *origin, rc rigConfig) (*rig, error) {
	cfg := web.Config{}
	if rc.traced {
		cfg.Trace = trace.Config{Sample: 64}
	}
	r := &rig{origin: org, front: web.NewFront(web.OriginFunc(org.serve), cfg)}
	if rc.wire {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.front.Close()
			return nil, err
		}
		r.wireLn = ln
		r.wireSrv = wire.NewServer(r.front, wire.ServerConfig{
			Registry: r.front.Registry(),
			Tracer:   r.front.Tracer(),
		})
		r.serving.Add(1)
		go func() { defer r.serving.Done(); r.wireSrv.Serve(ln) }()
	}
	if rc.http {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		r.httpLn = ln
		r.httpSrv = &http.Server{Handler: r.front}
		r.serving.Add(1)
		go func() { defer r.serving.Done(); r.httpSrv.Serve(ln) }()
	}
	return r, nil
}

// close stops the listeners and the front, then checks that nothing
// was left behind: no registered waiters and no open wire connections.
// Clients must be closed first.
func (r *rig) close() error {
	if r.wireSrv != nil {
		r.wireSrv.Close()
	}
	if r.httpSrv != nil {
		r.httpSrv.Close()
	}
	r.serving.Wait()
	var err error
	deadline := time.Now().Add(3 * time.Second)
	for {
		s := r.front.Snapshot()
		waiters := r.front.Table().Waiters()
		if s.WireConns == 0 && waiters == 0 {
			break
		}
		if time.Now().After(deadline) {
			err = errors.New("after teardown: waiters or wire connections remain")
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	r.front.Close()
	return err
}

// quiesce waits until the front's credited total stops moving, so
// every byte the clients wrote has been read and counted.
func (r *rig) quiesce() {
	last := r.front.Table().TotalCredited()
	for i := 0; i < 200; i++ {
		time.Sleep(10 * time.Millisecond)
		cur := r.front.Table().TotalCredited()
		if cur == last {
			return
		}
		last = cur
	}
}

// drift is the payment book's conservation error: bytes credited
// minus bytes still held minus bytes settled. It should read 0; a
// Credit racing a settle can leave it nonzero (a known race), so it is
// reported, never gated.
func (r *rig) drift() int64 {
	t := r.front.Table()
	return t.TotalCredited() - t.OutstandingBytes() - t.TotalRemoved()
}

// liveSampler reads the front's public snapshot every interval during a
// traced window: contenders, open channels and the going price.
type liveSampler struct {
	stop       chan struct{}
	done       sync.WaitGroup
	contenders []float64
	open       []float64
	price      []float64
}

func startLiveSampler(f *web.Front, every time.Duration) *liveSampler {
	s := &liveSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				snap := f.Snapshot()
				s.contenders = append(s.contenders, float64(snap.Contenders))
				s.open = append(s.open, float64(snap.OpenChannels))
				if snap.GoingRate > 0 {
					s.price = append(s.price, float64(snap.GoingRate))
				}
			}
		}
	}()
	return s
}

func (s *liveSampler) finish(l map[string]float64) {
	close(s.stop)
	s.done.Wait()
	l["core.contenders_p50"] = quantile(s.contenders, 0.5)
	l["core.open_channels_p50"] = quantile(s.open, 0.5)
	l["core.price_kb_p50"] = quantile(s.price, 0.5) / 1e3
}

// liveCounters is a reading of the front's public counters.
type liveCounters struct {
	served   int64 // origin completions
	credited int64 // payment bytes credited, all transports
	events   int64 // the workload's unit of work (rig.events)
	frames   uint64
	admitted uint64
	direct   uint64
	auctions uint64
	evicted  uint64
	wasted   int64
}

func readCounters(r *rig) liveCounters {
	s := r.front.Snapshot()
	var events int64
	if r.events != nil {
		events = r.events()
	} else {
		events = int64(s.WireFrames)
	}
	return liveCounters{
		events:   events,
		served:   r.origin.count.Load(),
		credited: s.PaymentBytes,
		frames:   s.WireFrames,
		admitted: s.ThinnerTotals.Admitted,
		direct:   s.ThinnerTotals.AdmittedDirect,
		auctions: s.ThinnerTotals.Auctions,
		evicted:  s.ThinnerTotals.Evicted,
		wasted:   s.ThinnerTotals.WastedBytes,
	}
}

// subWindow is the length of the slices a live window is measured in;
// rates are the median over slices, so a short stall of the host does
// not move them.
const subWindow = 500 * time.Millisecond

// liveWindow is one measured interval of a live workload.
type liveWindow struct {
	win        *window
	c0, c1     liveCounters
	originBusy time.Duration
	heap       *heapPeak
	sampler    *liveSampler
	gaps0      int

	// Per-slice rates.
	credited, creditedCPU, admits, admitsCPU, events, eventsCPU []float64
}

// run measures for d in subWindow slices.
func (lw *liveWindow) run(r *rig, d time.Duration) {
	end := time.Now().Add(d)
	t0, cpu0, c0 := time.Now(), cpuTime(), readCounters(r)
	for {
		left := time.Until(end)
		if left <= 0 {
			return
		}
		time.Sleep(min(left, subWindow))
		t1, cpu1, c1 := time.Now(), cpuTime(), readCounters(r)
		wall, cpu := t1.Sub(t0).Seconds(), (cpu1 - cpu0).Seconds()
		credited := float64(c1.credited - c0.credited)
		admits := float64(c1.served - c0.served)
		events := float64(c1.events - c0.events)
		lw.credited = append(lw.credited, credited/wall)
		lw.creditedCPU = append(lw.creditedCPU, credited/cpu)
		lw.admits = append(lw.admits, admits/wall)
		lw.admitsCPU = append(lw.admitsCPU, admits/cpu)
		lw.events = append(lw.events, events/wall)
		lw.eventsCPU = append(lw.eventsCPU, events/cpu)
		t0, cpu0, c0 = t1, cpu1, c1
	}
}

func openLiveWindow(r *rig, traced bool) *liveWindow {
	lw := &liveWindow{c0: readCounters(r)}
	if traced {
		lw.heap = startHeapPeak(10 * time.Millisecond)
		lw.sampler = startLiveSampler(r.front, 10*time.Millisecond)
		r.origin.mu.Lock()
		lw.gaps0 = len(r.origin.gaps)
		r.origin.mu.Unlock()
	}
	lw.originBusy = r.origin.busyTime()
	lw.win = openWindow()
	return lw
}

// close ends the window and fills the metrics every live workload
// shares; ops counts the workload's unit of work (frame, POST or
// admission) for allocations per operation.
func (lw *liveWindow) close(r *rig, rep *report, ops func(c0, c1 liveCounters) float64) {
	lw.win.close()
	lw.c1 = readCounters(r)
	busy := r.origin.busyTime() - lw.originBusy
	wall, cpu := lw.win.wall.Seconds(), lw.win.cpu.Seconds()
	c0, c1 := lw.c0, lw.c1
	credited := float64(c1.credited - c0.credited)
	e := rep.e2e
	e["credited_bytes_per_s"] = median(lw.credited)
	e["credited_bytes_per_cpu_s"] = median(lw.creditedCPU)
	e["admits_per_s"] = median(lw.admits)
	e["admits_per_cpu_s"] = median(lw.admitsCPU)
	e["events_per_s"] = median(lw.events)
	e["events_per_cpu_s"] = median(lw.eventsCPU)
	rep.layer["runtime.allocs_per_op"] = float64(lw.win.allocs) / max(ops(c0, c1), 1)

	l := rep.layer
	l["core.wasted_frac"] = float64(c1.wasted-c0.wasted) / credited
	l["core.auctions"] = float64(c1.auctions - c0.auctions)
	if n := c1.admitted - c0.admitted; n > 0 {
		l["core.admit_direct_frac"] = float64(c1.direct-c0.direct) / float64(n)
	}
	l["core.evictions"] = float64(c1.evicted - c0.evicted)
	l["wire.frames"] = float64(c1.frames - c0.frames)
	if f := c1.frames - c0.frames; f > 0 {
		l["wire.bytes_per_frame"] = credited / float64(f)
	}
	l["web.origin_busy_frac"] = busy.Seconds() / wall
	l["process.cpu_util"] = cpu / (wall * float64(runtime.NumCPU()))
	rep.costPerOp = cpu / credited
	rep.info["window_wall_s"] = wall
	rep.info["window_cpu_s"] = cpu
	rep.info["process_cpu_per_wall_s"] = cpu / wall
	if lw.heap != nil {
		l["runtime.heap_peak_mb"] = lw.heap.stopMB()
		lw.sampler.finish(l)
		r.origin.mu.Lock()
		gaps := append([]float64(nil), r.origin.gaps[lw.gaps0:]...)
		r.origin.mu.Unlock()
		l["web.origin_gap_ms_p50"] = quantile(gaps, 0.5)
		l["web.origin_gap_ms_p99"] = quantile(gaps, 0.99)
	}
}
