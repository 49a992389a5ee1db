package appsim

import (
	"testing"
	"time"

	"speakup/internal/adversary"
	"speakup/internal/clients"
	"speakup/internal/core"
	"speakup/internal/netsim"
	"speakup/internal/server"
	"speakup/internal/sim"
	"speakup/internal/simclock"
	"speakup/internal/tcpsim"
)

// poisson is the paper's §7.1 client: Poisson arrivals at rate lambda,
// at most w outstanding, full payment. It both paces the workload and
// sizes its payments.
func poisson(lambda float64, w int) adversary.Strategy {
	return adversary.Spec{Name: "poisson", Lambda: lambda, Window: w}.New(nil)
}

// rig is a hand-built mini deployment: n clients on 2 Mbit/s access
// links into a 100 Mbit/s trunk, a thinner, and an emulated server.
type rig struct {
	loop    *sim.Loop
	net     *netsim.Network
	thinner *ThinnerApp
	srv     *server.Server
	apps    []*ClientApp
	wls     []*clients.Client

	outcomes []RequestOutcome
	admits   map[core.RequestID]int64
}

type rigConfig struct {
	mode       Mode
	capacity   float64
	nClients   int
	clientCfg  clients.Config
	postBytes  int
	accessRate float64
}

func newRig(t *testing.T, cfg rigConfig) *rig {
	t.Helper()
	if cfg.accessRate == 0 {
		cfg.accessRate = 2e6
	}
	if cfg.postBytes == 0 {
		cfg.postBytes = 1_000_000
	}
	loop := sim.NewLoop(42)
	n := netsim.New(loop)
	r := &rig{loop: loop, net: n, admits: make(map[core.RequestID]int64)}

	sw := n.AddNode("switch", nil)
	tn := n.AddNode("thinner", nil)
	n.Connect(sw, tn, 100e6, 250*time.Microsecond, 256*1500)

	var clientNodes []netsim.NodeID
	for i := 0; i < cfg.nClients; i++ {
		cn := n.AddNode("client", nil)
		n.Connect(cn, sw, cfg.accessRate, 250*time.Microsecond, 50*1500)
		clientNodes = append(clientNodes, cn)
	}
	n.ComputeRoutes()

	clock := simclock.New(loop)
	r.srv = server.New(clock, server.Config{Capacity: cfg.capacity, Seed: 7})
	tstack := tcpsim.NewStack(n, tn, tcpsim.Options{})
	r.thinner = NewThinnerApp(tstack, clock, r.srv, ThinnerConfig{
		Mode:  cfg.mode,
		Sizes: Sizes{Post: cfg.postBytes},
		RandomDrop: core.RandomDropConfig{
			Capacity: cfg.capacity, Seed: 3,
		},
	})
	r.thinner.OnAdmit = func(id core.RequestID, paid int64) { r.admits[id] = paid }

	var nextID uint64
	gen := func() core.RequestID { nextID++; return core.RequestID(nextID) }
	for i, cn := range clientNodes {
		cstack := tcpsim.NewStack(n, cn, tcpsim.Options{})
		ccfg := cfg.clientCfg
		ccfg.Seed = int64(100 + i)
		wl := clients.New(clock, ccfg, gen)
		app := NewClientApp(cstack, wl, tn, Sizes{Post: cfg.postBytes}, ClientAppConfig{Payer: ccfg.Pacer.(Payer)})
		app.OnOutcome = func(o RequestOutcome) { r.outcomes = append(r.outcomes, o) }
		r.apps = append(r.apps, app)
		r.wls = append(r.wls, wl)
	}
	return r
}

func (r *rig) start() { // begin all workloads
	for _, wl := range r.wls {
		wl.Start()
	}
}

func (r *rig) served() int {
	n := 0
	for _, o := range r.outcomes {
		if o.Served {
			n++
		}
	}
	return n
}

func TestSingleClientLightLoadServedDirectly(t *testing.T) {
	r := newRig(t, rigConfig{
		mode: ModeAuction, capacity: 100, nClients: 1,
		clientCfg: clients.Config{Pacer: poisson(2, 1)},
	})
	r.start()
	r.loop.Run(30 * time.Second)
	if got := r.served(); got < 40 {
		t.Fatalf("served %d requests in 30s at lambda=2, want ~60", got)
	}
	// Light load: no payment should ever be needed.
	for _, o := range r.outcomes {
		if o.PaidBytes != 0 {
			t.Fatalf("light-load request paid %d bytes", o.PaidBytes)
		}
	}
	st := r.thinner.Auction().Stats()
	if st.Auctions != 0 {
		t.Fatalf("auctions held under light load: %d", st.Auctions)
	}
}

func TestOverloadTriggersPayments(t *testing.T) {
	// One client generating 20 req/s against capacity 2: most requests
	// must pay, and some get served.
	r := newRig(t, rigConfig{
		mode: ModeAuction, capacity: 2, nClients: 3,
		clientCfg: clients.Config{Pacer: poisson(10, 4)},
	})
	r.start()
	r.loop.Run(30 * time.Second)
	if got := r.served(); got < 30 {
		t.Fatalf("served %d, want close to capacity*30=60", got)
	}
	paidSome := false
	for _, o := range r.outcomes {
		if o.Served && o.PaidBytes > 0 {
			paidSome = true
			break
		}
	}
	if !paidSome {
		t.Fatal("no served request paid despite overload")
	}
	st := r.thinner.Auction().Stats()
	if st.Auctions == 0 {
		t.Fatal("no auctions under overload")
	}
	if st.PaidBytes == 0 {
		t.Fatal("thinner recorded no winning bids")
	}
}

func TestAuctionPricesApproachUpperBound(t *testing.T) {
	// 5 clients x 2 Mbit/s all saturating against c=5: the §3.3 price
	// bound is (G+B)/c = 10e6/8/5 = 250 KB per request.
	r := newRig(t, rigConfig{
		mode: ModeAuction, capacity: 5, nClients: 5,
		clientCfg: clients.Config{Pacer: poisson(20, 8)},
	})
	r.start()
	r.loop.Run(60 * time.Second)
	var sum float64
	var n int
	for id, paid := range r.admits {
		_ = id
		if paid > 0 {
			sum += float64(paid)
			n++
		}
	}
	if n < 50 {
		t.Fatalf("only %d paid admissions", n)
	}
	avg := sum / float64(n)
	upper := 10e6 / 8 / 5 // bytes per request
	if avg > upper*1.15 {
		t.Fatalf("average price %.0f exceeds upper bound %.0f", avg, upper)
	}
	if avg < upper*0.3 {
		t.Fatalf("average price %.0f implausibly below bound %.0f (clients not saturating?)", avg, upper)
	}
}

func TestOffModeDropsWhenBusy(t *testing.T) {
	r := newRig(t, rigConfig{
		mode: ModeOff, capacity: 2, nClients: 3,
		clientCfg: clients.Config{Pacer: poisson(10, 4)},
	})
	r.start()
	r.loop.Run(30 * time.Second)
	served, failed := 0, 0
	for _, o := range r.outcomes {
		if o.Served {
			served++
		} else {
			failed++
		}
		if o.PaidBytes != 0 {
			t.Fatal("OFF mode must never trigger payments")
		}
	}
	if served == 0 || failed == 0 {
		t.Fatalf("served=%d failed=%d, want both nonzero", served, failed)
	}
	// Service rate bounded by capacity.
	if served > 2*30+10 {
		t.Fatalf("served %d exceeds capacity", served)
	}
}

func TestRandomDropModeServesUnderOverload(t *testing.T) {
	r := newRig(t, rigConfig{
		mode: ModeRandomDrop, capacity: 5, nClients: 3,
		clientCfg: clients.Config{Pacer: poisson(10, 4)},
	})
	r.start()
	r.loop.Run(30 * time.Second)
	if got := r.served(); got < 60 {
		t.Fatalf("served %d with c=5 over 30s, want ~150ish", got)
	}
	st := r.thinner.Stats()
	if st.Evicted == 0 {
		t.Fatal("no retries issued under overload")
	}
}

func TestPaymentTimeMeasured(t *testing.T) {
	r := newRig(t, rigConfig{
		mode: ModeAuction, capacity: 2, nClients: 2,
		clientCfg: clients.Config{Pacer: poisson(5, 2)},
	})
	r.start()
	r.loop.Run(30 * time.Second)
	var withPay int
	for _, o := range r.outcomes {
		if o.Served && o.PayTime > 0 {
			withPay++
			if o.PayTime > 30*time.Second {
				t.Fatalf("absurd pay time %v", o.PayTime)
			}
		}
	}
	if withPay == 0 {
		t.Fatal("no served request recorded a payment time")
	}
}

func TestWinnerPaymentChannelTerminated(t *testing.T) {
	// After the run, no client should still be paying: all channels
	// get closed on wins/evictions, and stats should show waste only
	// within reason.
	r := newRig(t, rigConfig{
		mode: ModeAuction, capacity: 2, nClients: 2,
		clientCfg: clients.Config{Pacer: poisson(5, 2)},
	})
	r.start()
	r.loop.Run(20 * time.Second)
	for _, wl := range r.wls {
		wl.Stop()
	}
	r.loop.Run(60 * time.Second) // drain
	// All outcomes reported; ledger near-empty (only in-flight stragglers).
	if n := r.thinner.Auction().Table().Size(); n > 4 {
		t.Fatalf("ledger still holds %d entries after drain", n)
	}
}

func TestBystanderDownloadsBaseline(t *testing.T) {
	// Web server + bystander alone on a 1 Mbit/s, 100 ms link: a 50 KB
	// download should take ~0.6-1.5s (slow start dominated).
	loop := sim.NewLoop(9)
	n := netsim.New(loop)
	h := n.AddNode("H", nil)
	s := n.AddNode("S", nil)
	n.Connect(h, s, 1e6, 100*time.Millisecond, 50*1500)
	n.ComputeRoutes()
	hs := tcpsim.NewStack(n, h, tcpsim.Options{})
	ss := tcpsim.NewStack(n, s, tcpsim.Options{})
	NewWebServerApp(ss)
	by := NewBystanderApp(hs, s, 50_000)
	by.MaxDownloads = 10
	by.Start()
	loop.Run(120 * time.Second)
	if by.Completed != 10 {
		t.Fatalf("completed %d/10 downloads", by.Completed)
	}
	mean := by.Latencies.Mean()
	if mean < 0.4 || mean > 3 {
		t.Fatalf("mean 50KB download latency %.2fs, want ~0.6-1.5s", mean)
	}
}

func TestHeteroModeServesAndCharges(t *testing.T) {
	loop := sim.NewLoop(11)
	n := netsim.New(loop)
	sw := n.AddNode("switch", nil)
	tn := n.AddNode("thinner", nil)
	n.Connect(sw, tn, 100e6, 250*time.Microsecond, 256*1500)
	cn := n.AddNode("client", nil)
	n.Connect(cn, sw, 2e6, 250*time.Microsecond, 50*1500)
	n.ComputeRoutes()

	clock := simclock.New(loop)
	srv := server.New(clock, server.Config{Capacity: 2, Seed: 5})
	ts := tcpsim.NewStack(n, tn, tcpsim.Options{})
	app := NewThinnerApp(ts, clock, srv, ThinnerConfig{
		Mode:    ModeHetero,
		Thinner: core.Config{Quantum: 100 * time.Millisecond},
	})
	var admitted []core.RequestID
	app.OnAdmit = func(id core.RequestID, paid int64) { admitted = append(admitted, id) }

	var nextID uint64
	gen := func() core.RequestID { nextID++; return core.RequestID(nextID) }
	strat := poisson(5, 2)
	wl := clients.New(clock, clients.Config{Pacer: strat, Seed: 3}, gen)
	cs := tcpsim.NewStack(n, cn, tcpsim.Options{})
	capp := NewClientApp(cs, wl, tn, Sizes{}, ClientAppConfig{Payer: strat})
	var served int
	capp.OnOutcome = func(o RequestOutcome) {
		if o.Served {
			served++
		}
	}
	wl.Start()
	loop.Run(30 * time.Second)
	if served < 20 {
		t.Fatalf("hetero mode served %d, want ~60 (capacity-bound)", served)
	}
	if len(admitted) != served {
		t.Fatalf("admissions %d != served %d", len(admitted), served)
	}
}

// TestHeteroOrphanPaymentClosed opens a payment connection whose
// request never arrives under the §5 scheduler: after OrphanTimeout
// the sweep evicts the channel and closes the connection, so the
// client stops paying instead of re-opening the channel with its next
// chunk.
func TestHeteroOrphanPaymentClosed(t *testing.T) {
	loop := sim.NewLoop(13)
	n := netsim.New(loop)
	sw := n.AddNode("switch", nil)
	tn := n.AddNode("thinner", nil)
	n.Connect(sw, tn, 100e6, 250*time.Microsecond, 256*1500)
	cn := n.AddNode("client", nil)
	n.Connect(cn, sw, 2e6, 250*time.Microsecond, 50*1500)
	n.ComputeRoutes()

	clock := simclock.New(loop)
	srv := server.New(clock, server.Config{Capacity: 2, Seed: 5})
	app := NewThinnerApp(tcpsim.NewStack(n, tn, tcpsim.Options{}), clock, srv, ThinnerConfig{
		Mode:    ModeHetero,
		Thinner: core.Config{Quantum: 100 * time.Millisecond, OrphanTimeout: time.Second},
	})
	var closedAt time.Duration
	conn := tcpsim.NewStack(n, cn, tcpsim.Options{}).Dial(tn, nil)
	conn.OnClose = func(*tcpsim.Conn) { closedAt = loop.Now() }
	conn.Write(10_000_000, newMsg(kindPost, 77)) // a 40 s POST at 2 Mbit/s
	loop.Run(5 * time.Second)

	if closedAt == 0 {
		t.Fatal("the orphaned payment connection was never closed")
	}
	if closedAt < time.Second || closedAt > 1500*time.Millisecond {
		t.Fatalf("closed at %v, want just after the 1s orphan timeout", closedAt)
	}
	st := app.Stats()
	if st.Evicted != 1 || st.WastedBytes <= 0 {
		t.Fatalf("stats = %+v, want one eviction with its bytes wasted", st)
	}
	if app.Auction().Table().Contains(77) {
		t.Fatal("the evicted channel came back")
	}
}

// TestLateRetryIsNotServedAgain sends a §3.2 retry after its request
// was answered, as a pipelined retry still in flight at the response
// does: the thinner ignores it, so the origin serves the request once.
func TestLateRetryIsNotServedAgain(t *testing.T) {
	loop := sim.NewLoop(13)
	n := netsim.New(loop)
	tn := n.AddNode("thinner", nil)
	cn := n.AddNode("client", nil)
	n.Connect(cn, tn, 100e6, 250*time.Microsecond, 256*1500)
	n.ComputeRoutes()

	clock := simclock.New(loop)
	srv := server.New(clock, server.Config{Capacity: 2, Seed: 5})
	app := NewThinnerApp(tcpsim.NewStack(n, tn, tcpsim.Options{}), clock, srv, ThinnerConfig{
		Mode:       ModeRandomDrop,
		RandomDrop: core.RandomDropConfig{Capacity: 2, Seed: 5},
	})
	sizes := Sizes{}.withDefaults()
	var responses int
	conn := tcpsim.NewStack(n, cn, tcpsim.Options{}).Dial(tn, nil)
	conn.OnRecord = func(_ *tcpsim.Conn, tag uint64) {
		if msg(tag).kind() == kindResponse {
			responses++
		}
	}
	conn.Write(sizes.Initial, newMsg(kindInitial, 5))
	loop.Run(5 * time.Second)
	if responses != 1 {
		t.Fatalf("%d responses to the request, want 1", responses)
	}
	conn.Write(sizes.Request, newMsg(kindRequest, 5))
	loop.Run(10 * time.Second)
	if st := app.Stats(); st.Admitted != 1 || responses != 1 {
		t.Fatalf("admitted %d, %d responses after a late retry, want 1 and 1", st.Admitted, responses)
	}
}
