// Package scenario assembles complete speak-up deployments inside the
// simulator — clients, access links, optional shared bottlenecks, the
// thinner, and the emulated server — runs them, and aggregates the
// metrics the paper's evaluation reports (§7): server allocation,
// fraction of good requests served, payment times, and prices.
//
// The standard topology mirrors the paper's Emulab setup: every client
// sits behind its own access link into a LAN switch; the switch
// connects to the thinner over a gigabit trunk (the paper's thinner
// had gigabit interfaces, so the shaped access links are the only
// bottlenecks). Client groups may instead sit behind a shared
// bottleneck link (§7.6), and a bystander web transfer can share that
// bottleneck (§7.7).
package scenario

import (
	"cmp"
	"fmt"
	"time"

	"speakup/internal/adversary"
	"speakup/internal/appsim"
	"speakup/internal/clients"
	"speakup/internal/core"
	"speakup/internal/faults"
	"speakup/internal/metrics"
	"speakup/internal/netsim"
	"speakup/internal/server"
	"speakup/internal/sim"
	"speakup/internal/simclock"
	"speakup/internal/tcpsim"
	"speakup/internal/trace"
)

// ClientGroup describes a set of identical clients.
type ClientGroup struct {
	// Name labels the group in results (defaults to good-N/bad-N).
	Name string
	// Count is the number of clients.
	Count int
	// Good marks the group's clients as legitimate in results, and
	// selects the plain group's client process (see Spec). Mutually
	// exclusive with Strategy, which defines attacker behaviour on its
	// own.
	Good bool
	// Strategy names an adversary profile driving this group's
	// clients ("onoff", "mimic", "defector", "flood", "adaptive",
	// "poisson" — see internal/adversary); empty runs "poisson" with
	// the λ/w selected by Good. Lambda and Window override the
	// profile's defaults.
	Strategy string
	// Aggressiveness scales the named Strategy's nominal demand
	// (request rate and window); 0 means 1. Only valid with Strategy.
	Aggressiveness float64
	// Bandwidth is the access-link rate in bits/s. Default 2 Mbit/s.
	Bandwidth float64
	// LinkDelay is the one-way access-link delay. Default 250µs (LAN).
	LinkDelay time.Duration
	// Lambda overrides the Poisson rate (0 = the default Spec picks).
	Lambda float64
	// Window overrides the outstanding-request window (0 = the default
	// Spec picks).
	Window int
	// Bottleneck places the group behind cfg.Bottlenecks[Bottleneck-1];
	// 0 means directly on the LAN.
	Bottleneck int
	// PayConns opens parallel payment connections per request (§3.4
	// gaming; default 1).
	PayConns int
	// Work fixes this group's per-request service time (0 = the
	// server default U[0.9/c, 1.1/c]). Used for heterogeneous-request
	// experiments (§5): attackers send intentionally hard requests.
	Work time.Duration

	// RetryBudget re-issues failed requests up to this many times with
	// jittered exponential backoff (RetryBase/RetryCap; zeros take the
	// faults-package defaults). Zero fails immediately — the original
	// model. Fault scenarios harden their clients with this.
	RetryBudget int
	RetryBase   time.Duration
	RetryCap    time.Duration
	// Deadline abandons a request still outstanding after this long,
	// tearing down its connections and freeing the client's window
	// slot (the abandoned attempt retries if budget remains). Zero
	// disables per-request deadlines.
	Deadline time.Duration
}

func (g ClientGroup) withDefaults(idx int) ClientGroup {
	if g.Bandwidth == 0 {
		g.Bandwidth = 2e6
	}
	if g.LinkDelay == 0 {
		g.LinkDelay = 250 * time.Microsecond
	}
	if g.Name == "" {
		kind := "bad"
		switch {
		case g.Strategy != "":
			kind = g.Strategy
		case g.Good:
			kind = "good"
		}
		g.Name = fmt.Sprintf("%s-%d", kind, idx)
	}
	return g
}

// Spec is the client process every member of the group runs: the
// named Strategy, or for a plain group the §7.1 poisson client, at
// λ=2, w=1 when Good and otherwise at the poisson profile's own
// λ=40, w=20. Lambda and Window override either; zero keeps the
// default. The simulator and the live load generator both read a
// group through Spec, so one declaration means one client process.
func (g ClientGroup) Spec() adversary.Spec {
	s := adversary.Spec{
		Name:           g.Strategy,
		Aggressiveness: g.Aggressiveness,
		Lambda:         g.Lambda,
		Window:         g.Window,
	}
	if s.Name == "" {
		s.Name = "poisson"
		if g.Good {
			s.Lambda = cmp.Or(s.Lambda, 2)
			s.Window = cmp.Or(s.Window, 1)
		}
	}
	return s
}

// Bottleneck is a shared link between a set of clients and the LAN.
type Bottleneck struct {
	Rate       float64
	Delay      time.Duration
	QueueBytes int // default 50 full-size packets
}

// Bystander adds the Figure 9 web host H: it shares bottleneck 1 with
// the clients there and repeatedly downloads FileSize bytes from a
// separate web server on the LAN.
type Bystander struct {
	FileSize     int
	MaxDownloads int // 0 = unlimited
	Bandwidth    float64
	LinkDelay    time.Duration
}

// Config describes one experiment run.
type Config struct {
	Seed     int64
	Duration time.Duration
	// Warmup discards request outcomes before this offset (default 0:
	// measure everything, like the paper).
	Warmup   time.Duration
	Capacity float64 // server capacity c in requests/s
	Mode     appsim.Mode
	Groups   []ClientGroup

	Bottlenecks []Bottleneck
	BystanderH  *Bystander

	// Trunk is the LAN between switch and thinner. Defaults: 1 Gbit/s
	// (the paper's thinner had gigabit interfaces, so client access
	// links are the only bottlenecks), 250µs, 256 packets of queue.
	TrunkRate  float64
	TrunkDelay time.Duration
	TrunkQueue int
	// AccessQueue is each access link's queue in bytes (default 50
	// packets).
	AccessQueue int

	Sizes appsim.Sizes
	// Thinner tunes the auction policy, and with a Quantum the §5
	// scheduler of ModeHetero; RandomDrop and Profiler tune their
	// modes.
	Thinner    core.Config
	RandomDrop core.RandomDropConfig
	Profiler   core.ProfilerConfig

	// Trace attaches a request-lifecycle tracer (internal/trace) to
	// the auction thinner. Observation only — a run with tracing on is
	// event-for-event identical to one without, which the
	// tracing-noop golden test enforces. Not part of the declarative
	// schema (internal/config); set it programmatically.
	Trace *trace.Tracer

	// Faults is the deterministic fault-injection plan (internal/faults):
	// link loss/jitter/partitions and origin stalls/crashes scheduled
	// through the event loop. Empty (the default) injects nothing and
	// adds no events, keeping fault-free runs byte-identical.
	Faults faults.Plan

	// Transport selects the listener live load generators drive: ""
	// or "http" (the default GET/POST front) or "wire" (the binary
	// framed payment transport; requires thinnerd's -wire-addr). The
	// simulator models payment at the message level and ignores it.
	Transport string
}

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 60 * time.Second
	}
	if c.TrunkRate == 0 {
		c.TrunkRate = 1e9
	}
	if c.TrunkDelay == 0 {
		c.TrunkDelay = 250 * time.Microsecond
	}
	if c.TrunkQueue == 0 {
		c.TrunkQueue = 256 * 1500
	}
	if c.AccessQueue == 0 {
		c.AccessQueue = 100 * 1500
	}
	// Copy before defaulting: callers may hand the same Groups,
	// Bottlenecks, or BystanderH to several Configs (sweep grids do),
	// and concurrent Runs must not write defaults into shared memory.
	c.Groups = append([]ClientGroup(nil), c.Groups...)
	for i := range c.Groups {
		c.Groups[i] = c.Groups[i].withDefaults(i)
	}
	c.Bottlenecks = append([]Bottleneck(nil), c.Bottlenecks...)
	for i := range c.Bottlenecks {
		if c.Bottlenecks[i].QueueBytes == 0 {
			c.Bottlenecks[i].QueueBytes = 50 * 1500
		}
	}
	if c.BystanderH != nil {
		b := *c.BystanderH
		c.BystanderH = &b
	}
	c.Faults = append(faults.Plan(nil), c.Faults...)
	return c
}

// Validate reports configuration errors that Run would otherwise hit
// as panics deep inside topology construction: a non-positive server
// capacity, group bottleneck references out of range, negative
// per-request work, a bystander without a bottleneck to share, and
// bad client declarations (unknown strategy names, invalid strategy
// knobs, or a group that sets both Good and Strategy — the latter used
// to silently keep the good-client λ/w defaults while running
// attacker code). The sweep engine validates every grid cell before
// fanning work out to its workers.
func (c Config) Validate() error {
	if c.Capacity <= 0 {
		return fmt.Errorf("scenario: Capacity must be positive, got %g", c.Capacity)
	}
	if (c.Mode == appsim.ModeHetero) != (c.Thinner.Quantum > 0) {
		return fmt.Errorf("scenario: mode %s with a thinner quantum of %v: hetero mode and a positive quantum (the hetero section's tau) go together", c.Mode, c.Thinner.Quantum)
	}
	switch c.Transport {
	case "", "http", "wire":
	default:
		return fmt.Errorf("scenario: Transport must be \"http\" or \"wire\", got %q", c.Transport)
	}
	for i, g := range c.Groups {
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("#%d", i)
		}
		if g.Bottleneck < 0 || g.Bottleneck > len(c.Bottlenecks) {
			return fmt.Errorf("scenario: group %q references bottleneck %d, have %d",
				name, g.Bottleneck, len(c.Bottlenecks))
		}
		if g.Work < 0 {
			return fmt.Errorf("scenario: group %q: Work must be >= 0, got %v", name, g.Work)
		}
		if g.Strategy != "" && g.Good {
			return fmt.Errorf("scenario: group %q sets both Good and Strategy %q; adversary strategies define bad-client behaviour — drop one",
				name, g.Strategy)
		}
		if g.Strategy == "" && g.Aggressiveness != 0 {
			return fmt.Errorf("scenario: group %q sets Aggressiveness %g without a Strategy",
				name, g.Aggressiveness)
		}
		if err := g.Spec().Validate(); err != nil {
			return fmt.Errorf("scenario: group %q: %v", name, err)
		}
	}
	if c.BystanderH != nil && len(c.Bottlenecks) == 0 {
		return fmt.Errorf("scenario: BystanderH requires a bottleneck")
	}
	if len(c.Faults) > 0 {
		// Fault targets name groups by their (possibly defaulted) name.
		names := make(map[string]bool, len(c.Groups)*2)
		for i, g := range c.Groups {
			if g.Name != "" {
				names[g.Name] = true
			}
			names[g.withDefaults(i).Name] = true
		}
		if err := c.Faults.Validate(names, len(c.Bottlenecks)); err != nil {
			return fmt.Errorf("scenario: %w", err)
		}
	}
	return nil
}

// GroupResult aggregates one group's outcomes.
type GroupResult struct {
	Name      string
	Good      bool
	Clients   int
	Generated uint64
	Issued    uint64
	Served    uint64
	Failed    uint64
	Denied    uint64
	Retried   uint64 // failed attempts re-issued under the retry budget
	Abandoned uint64 // attempts that hit the per-request deadline

	Latencies metrics.Sample // served requests, seconds
	PayTimes  metrics.Sample // served requests that paid, seconds
	Prices    metrics.Sample // thinner-side winning bids, bytes
	PaidBytes int64          // client-side payment bytes pushed
	// ServedWork is the total server time this group consumed —
	// completed requests plus partial service burned before aborts
	// (the resource that matters under §5 attacks).
	ServedWork time.Duration
}

// Offered returns issued + denied: the demand actually presented.
func (g *GroupResult) Offered() uint64 { return g.Issued + g.Denied }

// FractionServed returns Served/Offered (0 when no demand).
func (g *GroupResult) FractionServed() float64 {
	if g.Offered() == 0 {
		return 0
	}
	return float64(g.Served) / float64(g.Offered())
}

// Result is a completed run.
type Result struct {
	Config   Config
	Groups   []GroupResult
	Duration time.Duration

	ServedGood, ServedBad uint64
	// GoodAllocation is the fraction of processed requests that were
	// good — the paper's "fraction of server allocated to good
	// clients".
	GoodAllocation float64
	// FractionGoodServed is the paper's "fraction of good requests
	// served" (served / offered).
	FractionGoodServed float64

	ThinnerStats core.Stats
	ServerStats  server.Stats

	// BystanderLatencies holds Figure 9 download times (seconds).
	BystanderLatencies *metrics.Sample

	Events uint64 // simulator events processed (for reporting)
}

// Run builds the deployment, simulates it for cfg.Duration, and
// returns aggregated results. It panics on configurations Validate
// rejects.
func Run(cfg Config) *Result {
	res, _ := run(cfg)
	return res
}

// run is Run that also returns the thinner, whose payment book tests
// audit after the run.
func run(cfg Config) (*Result, *appsim.ThinnerApp) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	loop := sim.NewLoop(cfg.Seed)
	loop.Grow(4096) // pre-size the event arena: no growth during the run
	n := netsim.New(loop)
	clock := simclock.New(loop)

	// --- topology ---
	// Link references are captured as they are built so a fault plan
	// can aim at them by name; with no plan the captures are unused.
	targets := faultTargets{access: make(map[string][]*netsim.Link)}
	sw := n.AddNode("switch", nil)
	tn := n.AddNode("thinner", nil)
	t1, t2 := n.Connect(sw, tn, cfg.TrunkRate, cfg.TrunkDelay, cfg.TrunkQueue)
	targets.trunk = []*netsim.Link{t1, t2}

	inner := make([]netsim.NodeID, len(cfg.Bottlenecks))
	for i, b := range cfg.Bottlenecks {
		inner[i] = n.AddNode(fmt.Sprintf("bottleneck-%d", i+1), nil)
		b1, b2 := n.Connect(inner[i], sw, b.Rate, b.Delay, b.QueueBytes)
		targets.bottleneck = append(targets.bottleneck, []*netsim.Link{b1, b2})
	}

	type clientSlot struct {
		group int
		node  netsim.NodeID
	}
	var slots []clientSlot
	for gi, g := range cfg.Groups {
		for i := 0; i < g.Count; i++ {
			cn := n.AddNode(fmt.Sprintf("%s-c%d", g.Name, i), nil)
			attach := sw
			if g.Bottleneck > 0 {
				attach = inner[g.Bottleneck-1]
			}
			a1, a2 := n.Connect(cn, attach, g.Bandwidth, g.LinkDelay, cfg.AccessQueue)
			targets.access[g.Name] = append(targets.access[g.Name], a1, a2)
			slots = append(slots, clientSlot{group: gi, node: cn})
		}
	}

	var webNode, bystanderNode netsim.NodeID
	if cfg.BystanderH != nil {
		b := cfg.BystanderH
		if b.Bandwidth == 0 {
			b.Bandwidth = 2e6
		}
		if b.LinkDelay == 0 {
			b.LinkDelay = 250 * time.Microsecond
		}
		webNode = n.AddNode("webserver", nil)
		n.Connect(webNode, sw, 100e6, 250*time.Microsecond, cfg.TrunkQueue)
		bystanderNode = n.AddNode("bystander", nil)
		n.Connect(bystanderNode, inner[0], b.Bandwidth, b.LinkDelay, cfg.AccessQueue)
	}
	n.ComputeRoutes()

	// --- client strategies ---
	// One cohort per group (shared bandwidth budget and
	// coupon-collection state); one strategy instance per client,
	// created in the slots loop below.
	cohorts := make([]*adversary.Cohort, len(cfg.Groups))
	for gi, g := range cfg.Groups {
		cohorts[gi] = adversary.NewCohort(g.Spec(), g.Count)
	}
	var lastPrice int64 // last winning bid: the public price observable

	// --- thinner + server ---
	// owner maps a live request id to its group index, -1 once the
	// request is done. Ids are issued in order from 1, so a slice
	// indexed by id replaces a map (no hashing, no rehash growth).
	owner := []int32{-1}
	groupOf := func(id core.RequestID) (int, bool) {
		if id >= core.RequestID(len(owner)) || owner[id] < 0 {
			return 0, false
		}
		return int(owner[id]), true
	}
	srvCfg := server.Config{Capacity: cfg.Capacity, Seed: cfg.Seed + 9999}
	groupHasWork := false
	for _, g := range cfg.Groups {
		if g.Work > 0 {
			groupHasWork = true
		}
	}
	if groupHasWork {
		fallback := time.Duration(float64(time.Second) / cfg.Capacity)
		srvCfg.Work = func(id core.RequestID) time.Duration {
			if gi, ok := groupOf(id); ok && cfg.Groups[gi].Work > 0 {
				return cfg.Groups[gi].Work
			}
			return fallback
		}
	}
	srv := server.New(clock, srvCfg)
	tstack := tcpsim.NewStack(n, tn, tcpsim.Options{})
	rdCfg := cfg.RandomDrop
	if rdCfg.Capacity == 0 {
		rdCfg.Capacity = cfg.Capacity
	}
	thApp := appsim.NewThinnerApp(tstack, clock, srv, appsim.ThinnerConfig{
		Mode:       cfg.Mode,
		Sizes:      cfg.Sizes,
		Thinner:    cfg.Thinner,
		RandomDrop: rdCfg,
		Profiler:   cfg.Profiler,
		Trace:      cfg.Trace,
	})

	// --- fault plan ---
	if len(cfg.Faults) > 0 {
		scheduleFaults(loop, cfg, targets, srv, thApp)
	}

	// --- clients ---
	res := &Result{Config: cfg, Duration: cfg.Duration}
	res.Groups = make([]GroupResult, len(cfg.Groups))
	for gi, g := range cfg.Groups {
		res.Groups[gi] = GroupResult{Name: g.Name, Good: g.Good, Clients: g.Count}
	}

	var nextID uint64
	genFor := func(group int) func() core.RequestID {
		return func() core.RequestID {
			nextID++
			owner = append(owner, int32(group))
			return core.RequestID(nextID)
		}
	}

	thApp.OnAdmit = func(id core.RequestID, paid int64) {
		lastPrice = paid
		if loop.Now() < cfg.Warmup {
			return
		}
		if gi, ok := groupOf(id); ok {
			res.Groups[gi].Prices.Add(float64(paid))
		}
	}
	srv.Observer = func(id core.RequestID, work time.Duration) {
		if loop.Now() < cfg.Warmup {
			return
		}
		if gi, ok := groupOf(id); ok {
			res.Groups[gi].ServedWork += work
		}
	}

	var workloads []*clients.Client
	for si, slot := range slots {
		g := cfg.Groups[slot.group]
		strat := g.Spec().New(cohorts[slot.group])
		stack := tcpsim.NewStack(n, slot.node, tcpsim.Options{})
		wl := clients.New(clock, clients.Config{
			Good:         g.Good,
			Seed:         cfg.Seed*1_000_003 + int64(si),
			Pacer:        strat,
			RetryBudget:  g.RetryBudget,
			RetryBackoff: faults.Backoff{Base: g.RetryBase, Cap: g.RetryCap},
			Deadline:     g.Deadline,
		}, genFor(slot.group))
		app := appsim.NewClientApp(stack, wl, tn, cfg.Sizes, appsim.ClientAppConfig{
			PayConns: g.PayConns,
			Payer:    strat,
		})
		gi := slot.group
		wl.OnDenial = func(id core.RequestID) {
			strat.Observe(adversary.Outcome{Denied: true, Now: clock.Now()})
			owner[id] = -1
		}
		app.OnOutcome = func(o appsim.RequestOutcome) {
			strat.Observe(adversary.Outcome{
				Served: o.Served,
				Price:  lastPrice,
				Paid:   o.PaidBytes,
				Now:    loop.Now(),
			})
			if loop.Now() < cfg.Warmup {
				owner[o.ID] = -1
				return
			}
			gr := &res.Groups[gi]
			if o.Served {
				gr.Served++
				gr.Latencies.AddDuration(o.Latency)
				if o.PayTime > 0 {
					gr.PayTimes.AddDuration(o.PayTime)
				}
			} else {
				gr.Failed++
			}
			gr.PaidBytes += o.PaidBytes
			owner[o.ID] = -1
		}
		workloads = append(workloads, wl)
	}

	// --- bystander ---
	var bystander *appsim.BystanderApp
	if cfg.BystanderH != nil {
		NewWebServer := appsim.NewWebServerApp
		wstack := tcpsim.NewStack(n, webNode, tcpsim.Options{})
		NewWebServer(wstack)
		bstack := tcpsim.NewStack(n, bystanderNode, tcpsim.Options{})
		bystander = appsim.NewBystanderApp(bstack, webNode, cfg.BystanderH.FileSize)
		bystander.MaxDownloads = cfg.BystanderH.MaxDownloads
		bystander.Start()
	}

	// --- run ---
	for _, wl := range workloads {
		wl.Start()
	}
	loop.Run(cfg.Duration)

	// --- aggregate ---
	for i, wl := range workloads {
		gi := slots[i].group
		st := wl.Stats()
		gr := &res.Groups[gi]
		gr.Generated += st.Generated
		gr.Issued += st.Issued
		gr.Denied += st.Denied
		gr.Retried += st.Retried
		gr.Abandoned += st.Abandoned
	}
	var offeredGood uint64
	for _, gr := range res.Groups {
		if gr.Good {
			res.ServedGood += gr.Served
			offeredGood += gr.Offered()
		} else {
			res.ServedBad += gr.Served
		}
	}
	if total := res.ServedGood + res.ServedBad; total > 0 {
		res.GoodAllocation = float64(res.ServedGood) / float64(total)
	}
	if offeredGood > 0 {
		res.FractionGoodServed = float64(res.ServedGood) / float64(offeredGood)
	}
	res.ThinnerStats = thApp.Stats()
	res.ServerStats = srv.Stats()
	if bystander != nil {
		res.BystanderLatencies = &bystander.Latencies
	}
	res.Events = loop.Processed()
	return res, thApp
}
