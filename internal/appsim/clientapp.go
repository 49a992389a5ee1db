package appsim

import (
	"time"

	"speakup/internal/clients"
	"speakup/internal/core"
	"speakup/internal/netsim"
	"speakup/internal/sim"
	"speakup/internal/tcpsim"
)

// RequestOutcome reports one finished request to the scenario.
type RequestOutcome struct {
	ID      core.RequestID
	Served  bool
	Latency time.Duration // issue -> response
	// PayTime is the time spent uploading dummy bytes (first POST byte
	// written to payment channel termination); 0 if the request never
	// paid. This is the paper's Figure 4 metric.
	PayTime time.Duration
	// PaidBytes counts payment bytes this client pushed into its TCP
	// stack for the request (client-side view; the thinner-side price
	// is reported via ThinnerApp.OnAdmit).
	PaidBytes int64
}

// ClientApp drives one workload client through the protocol.
type ClientApp struct {
	loop    *sim.Loop
	stack   *tcpsim.Stack
	thinner netsim.NodeID
	sizes   Sizes
	cfg     ClientAppConfig

	Workload *clients.Client
	reqs     map[core.RequestID]*clientReq

	// OnOutcome observes every finished request (served or failed).
	OnOutcome func(RequestOutcome)
}

// Payer sizes payment POSTs dynamically; adversary strategies
// (internal/adversary) implement it. PostSize returns the next POST
// size for a request that has paid `paid` bytes so far, given the
// protocol default def; <= 0 stops paying while keeping the request
// open (the defector's move — the thinner's timeouts must clean up).
type Payer interface {
	PostSize(now time.Duration, paid int64, def int) int
}

// ClientAppConfig tunes protocol behaviour.
type ClientAppConfig struct {
	// PayConns is the number of parallel payment connections opened
	// per request (§3.4 gaming; default 1).
	PayConns int
	// MaxRetryPipeline caps outstanding §3.2 retries. Default 32.
	MaxRetryPipeline int
	// Payer sizes each payment POST. Required.
	Payer Payer
}

func (c ClientAppConfig) withDefaults() ClientAppConfig {
	if c.PayConns == 0 {
		c.PayConns = 1
	}
	if c.MaxRetryPipeline == 0 {
		c.MaxRetryPipeline = 32
	}
	return c
}

type clientReq struct {
	id       core.RequestID
	issuedAt time.Duration
	reqConn  *tcpsim.Conn
	payConns []*tcpsim.Conn
	paying   bool
	payStart time.Duration
	payEnd   time.Duration
	paid     int64
	retries  int // §3.2 outstanding retries
}

// NewClientApp binds a workload client to a stack. The workload's
// Issue callback is taken over by the app.
func NewClientApp(stack *tcpsim.Stack, workload *clients.Client, thinner netsim.NodeID, sizes Sizes, cfg ClientAppConfig) *ClientApp {
	if cfg.Payer == nil {
		panic("appsim: Payer required")
	}
	a := &ClientApp{
		loop:     stack.Net().Loop(),
		stack:    stack,
		thinner:  thinner,
		sizes:    sizes.withDefaults(),
		cfg:      cfg.withDefaults(),
		Workload: workload,
		reqs:     make(map[core.RequestID]*clientReq),
	}
	workload.Issue = a.issue
	workload.Abandon = a.abandon
	return a
}

// abandon tears down a deadline-expired request's half-open exchange;
// finish reports the failure to the workload, which may retry it.
func (a *ClientApp) abandon(id core.RequestID) {
	if r, ok := a.reqs[id]; ok {
		a.finish(r, false)
		return
	}
	a.Workload.RequestFailed(id, 0)
}

// issue opens the request connection and sends the initial GET.
func (a *ClientApp) issue(id core.RequestID) {
	r := &clientReq{id: id, issuedAt: a.loop.Now()}
	a.reqs[id] = r
	r.reqConn = a.stack.Dial(a.thinner, nil)
	r.reqConn.Write(a.sizes.Initial, &msg{kind: kindInitial, id: id})
	r.reqConn.OnRecord = func(meta any) { a.onReqConnRecord(r, meta) }
	r.reqConn.OnClose = func() {
		// Thinner aborted us (§5) or tore down: count as failure.
		if _, live := a.reqs[id]; live {
			a.finish(r, false)
		}
	}
}

func (a *ClientApp) onReqConnRecord(r *clientReq, meta any) {
	m, ok := meta.(*msg)
	if !ok {
		return
	}
	switch m.kind {
	case kindPlease:
		// Issue the actual request (1) and the payment POST(s) (2).
		r.reqConn.Write(a.sizes.Request, &msg{kind: kindRequest, id: r.id})
		a.openPayment(r)
	case kindResponse:
		a.finish(r, true)
	case kindBusy:
		a.finish(r, false)
	case kindRetry:
		// §3.2: pipeline congestion-controlled retries. Top up two per
		// reply until the cap, keeping the pipe full without waiting.
		if r.retries > 0 {
			r.retries--
		}
		for r.retries < a.cfg.MaxRetryPipeline {
			r.reqConn.Write(a.sizes.Request, &msg{kind: kindRequest, id: r.id})
			r.retries += 1
			if r.retries >= 2 { // growth batch per reply
				break
			}
		}
	}
}

// openPayment dials the payment channel(s) and starts POSTing.
func (a *ClientApp) openPayment(r *clientReq) {
	if r.paying {
		return
	}
	r.paying = true
	r.payStart = a.loop.Now()
	// One metadata record serves every POST of the request: receivers
	// only read kind/id, so repeated payments (hundreds per request at
	// 1 MB each) need not allocate a msg apiece.
	postMsg := &msg{kind: kindPost, id: r.id}
	for i := 0; i < a.cfg.PayConns; i++ {
		conn := a.stack.Dial(a.thinner, nil)
		r.payConns = append(r.payConns, conn)
		post := func() {
			if conn.Closed() {
				return
			}
			size := a.cfg.Payer.PostSize(a.loop.Now(), r.paid, a.sizes.Post)
			if size <= 0 {
				return // defect: stop paying, keep the request open
			}
			conn.Write(size, postMsg)
			r.paid += int64(size)
		}
		post()
		conn.OnRecord = func(meta any) {
			m, ok := meta.(*msg)
			if ok && m.kind == kindContinue {
				post()
			}
		}
		conn.OnClose = func() {
			// Thinner terminated the channel (win or eviction): stop
			// sending immediately. In-flight bytes still drain.
			r.paid -= conn.AbortPending()
			if r.payEnd == 0 {
				r.payEnd = a.loop.Now()
			}
		}
	}
}

// finish closes the request's connections and reports the outcome.
func (a *ClientApp) finish(r *clientReq, served bool) {
	delete(a.reqs, r.id)
	if r.payEnd == 0 && r.paying {
		r.payEnd = a.loop.Now()
	}
	for _, conn := range r.payConns {
		if !conn.Closed() {
			r.paid -= conn.AbortPending()
			conn.Close()
		}
	}
	if !r.reqConn.Closed() {
		r.reqConn.Close()
	}
	out := RequestOutcome{
		ID:        r.id,
		Served:    served,
		Latency:   a.loop.Now() - r.issuedAt,
		PaidBytes: r.paid,
	}
	if r.paying {
		out.PayTime = r.payEnd - r.payStart
	}
	if served {
		a.Workload.RequestServed(r.id)
	} else {
		a.Workload.RequestFailed(r.id, 0)
	}
	if a.OnOutcome != nil {
		a.OnOutcome(out)
	}
}
