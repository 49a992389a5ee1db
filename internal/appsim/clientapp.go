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
	// reqs holds the live requests, each at its slot; free holds
	// finished ones for reuse, so a request costs no allocation once
	// the client has had as many in flight before.
	reqs []*clientReq
	free []*clientReq

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
	// Payer sizes each payment POST. Required.
	Payer Payer
}

func (c ClientAppConfig) withDefaults() ClientAppConfig {
	if c.PayConns == 0 {
		c.PayConns = 1
	}
	return c
}

// maxRetryPipeline caps a request's outstanding §3.2 retries.
const maxRetryPipeline = 32

// clientReq is one request's state. Each of its connections carries it
// in Ctx, and it knows its app, so the connection callbacks are plain
// functions and wiring a connection allocates nothing.
type clientReq struct {
	app      *ClientApp
	id       core.RequestID
	slot     int // index in ClientApp.reqs
	issuedAt time.Duration
	reqConn  tcpsim.Ref // zero once the request has finished
	payConns []tcpsim.Ref
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
	}
	workload.Issue = a.issue
	workload.Abandon = a.abandon
	return a
}

// abandon tears down a deadline-expired request's half-open exchange;
// finish reports the failure to the workload, which may retry it.
func (a *ClientApp) abandon(id core.RequestID) {
	for _, r := range a.reqs {
		if r.id == id {
			a.finish(r, false)
			return
		}
	}
	a.Workload.RequestFailed(id, 0)
}

// issue opens the request connection and sends the initial GET.
func (a *ClientApp) issue(id core.RequestID) {
	var r *clientReq
	if k := len(a.free); k > 0 {
		r = a.free[k-1]
		a.free = a.free[:k-1]
	} else {
		r = &clientReq{app: a}
	}
	r.id, r.slot, r.issuedAt = id, len(a.reqs), a.loop.Now()
	a.reqs = append(a.reqs, r)
	conn := a.stack.Dial(a.thinner, nil)
	r.reqConn = conn.Ref()
	conn.Ctx = r
	conn.Write(a.sizes.Initial, newMsg(kindInitial, id))
	conn.OnRecord = reqRecord
	conn.OnClose = reqClosed
}

// reqRecord handles a reply on a request connection. A reply after the
// request finished (its connection closed by finish while the same
// segment still delivers) finds the request no longer owning it.
func reqRecord(c *tcpsim.Conn, tag uint64) {
	r := c.Ctx.(*clientReq)
	if r.reqConn.Conn() != c {
		return
	}
	a := r.app
	switch msg(tag).kind() {
	case kindPlease:
		// Issue the actual request (1) and the payment POST(s) (2).
		c.Write(a.sizes.Request, newMsg(kindRequest, r.id))
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
		for r.retries < maxRetryPipeline {
			c.Write(a.sizes.Request, newMsg(kindRequest, r.id))
			r.retries += 1
			if r.retries >= 2 { // growth batch per reply
				break
			}
		}
	}
}

// reqClosed fails a live request whose request connection the thinner
// closed (a §5 abort or a crashed origin).
func reqClosed(c *tcpsim.Conn) {
	if r := c.Ctx.(*clientReq); r.reqConn.Conn() == c {
		r.app.finish(r, false)
	}
}

// openPayment dials the payment channel(s) and starts POSTing.
func (a *ClientApp) openPayment(r *clientReq) {
	if r.paying {
		return
	}
	r.paying = true
	r.payStart = a.loop.Now()
	for i := 0; i < a.cfg.PayConns; i++ {
		conn := a.stack.Dial(a.thinner, nil)
		conn.Ctx = r
		r.payConns = append(r.payConns, conn.Ref())
		a.post(r, conn)
		conn.OnRecord = payRecord
		conn.OnClose = payClosed
	}
}

// post writes r's next payment POST on conn. An open payment
// connection always belongs to a live request: finish closes them all.
func (a *ClientApp) post(r *clientReq, conn *tcpsim.Conn) {
	if conn.Closed() {
		return
	}
	size := a.cfg.Payer.PostSize(a.loop.Now(), r.paid, a.sizes.Post)
	if size <= 0 {
		return // defect: stop paying, keep the request open
	}
	conn.Write(size, newMsg(kindPost, r.id))
	r.paid += int64(size)
}

// payRecord posts again when the thinner asks for another POST.
func payRecord(c *tcpsim.Conn, tag uint64) {
	if msg(tag).kind() == kindContinue {
		r := c.Ctx.(*clientReq)
		r.app.post(r, c)
	}
}

// payClosed runs when the thinner terminates a payment channel (win or
// eviction): stop sending immediately. In-flight bytes still drain.
func payClosed(c *tcpsim.Conn) {
	r := c.Ctx.(*clientReq)
	r.paid -= c.AbortPending()
	if r.payEnd == 0 {
		r.payEnd = r.app.loop.Now()
	}
}

// finish closes the request's connections, returns its state to the
// free list and reports the outcome.
func (a *ClientApp) finish(r *clientReq, served bool) {
	last := a.reqs[len(a.reqs)-1]
	a.reqs[r.slot], last.slot = last, r.slot
	a.reqs[len(a.reqs)-1] = nil
	a.reqs = a.reqs[:len(a.reqs)-1]
	if r.payEnd == 0 && r.paying {
		r.payEnd = a.loop.Now()
	}
	for _, ref := range r.payConns {
		if conn := ref.Conn(); conn != nil && !conn.Closed() {
			r.paid -= conn.AbortPending()
			conn.Close()
		}
	}
	if conn := r.reqConn.Conn(); conn != nil && !conn.Closed() {
		conn.Close()
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
	clear(r.payConns)
	*r = clientReq{app: a, payConns: r.payConns[:0]}
	a.free = append(a.free, r)
	if served {
		a.Workload.RequestServed(out.ID)
	} else {
		a.Workload.RequestFailed(out.ID, 0)
	}
	if a.OnOutcome != nil {
		a.OnOutcome(out)
	}
}
