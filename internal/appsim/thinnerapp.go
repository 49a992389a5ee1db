package appsim

import (
	"fmt"

	"speakup/internal/core"
	"speakup/internal/front"
	"speakup/internal/server"
	"speakup/internal/tcpsim"
	"speakup/internal/trace"
)

// Mode selects the front-end policy.
type Mode int

// Front-end policies.
const (
	// ModeOff is the no-defense baseline: drop when busy.
	ModeOff Mode = iota
	// ModeAuction is speak-up's §3.3 explicit payment channel.
	ModeAuction
	// ModeRandomDrop is speak-up's §3.2 random drops + aggressive retries.
	ModeRandomDrop
	// ModeHetero is the §5 quantum-auction scheduler.
	ModeHetero
	// ModeProfiling is the §8.1 detect-and-block baseline: per-address
	// rate profiles, no payment.
	ModeProfiling
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeAuction:
		return "auction"
	case ModeRandomDrop:
		return "random-drop"
	case ModeHetero:
		return "hetero"
	case ModeProfiling:
		return "profiling"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ThinnerApp binds a front-end policy and the emulated server to a TCP
// stack: the simulated-TCP adapter of the admission front
// (internal/front), which runs the protocol's request lifecycle.
type ThinnerApp struct {
	sizes  Sizes
	clock  core.Clock
	policy core.Policy
	th     *core.Thinner // the policy in the auction modes; nil in the baselines
	front  *front.Front
	prof   *core.Profiler // ModeProfiling's address profile, ahead of the pass-through
	srv    *server.Server

	// reqs holds each open request's connections; entries go back to
	// free once a request has neither, so a request costs no allocation
	// once as many have been open before.
	reqs map[core.RequestID]*thinReq
	free []*thinReq

	// The connection callbacks, built once for every accepted Conn.
	onBytes  func(*tcpsim.Conn, int, uint64)
	onRecord func(*tcpsim.Conn, uint64)

	// OnAdmit observes every served request's price: the winning bid
	// at admission, or under §5 the lifetime charge at completion.
	OnAdmit func(id core.RequestID, paid int64)
}

// thinReq is one request's connections, as Refs: the client may close
// either kind, and a closed pair is soon reused for another request.
type thinReq struct {
	conn tcpsim.Ref   // the request connection; zero once answered or dropped
	pay  []tcpsim.Ref // the payment connection(s), in the order they registered
}

// ThinnerConfig assembles a ThinnerApp.
type ThinnerConfig struct {
	Mode  Mode
	Sizes Sizes
	// Thinner configures the auction (ModeAuction) and, with its
	// Quantum set, the §5 scheduler (ModeHetero).
	Thinner core.Config
	// RandomDrop configures the §3.2 policy (ModeRandomDrop); its
	// Capacity defaults to the server capacity.
	RandomDrop core.RandomDropConfig
	// Profiler configures the §8.1 baseline (ModeProfiling).
	Profiler core.ProfilerConfig
	// Trace, if non-nil, attaches a request-lifecycle tracer to the
	// thinner (ModeAuction and ModeHetero). Pure observation:
	// attaching one must not change a single simulated event, which
	// the golden tests pin byte-for-byte.
	Trace *trace.Tracer
}

// NewThinnerApp wires the policy, server, and stack together. The
// server's Done and Failed callbacks are taken over by the app.
func NewThinnerApp(stack *tcpsim.Stack, clock core.Clock, srv *server.Server, cfg ThinnerConfig) *ThinnerApp {
	a := &ThinnerApp{
		sizes: cfg.Sizes.withDefaults(),
		clock: clock,
		srv:   srv,
		reqs:  make(map[core.RequestID]*thinReq),
	}
	a.onBytes = a.bytesArrived
	a.onRecord = a.recordArrived
	switch cfg.Mode {
	case ModeProfiling:
		pc := cfg.Profiler
		if pc.BaselineRate == 0 {
			pc.BaselineRate = 2 // the good-client profile (λ=2)
		}
		a.prof = core.NewProfiler(clock, pc)
		fallthrough
	case ModeOff:
		a.policy = core.NewPassThrough()
	case ModeRandomDrop:
		a.policy = core.NewRandomDrop(clock, cfg.RandomDrop)
	case ModeAuction, ModeHetero:
		a.th = core.NewThinner(clock, cfg.Thinner)
		a.th.Trace = cfg.Trace
		a.policy = a.th
	default:
		panic("appsim: unknown mode")
	}
	a.front = front.New(clock, a.policy, front.Origin{
		Start:   srv.Start,
		Suspend: srv.Suspend,
		Abort: func(id core.RequestID) bool {
			if !srv.Abort(id) {
				return false
			}
			a.failRequest(id)
			return true
		},
	}, front.Transport{EndPayment: a.endPayment, Route: a.respond})
	srv.Done = func(id core.RequestID) { a.front.Done(id, nil) }
	srv.Failed = func(id core.RequestID) {
		// Crash: the closed connection tells the client (so Done's
		// response goes nowhere); the thinner's brownout ladder defers
		// the next auction.
		a.failRequest(id)
		a.front.Done(id, nil)
	}
	stack.Listen(a.accept)
	return a
}

// Auction exposes the auction thinner (nil in the baseline modes).
func (a *ThinnerApp) Auction() *core.Thinner { return a.th }

// Stats returns the active policy's activity counters.
func (a *ThinnerApp) Stats() core.Stats { return a.policy.Stats() }

// endPayment closes id's payment channels: the thinner terminates
// request (2) when request (1) is admitted, completes under §5, or
// times out. A served request's price goes to OnAdmit.
func (a *ThinnerApp) endPayment(id core.RequestID, paid int64, served bool) {
	a.closePayment(id)
	if served && a.OnAdmit != nil {
		a.OnAdmit(id, paid)
	}
}

// entry returns id's connections, creating the entry if absent.
func (a *ThinnerApp) entry(id core.RequestID) *thinReq {
	if e := a.reqs[id]; e != nil {
		return e
	}
	var e *thinReq
	if k := len(a.free); k > 0 {
		e = a.free[k-1]
		a.free = a.free[:k-1]
	} else {
		e = &thinReq{}
	}
	a.reqs[id] = e
	return e
}

// tidy frees id's entry once it holds no connection.
func (a *ThinnerApp) tidy(id core.RequestID, e *thinReq) {
	if e.conn == (tcpsim.Ref{}) && len(e.pay) == 0 {
		delete(a.reqs, id)
		a.free = append(a.free, e)
	}
}

// forget drops id's request connection, closing it first if close is
// set and it is still open.
func (a *ThinnerApp) forget(id core.RequestID, close bool) {
	e := a.reqs[id]
	if e == nil || e.conn == (tcpsim.Ref{}) {
		return
	}
	if conn := e.conn.Conn(); close && conn != nil && !conn.Closed() {
		conn.Close()
	}
	e.conn = tcpsim.Ref{}
	a.tidy(id, e)
}

// respond sends a served request its response on the request
// connection. An evicted one (nil body) gets no reply.
func (a *ThinnerApp) respond(id core.RequestID, body []byte) {
	if body != nil {
		a.reply(id, kindResponse, a.sizes.Response)
		a.forget(id, false)
	}
}

// reply sends a small control message on the request connection.
func (a *ThinnerApp) reply(id core.RequestID, kind msgKind, size int) {
	if e := a.reqs[id]; e != nil {
		if conn := e.conn.Conn(); conn != nil && !conn.Closed() {
			conn.Write(size, newMsg(kind, id))
		}
	}
}

// answer sends the front's verdict on id's request connection.
func (a *ThinnerApp) answer(id core.RequestID, v core.ArriveVerdict) {
	switch v {
	case core.ArriveOK:
	case core.ArriveBusy:
		// Return the JavaScript; the client will issue the actual
		// request (1) and the payment POST (2).
		a.reply(id, kindPlease, a.sizes.Please)
	case core.ArriveRetry:
		a.reply(id, kindRetry, a.sizes.Retry)
	default:
		// A shed answers busy rather than strand the client; a retrying
		// client backs off and re-offers.
		a.reply(id, kindBusy, a.sizes.Busy)
		a.forget(id, false)
	}
}

// failRequest tears down a request the origin lost (a crash, or a §5
// abort): the closed request connection is how the client learns.
func (a *ThinnerApp) failRequest(id core.RequestID) {
	a.closePayment(id)
	a.forget(id, true)
}

// closePayment tears down all payment channels for id.
func (a *ThinnerApp) closePayment(id core.RequestID) {
	e := a.reqs[id]
	if e == nil {
		return
	}
	for _, ref := range e.pay {
		if conn := ref.Conn(); conn != nil && !conn.Closed() {
			conn.Close()
		}
	}
	clear(e.pay)
	e.pay = e.pay[:0]
	a.tidy(id, e)
}

// accept handles a new inbound connection: its records drive the
// protocol.
func (a *ThinnerApp) accept(conn *tcpsim.Conn) {
	conn.OnBytes = a.onBytes
	conn.OnRecord = a.onRecord
}

// bytesArrived credits payment bytes to the connection's payment
// channel, which its Ctx keeps. They may arrive long before the first
// full POST record completes, so the connection is registered on its
// first bytes: eviction must be able to close it mid-POST. Once the
// channel settles (its request admitted or evicted), the bytes go to
// the id's channel in the table, opened afresh if need be, as a new
// POST's would. The baselines take no payment.
func (a *ThinnerApp) bytesArrived(conn *tcpsim.Conn, n int, tag uint64) {
	m := msg(tag)
	if m.kind() != kindPost || a.th == nil {
		return
	}
	id, bytes, now := m.id(), int64(n), a.clock.Now()
	ch, _ := conn.Ctx.(*core.PayChan)
	if ch == nil {
		e := a.entry(id)
		e.pay = append(e.pay, conn.Ref())
	}
	if ch == nil || !ch.Credit(bytes, now) {
		ch = a.th.Table().Channel(id, now)
		ch.Credit(bytes, now)
		conn.Ctx = ch
	}
	a.th.Trace.OnCredit(uint64(id), bytes, now, trace.TransportSim)
}

// recordArrived handles one complete client message.
func (a *ThinnerApp) recordArrived(conn *tcpsim.Conn, tag uint64) {
	m := msg(tag)
	switch m.kind() {
	case kindInitial:
		a.entry(m.id()).conn = conn.Ref()
		// The profiling baseline blocks by the client's network address
		// (speak-up itself never keys on addresses — §2.2).
		if a.prof != nil && !a.prof.Allow(core.Address(conn.Remote())) {
			a.answer(m.id(), core.ArriveShed)
			return
		}
		a.answer(m.id(), a.front.Arrive(m.id(), nil, true))
	case kindRequest:
		// The re-issued request (1), or a §3.2 retry. A retry still in
		// flight when its request was answered finds the connection
		// forgotten: offering it again would serve the request twice.
		if e := a.reqs[m.id()]; e == nil || e.conn.Conn() != conn {
			return
		}
		a.answer(m.id(), a.front.Arrive(m.id(), nil, false))
	case kindPost:
		// Full POST delivered without a win: ask for another.
		if !conn.Closed() {
			conn.Write(a.sizes.Continue, newMsg(kindContinue, m.id()))
		}
	}
}
