package appsim

import (
	"fmt"

	"speakup/internal/core"
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
// stack, implementing the thinner's side of the protocol.
type ThinnerApp struct {
	sizes  Sizes
	policy core.Policy
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

// paymentConn marks an accepted Conn's Ctx once it is registered as a
// payment channel.
type paymentConn struct{}

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
		srv:   srv,
		reqs:  make(map[core.RequestID]*thinReq),
	}
	a.onBytes = a.bytesArrived
	a.onRecord = a.recordArrived
	cb := core.Callbacks{
		Admit:   a.serve,
		Evict:   a.evict,
		Suspend: srv.Suspend,
		Done:    a.respond,
		// A busy drop and a brownout shed answer busy rather than strand
		// the client; a retrying client backs off and re-offers.
		Refuse: func(id core.RequestID) { a.replyAndForget(id, kindBusy, a.sizes.Busy) },
	}
	switch cfg.Mode {
	case ModeProfiling:
		pc := cfg.Profiler
		if pc.BaselineRate == 0 {
			pc.BaselineRate = 2 // the good-client profile (λ=2)
		}
		a.prof = core.NewProfiler(clock, pc)
		fallthrough
	case ModeOff:
		p := core.NewPassThrough()
		p.Callbacks = cb
		a.policy = p
	case ModeRandomDrop:
		r := core.NewRandomDrop(clock, cfg.RandomDrop)
		cb.Refuse = func(id core.RequestID) { a.reply(id, kindRetry, a.sizes.Retry) }
		r.Callbacks = cb
		a.policy = r
	case ModeAuction, ModeHetero:
		th := core.NewThinner(clock, cfg.Thinner)
		th.Callbacks, th.Trace = cb, cfg.Trace
		a.policy = th
	default:
		panic("appsim: unknown mode")
	}
	srv.Done = a.policy.ServerDone
	srv.Failed = func(id core.RequestID) {
		// Crash: the closed connection tells the client; the thinner's
		// brownout ladder defers the next auction.
		a.failRequest(id)
		a.policy.ServerDone(id)
	}
	stack.Listen(a.accept)
	return a
}

// Auction exposes the auction thinner (nil in the baseline modes).
func (a *ThinnerApp) Auction() *core.Thinner {
	th, _ := a.policy.(*core.Thinner)
	return th
}

// Stats returns the active policy's activity counters.
func (a *ThinnerApp) Stats() core.Stats { return a.policy.Stats() }

// serve starts id on the server, or resumes it if the server holds it
// suspended (§5).
func (a *ThinnerApp) serve(id core.RequestID, _ int64) {
	if a.srv.Suspended(id) {
		a.srv.Resume(id)
		return
	}
	a.srv.Start(id)
}

// evict closes id's payment channels (the thinner terminates request
// (2) when request (1) is admitted, completes under §5, or times out).
// A served request's price goes to OnAdmit. A §5 request the server
// holds suspended is aborted, and closing its request connection tells
// the client.
func (a *ThinnerApp) evict(id core.RequestID, paid int64, wasted bool) {
	a.closePayment(id)
	if !wasted {
		if a.OnAdmit != nil {
			a.OnAdmit(id, paid)
		}
		return
	}
	if a.srv.Suspended(id) {
		a.srv.Abort(id)
		a.failRequest(id)
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

// respond sends the final response on the request connection.
func (a *ThinnerApp) respond(id core.RequestID) {
	a.reply(id, kindResponse, a.sizes.Response)
	a.forget(id, false)
}

// reply sends a small control message on the request connection.
func (a *ThinnerApp) reply(id core.RequestID, kind msgKind, size int) {
	if e := a.reqs[id]; e != nil {
		if conn := e.conn.Conn(); conn != nil && !conn.Closed() {
			conn.Write(size, newMsg(kind, id))
		}
	}
}

// replyAndForget replies and drops the request state (a refusal).
func (a *ThinnerApp) replyAndForget(id core.RequestID, kind msgKind, size int) {
	a.reply(id, kind, size)
	a.forget(id, false)
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

// bytesArrived credits payment bytes. They may arrive long before the
// first full POST record completes, so the channel is registered on
// its first bytes: eviction must be able to close it mid-POST.
func (a *ThinnerApp) bytesArrived(conn *tcpsim.Conn, n int, tag uint64) {
	m := msg(tag)
	if m.kind() != kindPost {
		return
	}
	if conn.Ctx == nil {
		e := a.entry(m.id())
		e.pay = append(e.pay, conn.Ref())
		conn.Ctx = paymentConn{}
	}
	a.policy.PaymentReceived(m.id(), int64(n))
}

// recordArrived handles one complete client message.
func (a *ThinnerApp) recordArrived(conn *tcpsim.Conn, tag uint64) {
	m := msg(tag)
	switch m.kind() {
	case kindInitial:
		a.entry(m.id()).conn = conn.Ref()
		a.initialArrived(m.id(), core.Address(conn.Remote()))
	case kindRequest:
		a.policy.RequestArrived(m.id()) // the re-issued request (1)
	case kindPost:
		// Full POST delivered without a win: ask for another.
		if !conn.Closed() {
			conn.Write(a.sizes.Continue, newMsg(kindContinue, m.id()))
		}
	}
}

// initialArrived handles the client's first GET. from is the client's
// network address, used only by the profiling baseline (speak-up
// itself never keys on addresses — §2.2).
func (a *ThinnerApp) initialArrived(id core.RequestID, from core.Address) {
	if a.prof != nil && !a.prof.Allow(from) {
		a.replyAndForget(id, kindBusy, a.sizes.Busy) // blocked by the profile
		return
	}
	if a.policy.Busy() {
		// Return the JavaScript; the client will issue the actual
		// request (1) and the payment POST (2).
		a.reply(id, kindPlease, a.sizes.Please)
		return
	}
	a.policy.RequestArrived(id)
}
