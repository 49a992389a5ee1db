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
	stack *tcpsim.Stack
	sizes Sizes
	mode  Mode

	auction *core.Thinner
	off     *core.PassThrough // ModeOff, and ModeProfiling past the profile
	rdrop   *core.RandomDrop
	hetero  *core.HeteroThinner
	prof    *core.Profiler // ModeProfiling's address profile
	srv     *server.Server
	stats   func() core.Stats // the active policy's Stats

	reqConns map[core.RequestID]*tcpsim.Conn   // request connection per id
	payConns map[core.RequestID][]*tcpsim.Conn // payment connection(s) per id

	// OnAdmit observes every admission (id, winning bid in bytes).
	OnAdmit func(id core.RequestID, paid int64)
	// OnWaste observes evicted payment channels (id, wasted bytes).
	OnWaste func(id core.RequestID, paid int64)
}

// ThinnerConfig assembles a ThinnerApp.
type ThinnerConfig struct {
	Mode  Mode
	Sizes Sizes
	// Thinner configures the auction policy (ModeAuction).
	Thinner core.Config
	// RandomDrop configures the §3.2 policy (ModeRandomDrop); its
	// Capacity defaults to the server capacity.
	RandomDrop core.RandomDropConfig
	// Hetero configures the §5 policy (ModeHetero).
	Hetero core.HeteroConfig
	// Profiler configures the §8.1 baseline (ModeProfiling).
	Profiler core.ProfilerConfig
	// Trace, if non-nil, attaches a request-lifecycle tracer to the
	// auction thinner (ModeAuction only). Pure observation: attaching
	// one must not change a single simulated event, which the golden
	// tests pin byte-for-byte.
	Trace *trace.Tracer
}

// NewThinnerApp wires the policy, server, and stack together. The
// server's Done callback is taken over by the app.
func NewThinnerApp(stack *tcpsim.Stack, clock core.Clock, srv *server.Server, cfg ThinnerConfig) *ThinnerApp {
	a := &ThinnerApp{
		stack:    stack,
		sizes:    cfg.Sizes.withDefaults(),
		mode:     cfg.Mode,
		srv:      srv,
		reqConns: make(map[core.RequestID]*tcpsim.Conn),
		payConns: make(map[core.RequestID][]*tcpsim.Conn),
	}
	// done releases the policy's busy latch when the server finishes
	// (or loses, in a crash) a request; the hetero scheduler takes
	// completions itself.
	var done func()
	switch cfg.Mode {
	case ModeProfiling:
		pc := cfg.Profiler
		if pc.BaselineRate == 0 {
			pc.BaselineRate = 2 // the good-client profile (λ=2)
		}
		a.prof = core.NewProfiler(clock, pc)
		fallthrough
	case ModeOff:
		a.off = core.NewPassThrough()
		a.off.Admit = func(id core.RequestID) { a.admit(id, 0) }
		a.off.Drop = func(id core.RequestID) { a.replyAndForget(id, kindBusy, a.sizes.Busy) }
		a.stats, done = a.off.Stats, a.off.ServerDone
	case ModeAuction:
		a.auction = core.NewThinner(clock, cfg.Thinner)
		a.auction.Trace = cfg.Trace
		a.auction.Admit = a.admit
		a.auction.Evict = func(id core.RequestID, paid int64, wasted bool) {
			if wasted {
				a.closePayment(id)
				if a.OnWaste != nil {
					a.OnWaste(id, paid)
				}
			}
		}
		// Brownout shed: answer busy instead of stranding the client as
		// a silent waiter; a retrying client backs off and re-offers.
		a.auction.Shed = func(id core.RequestID) { a.replyAndForget(id, kindBusy, a.sizes.Busy) }
		// On a crash, ServerDone releases the busy latch; the brownout
		// ladder defers the next auction until the origin is back.
		a.stats, done = a.auction.Stats, a.auction.ServerDone
	case ModeRandomDrop:
		a.rdrop = core.NewRandomDrop(clock, cfg.RandomDrop)
		a.rdrop.Admit = func(id core.RequestID) { a.admit(id, 0) }
		a.rdrop.Retry = func(id core.RequestID) { a.reply(id, kindRetry, a.sizes.Retry) }
		a.stats, done = a.rdrop.Stats, a.rdrop.ServerDone
	case ModeHetero:
		a.hetero = core.NewHeteroThinner(clock, cfg.Hetero)
		a.hetero.Start = func(id core.RequestID) { srv.Start(id) }
		a.hetero.Suspend = func(id core.RequestID) { srv.Suspend(id) }
		a.hetero.Resume = func(id core.RequestID) { srv.Resume(id) }
		a.hetero.Abort = func(id core.RequestID) {
			srv.Abort(id)
			a.closePayment(id)
			// Tell the client by closing its request connection.
			if conn, ok := a.reqConns[id]; ok {
				conn.Close()
				delete(a.reqConns, id)
			}
		}
		a.hetero.Done = func(id core.RequestID, paid int64) {
			a.closePayment(id)
			if a.OnAdmit != nil {
				a.OnAdmit(id, paid)
			}
			a.respond(id)
		}
		srv.Done = func(id core.RequestID) { a.hetero.ServerDone(id) }
		a.stats = a.hetero.Stats
	default:
		panic("appsim: unknown mode")
	}
	if done != nil {
		srv.Done = func(id core.RequestID) {
			a.respond(id)
			done()
		}
		srv.Failed = func(id core.RequestID) {
			// Crash: the in-flight request is gone; the closed
			// connection tells the client.
			a.failRequest(id)
			done()
		}
	}
	stack.Listen(a.accept)
	return a
}

// Auction exposes the auction policy (nil in other modes).
func (a *ThinnerApp) Auction() *core.Thinner { return a.auction }

// Stats returns the active policy's activity counters.
func (a *ThinnerApp) Stats() core.Stats { return a.stats() }

// Server exposes the emulated server.
func (a *ThinnerApp) Server() *server.Server { return a.srv }

// admit starts service and closes the winner's payment channels (the
// thinner terminates request (2) when request (1) is admitted).
func (a *ThinnerApp) admit(id core.RequestID, paid int64) {
	a.closePayment(id)
	if a.OnAdmit != nil {
		a.OnAdmit(id, paid)
	}
	a.srv.Start(id)
}

// respond sends the final response on the request connection.
func (a *ThinnerApp) respond(id core.RequestID) {
	if conn, ok := a.reqConns[id]; ok {
		if !conn.Closed() {
			conn.Write(a.sizes.Response, &msg{kind: kindResponse, id: id})
		}
		delete(a.reqConns, id)
	}
}

// reply sends a small control message on the request connection.
func (a *ThinnerApp) reply(id core.RequestID, kind msgKind, size int) {
	if conn, ok := a.reqConns[id]; ok && !conn.Closed() {
		conn.Write(size, &msg{kind: kind, id: id})
	}
}

// replyAndForget replies and drops the request state (OFF-mode drop).
func (a *ThinnerApp) replyAndForget(id core.RequestID, kind msgKind, size int) {
	a.reply(id, kind, size)
	delete(a.reqConns, id)
}

// failRequest tears down a request the origin lost in a crash: the
// closed request connection is how the client learns.
func (a *ThinnerApp) failRequest(id core.RequestID) {
	a.closePayment(id)
	if conn, ok := a.reqConns[id]; ok {
		if !conn.Closed() {
			conn.Close()
		}
		delete(a.reqConns, id)
	}
}

// closePayment tears down all payment channels for id.
func (a *ThinnerApp) closePayment(id core.RequestID) {
	for _, conn := range a.payConns[id] {
		if !conn.Closed() {
			conn.Close()
		}
	}
	delete(a.payConns, id)
}

// accept handles a new inbound connection: its records drive the
// protocol.
func (a *ThinnerApp) accept(conn *tcpsim.Conn) {
	// Payment bytes may arrive long before the first full POST record
	// completes, so the channel is registered on first bytes — eviction
	// must be able to close it mid-POST.
	registered := false
	conn.OnBytes = func(n int, meta any) {
		m, ok := meta.(*msg)
		if !ok || m.kind != kindPost {
			return
		}
		if !registered {
			a.registerPayConn(m.id, conn)
			registered = true
		}
		switch a.mode {
		case ModeAuction:
			a.auction.PaymentReceived(m.id, int64(n))
		case ModeHetero:
			a.hetero.PaymentReceived(m.id, int64(n))
		}
	}
	conn.OnRecord = func(meta any) {
		m, ok := meta.(*msg)
		if !ok {
			return
		}
		switch m.kind {
		case kindInitial:
			a.reqConns[m.id] = conn
			a.initialArrived(m.id, core.Address(conn.Remote()))
		case kindRequest:
			a.requestArrived(m.id)
		case kindPost:
			// Full POST delivered without a win: ask for another.
			if !conn.Closed() {
				conn.Write(a.sizes.Continue, &msg{kind: kindContinue, id: m.id})
			}
		}
	}
}

func (a *ThinnerApp) registerPayConn(id core.RequestID, conn *tcpsim.Conn) {
	for _, c := range a.payConns[id] {
		if c == conn {
			return
		}
	}
	a.payConns[id] = append(a.payConns[id], conn)
}

// initialArrived handles the client's first GET. from is the client's
// network address, used only by the profiling baseline (speak-up
// itself never keys on addresses — §2.2).
func (a *ThinnerApp) initialArrived(id core.RequestID, from core.Address) {
	switch a.mode {
	case ModeProfiling:
		if !a.prof.Allow(from) {
			// Blocked by the profile: the busy reply a busy drop gets.
			a.replyAndForget(id, kindBusy, a.sizes.Busy)
			return
		}
		fallthrough
	case ModeOff:
		a.off.RequestArrived(id)
	case ModeRandomDrop:
		a.rdrop.RequestArrived(id)
	case ModeAuction:
		if !a.auction.Busy() {
			a.auction.RequestArrived(id) // direct admit
			return
		}
		// Busy: return the JavaScript; the client will issue the actual
		// request (1) and the payment POST (2).
		a.reply(id, kindPlease, a.sizes.Please)
	case ModeHetero:
		a.reply(id, kindPlease, a.sizes.Please)
	}
}

// requestArrived handles the re-issued actual request (1).
func (a *ThinnerApp) requestArrived(id core.RequestID) {
	switch a.mode {
	case ModeAuction:
		a.auction.RequestArrived(id)
	case ModeHetero:
		a.hetero.RequestArrived(id)
	case ModeRandomDrop:
		a.rdrop.RequestArrived(id)
	}
}
