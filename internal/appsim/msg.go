// Package appsim models speak-up's application-layer protocol over the
// simulated TCP stack: the HTTP exchange the paper's prototype drives
// with JavaScript (§6).
//
// A request proceeds as in the paper. The client sends its request to
// the thinner's well-known URL. If the server is free the request goes
// straight through. Otherwise the thinner replies with "please pay"
// (the JavaScript), and the client issues two HTTP requests: (1) the
// actual request, whose response the thinner delays, and (2) a large
// HTTP POST of dummy bytes — the payment channel. If the POST
// completes before the client wins an auction, the thinner asks for
// another POST; the quiescent gap between POSTs emerges from the
// exchange. When the client wins, the thinner terminates the payment
// channel and forwards the request to the emulated server; the
// response returns on the request connection.
package appsim

import "speakup/internal/core"

// msgKind labels protocol messages; sizes are configurable via Sizes.
type msgKind uint8

const (
	kindInitial  msgKind = iota // client -> thinner: first GET
	kindPlease                  // thinner -> client: please pay (the JavaScript)
	kindRequest                 // client -> thinner: the actual request (1)
	kindPost                    // client -> thinner: payment POST bytes (2)
	kindContinue                // thinner -> client: POST done, send another
	kindResponse                // thinner -> client: served response
	kindBusy                    // thinner -> client: dropped (OFF mode)
	kindRetry                   // thinner -> client: please retry (§3.2)
	kindGet                     // bystander -> web server: file request (Fig 9)
	kindFile                    // web server -> bystander: file payload
)

// msg is one protocol message, carried as its tcpsim record's tag: the
// kind in the low byte and the request id above it (for kindGet, the
// requested file size in place of the id). A message is a plain word,
// so sending one allocates nothing and nothing has to outlive it.
type msg uint64

// newMsg returns the tag of a kind message for id.
func newMsg(kind msgKind, id core.RequestID) uint64 { return uint64(id)<<8 | uint64(kind) }

func (m msg) kind() msgKind      { return msgKind(m) }
func (m msg) id() core.RequestID { return core.RequestID(m >> 8) }

// Sizes configures on-the-wire message sizes in bytes. Zero fields
// take the defaults, which follow the paper's prototype (§6: one
// megabyte POSTs, small control messages).
type Sizes struct {
	Initial  int // default 200
	Please   int // default 150
	Request  int // default 200
	Post     int // default 1 MB (1_000_000)
	Continue int // default 150
	Response int // default 1000
	Busy     int // default 150
	Retry    int // default 150
}

func (s Sizes) withDefaults() Sizes {
	def := func(v *int, d int) {
		if *v == 0 {
			*v = d
		}
	}
	def(&s.Initial, 200)
	def(&s.Please, 150)
	def(&s.Request, 200)
	def(&s.Post, 1_000_000)
	def(&s.Continue, 150)
	def(&s.Response, 1000)
	def(&s.Busy, 150)
	def(&s.Retry, 150)
	return s
}
