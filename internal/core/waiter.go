package core

// Waiter is a transport-side sink for a held request's outcome. The
// admission front (internal/front) registers one per held request in
// the BidTable, where the live transports put one of their own (the
// HTTP handler a buffered channel, the wire connection its event
// queue), and delivers the request's outcome through it.
type Waiter interface {
	// Deliver hands the waiter its outcome: the origin's response body
	// on admission, or nil on eviction. Called from the front's
	// dispatch paths — possibly with the control mutex held — so
	// implementations must not block.
	Deliver(body []byte)
}

// ArriveVerdict is a front's answer to one transport-level request
// arrival. Each verdict maps onto the HTTP front's pinned status
// codes, so every transport surfaces identical semantics.
type ArriveVerdict int

const (
	// ArriveOK: the request is registered and contending (HTTP: the
	// held 200-to-be).
	ArriveOK ArriveVerdict = iota
	// ArriveDuplicate: a request with this id is already waiting
	// (HTTP 409 Conflict).
	ArriveDuplicate
	// ArriveShed: the arrival is turned away with a retry hint: the
	// origin is browned out and auctions are paused, or a no-defense
	// baseline found the server busy (HTTP 503 + Retry-After; the
	// simulator's "busy" reply).
	ArriveShed
	// ArriveBusy: an initial (not yet paying) request found the origin
	// occupied, so nothing was registered; the client should open a
	// payment channel and re-issue (HTTP 402 + Speakup-Action: pay).
	ArriveBusy
	// ArriveRetry: the §3.2 random drop lost the request's coin toss;
	// the client retries at once (the simulator's "retry" reply).
	ArriveRetry
)

// The refusal messages every transport sends with a verdict — HTTP as
// the error body, the wire front as the frame payload — declared once
// so the two cannot drift.
const (
	EvictedMsg   = "evicted: payment channel timed out"
	DuplicateMsg = "duplicate request id: a request with this id is already waiting"
	ShedMsg      = "origin brownout: auctions paused, retry shortly"
)
