package core

// Waiter is a transport-side sink for a held request's outcome: each
// transport registers one per held request in the BidTable (the HTTP
// front a buffered channel, the wire front its connection), and the
// front's admit/evict callbacks deliver through it.
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
	// ArriveShed: origin brownout — auctions are paused and the
	// arrival is refused with a retry hint (HTTP 503 + Retry-After).
	ArriveShed
	// ArriveBusy: an initial (not yet paying) request found the origin
	// occupied, so nothing was registered; the client should open a
	// payment channel and re-issue (HTTP 402 + Speakup-Action: pay).
	ArriveBusy
)

// The refusal messages every transport sends with a verdict — HTTP as
// the error body, the wire front as the frame payload — declared once
// so the two cannot drift.
const (
	EvictedMsg   = "evicted: payment channel timed out"
	DuplicateMsg = "duplicate request id: a request with this id is already waiting"
	ShedMsg      = "origin brownout: auctions paused, retry shortly"
)
