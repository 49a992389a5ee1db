// Package front is speak-up's request lifecycle (§3.3), written once
// over any core.Policy for the simulator (internal/appsim) and the live
// HTTP and wire listeners (internal/web, internal/wire).
//
// The arrival ladder: during an origin brownout an arrival is shed
// (HTTP 503 + Retry-After, wire SHED, the simulator's "busy"); an
// initial request, one not yet paying, that finds the origin occupied
// is told to pay (402, "please"); an id another waiter holds is a
// duplicate (409, wire REJECT). Otherwise the waiter is registered and
// the policy's verdict answers it: admitted, held as a contender or
// queued (ok), or turned away (a busy pass-through sheds, random drop
// asks for a retry). An admission starts the origin; when it is done
// the waiter gets the body, then the policy admits the next request. A
// timeout eviction hands the held waiter nil; under §5 it aborts a
// suspended request.
//
// Like a core.Policy, a Front must be driven from one goroutine or
// under one lock; only Release may run anywhere. Payment bypasses it:
// every transport, the simulator's included, credits the thinner's
// payment channels directly.
package front

import "speakup/internal/core"

// Origin is the protected server as a Front drives it. Suspend and
// Abort are needed only under the §5 quantum scheduler.
type Origin struct {
	// Start hands id to the server, or resumes it if suspended (§5).
	// The origin reports the end of its service with Front.Done.
	Start func(id core.RequestID)
	// Suspend pauses id, which holds the server, for a higher bid.
	Suspend func(id core.RequestID)
	// Abort drops id if the server holds it suspended, reporting
	// whether it did.
	Abort func(id core.RequestID) bool
}

// Transport is what a transport supplies beyond its waiters.
type Transport struct {
	// EndPayment, if set, ends id's payment stream when the policy
	// settles it: served for an admission (paid is the price), not for
	// an eviction. Live payment streams watch their channel's state
	// word instead.
	EndPayment func(id core.RequestID, paid int64, served bool)
	// Route, if set, answers every request by id, as Deliver would: the
	// simulator keys its request connections by id, so it arrives with
	// a nil waiter, registers none and is never told of a duplicate (a
	// re-issued request takes over its id).
	Route func(id core.RequestID, body []byte)
}

// Front is one admission front: the arrival ladder, the waiter
// registry and the dispatch of one policy's callbacks.
type Front struct {
	clock  core.Clock
	policy core.Policy
	th     *core.Thinner // nil for a baseline, which has no brownout ladder
	// table is the waiter registry: the thinner's bid table, or one of
	// the front's own for a baseline.
	table  *core.BidTable
	origin Origin
	tr     Transport

	serving map[core.RequestID]core.Waiter // admitted, until the origin is done
	body    []byte                         // what Done delivers
}

// New builds the front for policy and takes over its callbacks.
func New(clock core.Clock, policy core.Policy, origin Origin, tr Transport) *Front {
	f := &Front{clock: clock, policy: policy, origin: origin, tr: tr,
		serving: make(map[core.RequestID]core.Waiter)}
	f.th, _ = policy.(*core.Thinner)
	if f.th != nil {
		f.table = f.th.Table()
	} else {
		f.table = core.NewBidTable(1)
	}
	policy.SetCallbacks(core.Callbacks{Admit: f.admit, Evict: f.evict, Suspend: origin.Suspend, Done: f.done})
	return f
}

// Arrive runs the arrival ladder for id, answered through w. initial
// marks a request not yet paying.
func (f *Front) Arrive(id core.RequestID, w core.Waiter, initial bool) core.ArriveVerdict {
	if f.th != nil && f.th.Health() == core.HealthStalled {
		return f.th.RequestArrived(id) // the thinner counts the shed
	}
	if initial && f.policy.Busy() {
		return core.ArriveBusy
	}
	if w != nil && !f.table.SetWaiter(id, w) {
		if f.th != nil {
			f.th.Trace.OnDuplicate(uint64(id), f.clock.Now())
		}
		return core.ArriveDuplicate
	}
	v := f.policy.RequestArrived(id)
	if v != core.ArriveOK && w != nil {
		f.table.DropWaiter(id, w)
	}
	return v
}

// Done reports that the origin finished id: its waiter gets body (nil
// counts as empty), then the policy admits the next request.
func (f *Front) Done(id core.RequestID, body []byte) {
	if body == nil {
		body = []byte{}
	}
	f.body = body
	f.policy.ServerDone(id)
	f.body = nil
}

// Release drops w's registration for id if it is still current: the
// client gave up. Safe from any goroutine.
func (f *Front) Release(id core.RequestID, w core.Waiter) { f.table.DropWaiter(id, w) }

func (f *Front) admit(id core.RequestID, _ int64) {
	if w := f.table.TakeWaiter(id); w != nil {
		f.serving[id] = w
	}
	f.origin.Start(id)
}

func (f *Front) evict(id core.RequestID, paid int64, wasted bool) {
	if f.tr.EndPayment != nil {
		f.tr.EndPayment(id, paid, !wasted)
	}
	if !wasted {
		return // an admission: Done delivers the response
	}
	w := f.table.TakeWaiter(id)
	if f.origin.Abort != nil && f.origin.Abort(id) {
		if sw, ok := f.serving[id]; ok {
			w = sw
			delete(f.serving, id)
		}
	}
	f.deliver(id, w, nil)
}

func (f *Front) done(id core.RequestID) {
	w := f.serving[id]
	delete(f.serving, id)
	f.deliver(id, w, f.body)
}

func (f *Front) deliver(id core.RequestID, w core.Waiter, body []byte) {
	if f.tr.Route != nil {
		f.tr.Route(id, body)
	} else if w != nil {
		w.Deliver(body)
	}
}
