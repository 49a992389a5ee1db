// Package simclock adapts the discrete-event loop to the core.Clock
// interface, letting the thinner, server, and client models run over
// virtual time.
package simclock

import (
	"time"

	"speakup/internal/core"
	"speakup/internal/sim"
)

// Clock implements core.Clock on top of a sim.Loop.
type Clock struct{ Loop *sim.Loop }

var _ core.Clock = Clock{}

// New wraps loop.
func New(loop *sim.Loop) Clock { return Clock{Loop: loop} }

// Now returns the loop's virtual time.
func (c Clock) Now() time.Duration { return c.Loop.Now() }

// After schedules fn after d on the loop. The loop's event slots are
// arena-recycled and the returned Timer is the event's handle packed
// into a value, so scheduling and cancelling allocate nothing beyond
// what fn itself captured: callers on per-request paths pass a func
// built once and reuse it.
func (c Clock) After(d time.Duration, fn func()) core.Timer {
	return core.NewTimer((*canceler)(c.Loop), c.Loop.After(d, fn).Key())
}

// canceler cancels loop events by their packed handle.
type canceler sim.Loop

// CancelTimer implements core.TimerCanceler.
func (c *canceler) CancelTimer(id uint64) { (*sim.Loop)(c).Cancel(sim.EventOfKey(id)) }
