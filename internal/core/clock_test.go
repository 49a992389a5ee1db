package core

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced Clock for unit tests.
type fakeClock struct {
	now    time.Duration
	timers []*fakeTimer
	nextID int
}

type fakeTimer struct {
	id   int
	at   time.Duration
	fn   func()
	dead bool
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) After(d time.Duration, fn func()) Timer {
	c.nextID++
	t := &fakeTimer{id: c.nextID, at: c.now + d, fn: fn}
	c.timers = append(c.timers, t)
	return NewTimer(t, 0)
}

func (t *fakeTimer) CancelTimer(uint64) { t.dead = true }

// Advance moves time forward, firing due timers in order.
func (c *fakeClock) Advance(d time.Duration) {
	target := c.now + d
	for {
		// Find the earliest pending timer at or before target.
		var next *fakeTimer
		for _, t := range c.timers {
			if t.dead {
				continue
			}
			if t.at <= target && (next == nil || t.at < next.at || (t.at == next.at && t.id < next.id)) {
				next = t
			}
		}
		if next == nil {
			break
		}
		c.now = next.at
		next.dead = true
		next.fn()
	}
	c.now = target
	// Compact dead timers.
	live := c.timers[:0]
	for _, t := range c.timers {
		if !t.dead {
			live = append(live, t)
		}
	}
	c.timers = live
	sort.Slice(c.timers, func(i, j int) bool { return c.timers[i].at < c.timers[j].at })
}

// A WallClock callback that has fired but is still waiting for Mu when
// its Timer is stopped never runs, as on a virtual clock. A later timer
// shows it: had the stopped callback run, it would have taken Mu as
// soon as the test released it, before the later one fired.
func TestWallClockStoppedCallbackNeverRuns(t *testing.T) {
	var mu sync.Mutex
	c := &WallClock{Mu: &mu, Epoch: time.Now()}
	ran := make(chan int, 2)
	mu.Lock()
	stopped := c.After(time.Millisecond, func() { ran <- 1 })
	time.Sleep(20 * time.Millisecond) // the timer fires; its callback waits for mu
	stopped.Stop()
	mu.Unlock()
	c.After(20*time.Millisecond, func() { ran <- 2 })
	if got := <-ran; got != 2 {
		t.Fatal("a stopped WallClock callback ran")
	}
	select {
	case <-ran:
		t.Fatal("a stopped WallClock callback ran")
	default:
	}
}
