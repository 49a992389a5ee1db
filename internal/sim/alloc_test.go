package sim

import (
	"testing"
	"time"
)

// The zero-allocation invariant: once the arena and heap have grown to
// the workload's high-water mark, scheduling, canceling, and running
// events must not allocate. These tests are the regression fence for
// the hand-rolled heap + arena engine; if a change reintroduces
// per-event garbage, they fail before any benchmark notices.

func TestScheduleCancelZeroAlloc(t *testing.T) {
	l := NewLoop(1)
	l.Grow(64)
	fn := func() {}
	if avg := testing.AllocsPerRun(1000, func() {
		e := l.Schedule(l.Now()+time.Millisecond, fn)
		l.Cancel(e)
	}); avg != 0 {
		t.Fatalf("Schedule+Cancel allocates %.1f objects/op, want 0", avg)
	}
}

func TestScheduleRunZeroAlloc(t *testing.T) {
	l := NewLoop(1)
	l.Grow(64)
	fn := func() {}
	if avg := testing.AllocsPerRun(1000, func() {
		l.Schedule(l.Now()+time.Millisecond, fn)
		l.RunAll()
	}); avg != 0 {
		t.Fatalf("Schedule+run allocates %.1f objects/op, want 0", avg)
	}
}

var nopHandler Handler = func(env, arg any) {}

func TestScheduleTimerZeroAlloc(t *testing.T) {
	l := NewLoop(1)
	l.Grow(64)
	env := &struct{ n int }{}
	if avg := testing.AllocsPerRun(1000, func() {
		l.AfterTimer(time.Millisecond, nopHandler, env, env)
		l.RunAll()
	}); avg != 0 {
		t.Fatalf("ScheduleTimer+run allocates %.1f objects/op, want 0", avg)
	}
}

// Self-rescheduling typed timers — the shape of every periodic model
// timer — must be allocation-free too.
func TestTimerChainZeroAlloc(t *testing.T) {
	l := NewLoop(1)
	l.Grow(64)
	type chain struct{ left int }
	var tick Handler
	tick = func(env, arg any) {
		c := env.(*chain)
		if c.left--; c.left > 0 {
			l.AfterTimer(time.Microsecond, tick, c, nil)
		}
	}
	c := &chain{}
	if avg := testing.AllocsPerRun(100, func() {
		c.left = 100
		l.AfterTimer(time.Microsecond, tick, c, nil)
		l.RunAll()
	}); avg != 0 {
		t.Fatalf("timer chain allocates %.1f objects/op, want 0", avg)
	}
}

func TestRandZeroAlloc(t *testing.T) {
	l := NewLoop(1)
	if avg := testing.AllocsPerRun(1000, func() {
		_ = l.Rand().Uint64()
		_ = l.Uniform(time.Millisecond, 2*time.Millisecond)
		_ = l.Exp(time.Millisecond)
	}); avg != 0 {
		t.Fatalf("RNG draws allocate %.1f objects/op, want 0", avg)
	}
}

// Stream events skip the arena, and once a stream's ring has grown to
// its high-water mark, pushing and running them must not allocate
// either: a burst queued behind the head, run while other events
// interleave with it.
func TestStreamPushRunZeroAlloc(t *testing.T) {
	l := NewLoop(1)
	l.Grow(64)
	env := &struct{ n int }{}
	s := l.NewStream(nopHandler, env)
	burst := func() {
		for i := range 8 {
			at := l.Now() + time.Duration(i)*time.Microsecond
			s.Push(at, env)
			l.AfterTimer(time.Duration(i)*time.Microsecond, nopHandler, env, nil)
		}
		l.RunAll()
	}
	burst() // grow the ring
	if avg := testing.AllocsPerRun(1000, burst); avg != 0 {
		t.Fatalf("stream push+run allocates %.1f objects/op, want 0", avg)
	}
	if s.Len() != 0 || l.QueueLen() != 0 {
		t.Fatalf("stream holds %d events and the loop %d after RunAll, want 0", s.Len(), l.QueueLen())
	}
}
