package server

import (
	"testing"
	"time"

	"speakup/internal/core"
	"speakup/internal/sim"
	"speakup/internal/simclock"
)

func newSrv(capacity float64) (*sim.Loop, *Server, *[]core.RequestID) {
	loop := sim.NewLoop(1)
	var done []core.RequestID
	s := New(simclock.New(loop), Config{Capacity: capacity, Seed: 2})
	s.Done = func(id core.RequestID) { done = append(done, id) }
	return loop, s, &done
}

func TestServiceTimeWithinJitterBounds(t *testing.T) {
	loop, s, done := newSrv(10) // mean 100ms, U[90ms, 110ms]
	for i := 0; i < 50; i++ {
		start := loop.Now()
		s.Start(core.RequestID(i))
		loop.RunAll()
		took := loop.Now() - start
		if took < 90*time.Millisecond || took > 110*time.Millisecond {
			t.Fatalf("service time %v outside [90ms,110ms]", took)
		}
	}
	if len(*done) != 50 {
		t.Fatalf("done = %d, want 50", len(*done))
	}
}

func TestThroughputMatchesCapacity(t *testing.T) {
	loop, s, done := newSrv(100)
	var feed func(id core.RequestID)
	feed = func(id core.RequestID) {
		s.Start(id)
	}
	s.Done = func(id core.RequestID) {
		*done = append(*done, id)
		feed(id + 1)
	}
	feed(0)
	loop.Run(10 * time.Second)
	// 100 req/s for 10s with no idle time: ~1000 served.
	if n := len(*done); n < 950 || n > 1050 {
		t.Fatalf("served %d in 10s at c=100", n)
	}
}

func TestStartWhileBusyPanics(t *testing.T) {
	_, s, _ := newSrv(10)
	s.Start(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double Start did not panic")
		}
	}()
	s.Start(2)
}

func TestSuspendResumePreservesWork(t *testing.T) {
	loop := sim.NewLoop(1)
	s := New(simclock.New(loop), Config{Capacity: 10, Jitter: -1, Seed: 1}) // constant 100ms
	var doneAt time.Duration
	s.Done = func(id core.RequestID) { doneAt = loop.Now() }
	s.Start(1)
	loop.Run(40 * time.Millisecond)
	s.Suspend(1)
	if s.Busy() {
		t.Fatal("busy after suspend")
	}
	loop.Run(1 * time.Second) // parked for 960ms
	s.Resume(1)
	loop.Run(10 * time.Second)
	// 40ms done + suspended until t=1s + 60ms remaining = 1.06s.
	if doneAt != 1060*time.Millisecond {
		t.Fatalf("done at %v, want 1.06s", doneAt)
	}
	st := s.Stats()
	if st.Suspends != 1 || st.Resumes != 1 || st.Served != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAbortDiscardsSuspended(t *testing.T) {
	loop := sim.NewLoop(1)
	s := New(simclock.New(loop), Config{Capacity: 10, Seed: 1})
	served := 0
	s.Done = func(id core.RequestID) { served++ }
	s.Start(1)
	loop.Run(10 * time.Millisecond)
	s.Suspend(1)
	s.Abort(1)
	loop.Run(time.Second)
	if served != 0 {
		t.Fatal("aborted request completed")
	}
	if s.Suspended(1) {
		t.Fatal("suspended table not cleaned")
	}
	if s.Stats().Aborted != 1 {
		t.Fatalf("stats = %+v", s.Stats())
	}
}

func TestSuspendNotCurrentPanics(t *testing.T) {
	loop, s, _ := newSrv(10)
	s.Start(1)
	_ = loop
	defer func() {
		if recover() == nil {
			t.Fatal("Suspend of non-current did not panic")
		}
	}()
	s.Suspend(2)
}

func TestResumeUnknownPanics(t *testing.T) {
	_, s, _ := newSrv(10)
	defer func() {
		if recover() == nil {
			t.Fatal("Resume of unknown id did not panic")
		}
	}()
	s.Resume(5)
}

func TestWorkOverride(t *testing.T) {
	loop := sim.NewLoop(1)
	s := New(simclock.New(loop), Config{
		Capacity: 10,
		Work: func(id core.RequestID) time.Duration {
			return time.Duration(id) * time.Millisecond
		},
		Seed: 1,
	})
	var doneAt time.Duration
	s.Done = func(id core.RequestID) { doneAt = loop.Now() }
	s.Start(7)
	loop.RunAll()
	if doneAt != 7*time.Millisecond {
		t.Fatalf("work override ignored: done at %v", doneAt)
	}
}

func TestBusyTimeAccounting(t *testing.T) {
	loop := sim.NewLoop(1)
	s := New(simclock.New(loop), Config{Capacity: 10, Jitter: -1, Seed: 1})
	s.Done = func(id core.RequestID) {}
	s.Start(1)
	loop.RunAll()
	if s.Stats().BusyTime != 100*time.Millisecond {
		t.Fatalf("busy time = %v", s.Stats().BusyTime)
	}
}
