package server

import (
	"testing"
	"time"

	"speakup/internal/core"
)

// TestStallPostponesCompletion freezes the origin mid-request: the
// finish must slide out by exactly the added stall, and work started
// inside the window must wait for the thaw.
func TestStallPostponesCompletion(t *testing.T) {
	loop, s, done := newSrv(10) // mean 100ms, U[90ms, 110ms]
	s.Start(1)
	baseline := s.finishAt
	loop.Run(20 * time.Millisecond)
	s.Stall(500 * time.Millisecond)
	if !s.Stalled() {
		t.Fatal("origin not stalled")
	}
	loop.RunAll()
	if len(*done) != 1 {
		t.Fatalf("done = %d, want 1", len(*done))
	}
	if got := loop.Now(); got != baseline+500*time.Millisecond {
		t.Fatalf("finished at %v, want %v (service + full stall)", got, baseline+500*time.Millisecond)
	}
	if s.Stats().Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", s.Stats().Stalls)
	}

	// A request started mid-stall begins work only at the thaw.
	s.Stall(300 * time.Millisecond)
	stallEnd := loop.Now() + 300*time.Millisecond
	s.Start(2)
	loop.RunAll()
	if got := loop.Now(); got < stallEnd+90*time.Millisecond {
		t.Fatalf("request started mid-stall finished at %v, want >= %v", got, stallEnd+90*time.Millisecond)
	}
}

// TestStallOverlapExtends checks overlapping stalls extend to the
// furthest deadline instead of stacking.
func TestStallOverlapExtends(t *testing.T) {
	loop, s, done := newSrv(10)
	s.Start(1)
	base := s.finishAt
	s.Stall(400 * time.Millisecond)
	s.Stall(200 * time.Millisecond) // inside the first window: no-op
	if s.Stats().Stalls != 1 {
		t.Fatalf("shorter overlapping stall counted: stalls = %d", s.Stats().Stalls)
	}
	s.Stall(600 * time.Millisecond) // extends by 200ms past the first
	loop.RunAll()
	if len(*done) != 1 {
		t.Fatalf("done = %d, want 1", len(*done))
	}
	if got := loop.Now(); got != base+600*time.Millisecond {
		t.Fatalf("finished at %v, want %v", got, base+600*time.Millisecond)
	}
}

// TestCrashDestroysInFlight kills the origin mid-request: the client
// is notified through Failed (not Done), partial service is charged
// via Observer, and the next request waits out the restart.
func TestCrashDestroysInFlight(t *testing.T) {
	loop, s, done := newSrv(10)
	var failed []core.RequestID
	var charged time.Duration
	s.Failed = func(id core.RequestID) { failed = append(failed, id) }
	s.Observer = func(id core.RequestID, consumed time.Duration) { charged += consumed }
	s.Start(1)
	loop.Run(50 * time.Millisecond)
	s.Crash(time.Second)
	if s.Busy() {
		t.Fatal("server still busy after crash")
	}
	loop.RunAll()
	if len(*done) != 0 {
		t.Fatalf("crashed request completed: done = %v", *done)
	}
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("failed = %v, want [1]", failed)
	}
	if charged != 50*time.Millisecond {
		t.Fatalf("partial service charged %v, want 50ms", charged)
	}
	st := s.Stats()
	if st.Crashes != 1 || st.Lost != 1 || st.Served != 0 {
		t.Fatalf("stats = %+v, want 1 crash, 1 lost, 0 served", st)
	}

	// Restart: a request issued during downtime runs after the window.
	s.Start(2)
	loop.RunAll()
	if len(*done) != 1 || (*done)[0] != 2 {
		t.Fatalf("post-restart done = %v, want [2]", *done)
	}
	if got := loop.Now(); got < 1050*time.Millisecond+90*time.Millisecond {
		t.Fatalf("post-restart request finished at %v, before downtime ended", got)
	}
}

// TestCrashIdleOnlyStalls crashes an idle origin: nothing is lost,
// but the restart window still delays the next request.
func TestCrashIdleOnlyStalls(t *testing.T) {
	loop, s, done := newSrv(10)
	s.Crash(time.Second)
	if st := s.Stats(); st.Crashes != 1 || st.Lost != 0 {
		t.Fatalf("stats = %+v, want 1 crash, 0 lost", st)
	}
	s.Start(1)
	loop.RunAll()
	if len(*done) != 1 {
		t.Fatalf("done = %d, want 1", len(*done))
	}
	if got := loop.Now(); got < 1090*time.Millisecond {
		t.Fatalf("finished at %v, want >= 1.09s (downtime + min service)", got)
	}
}

// TestCrashSparesSuspended pins the §5 semantics: suspended requests
// live in the transaction manager, so a crash must not destroy them.
func TestCrashSparesSuspended(t *testing.T) {
	loop, s, done := newSrv(10)
	s.Start(1)
	loop.Run(30 * time.Millisecond)
	s.Suspend(1)
	s.Crash(500 * time.Millisecond)
	if !s.Suspended(1) {
		t.Fatal("suspended request lost in the crash")
	}
	s.Resume(1)
	loop.RunAll()
	if len(*done) != 1 || (*done)[0] != 1 {
		t.Fatalf("done = %v, want [1]", *done)
	}
}

// TestSuspendDuringStallKeepsWork suspends a request while the origin
// is frozen: the frozen time is not service, so the request keeps all
// of its work and needs its full service time after the resume.
func TestSuspendDuringStallKeepsWork(t *testing.T) {
	loop, s, done := newSrv(10)
	s.cfg.Jitter = 0 // constant 100ms
	s.Start(1)
	s.Stall(500 * time.Millisecond)
	loop.Run(300 * time.Millisecond)
	s.Suspend(1)
	if got := s.Stats().BusyTime; got != 0 {
		t.Fatalf("busy time after a suspend mid-stall = %v, want 0", got)
	}
	loop.Run(500 * time.Millisecond) // the thaw
	s.Resume(1)
	loop.RunAll()
	if len(*done) != 1 {
		t.Fatalf("done = %d, want 1", len(*done))
	}
	if got := loop.Now(); got != 600*time.Millisecond {
		t.Fatalf("finished at %v, want 600ms (100ms of work after the 500ms resume)", got)
	}
	if got := s.Stats().BusyTime; got != 100*time.Millisecond {
		t.Fatalf("busy time = %v, want 100ms", got)
	}
}
