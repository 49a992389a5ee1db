// Package server emulates the protected server behind the thinner.
//
// The paper's prototype emulates the server inside the thinner: it
// processes one request at a time, with service time selected uniformly
// at random from [0.9/c, 1.1/c] for capacity c (§6). For §5 the server
// additionally exports SUSPEND, RESUME, and ABORT, preserving the
// remaining work of suspended requests — the interface the paper
// assumes of transaction managers and application servers.
package server

import (
	"fmt"
	"math/rand"
	"time"

	"speakup/internal/core"
)

// Config parameterizes a Server.
type Config struct {
	// Capacity is c in requests/second. Required.
	Capacity float64
	// Jitter is the half-width of the service-time distribution as a
	// fraction of the mean: U[(1-Jitter)/c, (1+Jitter)/c]. Default 0.1,
	// matching the paper. Set negative for constant service times.
	Jitter float64
	// Work, when non-nil, overrides the per-request service time —
	// used for heterogeneous-difficulty experiments (§5).
	Work func(id core.RequestID) time.Duration
	// Seed seeds the service-time RNG.
	Seed int64
}

// Stats counts server activity.
type Stats struct {
	Served    uint64
	Aborted   uint64
	Suspends  uint64
	Resumes   uint64
	Stalls    uint64 // injected stall windows (fault plans)
	Crashes   uint64 // injected crash-restart events
	Lost      uint64 // in-flight requests destroyed by a crash
	BusyTime  time.Duration
	TotalWork time.Duration // service time of completed requests
}

// Server is the emulated protected resource.
type Server struct {
	clock core.Clock
	cfg   Config
	rng   *rand.Rand

	busy        bool
	current     core.RequestID
	startedAt   time.Duration
	pendingWork time.Duration // total work of the in-service request
	finish      core.Timer    // the completion timer
	finishAt    time.Duration // when the completion timer fires (stalls push it)
	stallUntil  time.Duration // the origin is frozen until this instant
	suspended   map[core.RequestID]time.Duration
	stats       Stats

	// Done fires when a request completes service.
	Done func(id core.RequestID)
	// Failed fires when a crash destroys the in-flight request: the
	// client never gets a response and the thinner must release its
	// busy latch. Nil loses the notification (only fault plans crash).
	Failed func(id core.RequestID)
	// Observer, if set, receives the server time a request actually
	// consumed — its full work on completion, or the partial service it
	// burned before an Abort. Experiments use it to attribute server
	// time to client classes.
	Observer func(id core.RequestID, consumed time.Duration)

	workOf map[core.RequestID]time.Duration

	// completeFn is the completion callback handed to clock.After,
	// built once so serving a request does not allocate a fresh closure
	// (state it needs lives in current/pendingWork/startedAt).
	completeFn func()
}

// New creates an idle server.
func New(clock core.Clock, cfg Config) *Server {
	if cfg.Capacity <= 0 && cfg.Work == nil {
		panic("server: Capacity must be positive (or Work set)")
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.1
	}
	if cfg.Jitter < 0 {
		cfg.Jitter = 0
	}
	s := &Server{
		clock:     clock,
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		suspended: make(map[core.RequestID]time.Duration),
		workOf:    make(map[core.RequestID]time.Duration),
	}
	s.completeFn = s.complete
	return s
}

// Busy reports whether a request is in service.
func (s *Server) Busy() bool { return s.busy }

// Stats returns a copy of the activity counters.
func (s *Server) Stats() Stats { return s.stats }

// serviceTime draws the work for a fresh request.
func (s *Server) serviceTime(id core.RequestID) time.Duration {
	if s.cfg.Work != nil {
		return s.cfg.Work(id)
	}
	mean := time.Duration(float64(time.Second) / s.cfg.Capacity)
	if s.cfg.Jitter == 0 {
		return mean
	}
	lo := time.Duration(float64(mean) * (1 - s.cfg.Jitter))
	hi := time.Duration(float64(mean) * (1 + s.cfg.Jitter))
	return lo + time.Duration(s.rng.Int63n(int64(hi-lo)+1))
}

// Start begins serving a request, or resumes it if it is suspended
// (§5). Starting while busy panics: the thinner exists precisely to
// prevent that.
func (s *Server) Start(id core.RequestID) {
	if s.busy {
		panic(fmt.Sprintf("server: Start(%d) while serving %d", id, s.current))
	}
	if s.Suspended(id) {
		s.Resume(id)
		return
	}
	work := s.serviceTime(id)
	s.workOf[id] = work
	s.run(id, work)
}

func (s *Server) run(id core.RequestID, work time.Duration) {
	s.busy = true
	s.current = id
	now := s.clock.Now()
	s.startedAt = now
	s.pendingWork = work
	delay := work
	if s.stallUntil > now {
		// The origin is mid-stall (or restarting after a crash): work
		// only begins once it thaws.
		delay += s.stallUntil - now
	}
	s.finishAt = now + delay
	s.finish = s.clock.After(delay, s.completeFn)
}

// complete finishes the in-service request. It reads the request from
// the server fields rather than a closure: between run and firing,
// only Suspend can change them, and Suspend cancels the timer.
func (s *Server) complete() {
	id := s.current
	s.stats.Served++
	s.stats.TotalWork += s.pendingWork
	s.stats.BusyTime += s.pendingWork
	s.busy = false
	s.finish = core.Timer{}
	total := s.workOf[id]
	delete(s.workOf, id)
	if s.Observer != nil {
		s.Observer(id, total)
	}
	if s.Done != nil {
		s.Done(id)
	}
}

// Suspend pauses the in-service request, remembering its remaining
// work. Suspending a request that is not in service panics.
func (s *Server) Suspend(id core.RequestID) {
	if !s.busy || s.current != id {
		panic(fmt.Sprintf("server: Suspend(%d) not in service", id))
	}
	done := s.served(s.clock.Now())
	s.finish.Stop()
	s.finish = core.Timer{}
	s.busy = false
	s.stats.Suspends++
	s.stats.BusyTime += done
	s.suspended[id] = s.pendingWork - done
}

// served returns how much of the in-service request's pending work is
// done by now. Its remaining work lies between finishAt and the later
// of now and the thaw, so time the origin spent frozen counts as none.
func (s *Server) served(now time.Duration) time.Duration {
	remaining := s.finishAt - max(now, s.stallUntil)
	return min(max(s.pendingWork-remaining, 0), s.pendingWork)
}

// Resume continues a suspended request.
func (s *Server) Resume(id core.RequestID) {
	if s.busy {
		panic(fmt.Sprintf("server: Resume(%d) while busy", id))
	}
	remaining, ok := s.suspended[id]
	if !ok {
		panic(fmt.Sprintf("server: Resume(%d) not suspended", id))
	}
	delete(s.suspended, id)
	s.stats.Resumes++
	s.run(id, remaining)
}

// Abort discards id if it is suspended, and reports whether it was.
func (s *Server) Abort(id core.RequestID) bool {
	remaining, ok := s.suspended[id]
	if !ok {
		return false
	}
	delete(s.suspended, id)
	consumed := s.workOf[id] - remaining
	delete(s.workOf, id)
	s.stats.Aborted++
	if s.Observer != nil && consumed > 0 {
		s.Observer(id, consumed)
	}
	return true
}

// Suspended reports whether the server holds suspended work for id.
func (s *Server) Suspended(id core.RequestID) bool {
	_, ok := s.suspended[id]
	return ok
}

// Stalled reports whether the origin is currently frozen by an
// injected stall or crash-restart window.
func (s *Server) Stalled() bool { return s.clock.Now() < s.stallUntil }

// Stall freezes the origin until now+d (fault injection): the
// in-flight request's completion is postponed by the added stall, and
// requests started inside the window only begin work when it thaws.
// Overlapping stalls extend to the latest deadline.
func (s *Server) Stall(d time.Duration) {
	now := s.clock.Now()
	until := now + d
	if until <= s.stallUntil {
		return
	}
	prev := s.stallUntil
	if prev < now {
		prev = now
	}
	added := until - prev
	s.stallUntil = until
	s.stats.Stalls++
	if s.busy {
		s.finish.Stop()
		s.finishAt += added
		s.finish = s.clock.After(s.finishAt-now, s.completeFn)
	}
}

// Crash kills the origin (fault injection): the in-flight request, if
// any, is destroyed — its client is notified through Failed, its
// partial service is charged via Observer — and the origin restarts
// after downFor of downtime (a stall window). Suspended §5 requests
// survive: their state lives in the transaction manager, not the
// crashed worker.
func (s *Server) Crash(downFor time.Duration) {
	now := s.clock.Now()
	s.stats.Crashes++
	done := s.served(now) // before the restart window moves the thaw
	if until := now + downFor; until > s.stallUntil {
		s.stallUntil = until
	}
	if !s.busy {
		return
	}
	id := s.current
	s.finish.Stop()
	s.finish = core.Timer{}
	s.busy = false
	s.stats.Lost++
	s.stats.BusyTime += done
	consumed := s.workOf[id] - (s.pendingWork - done)
	delete(s.workOf, id)
	if s.Observer != nil && consumed > 0 {
		s.Observer(id, consumed)
	}
	if s.Failed != nil {
		s.Failed(id)
	}
}
