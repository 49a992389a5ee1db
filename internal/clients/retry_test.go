package clients

import (
	"testing"
	"time"

	"speakup/internal/core"
	"speakup/internal/faults"
	"speakup/internal/sim"
	"speakup/internal/simclock"
)

// TestRetryBudgetReissues fails every attempt: each request must be
// re-issued exactly RetryBudget times with growing backoff gaps, then
// counted Failed once.
func TestRetryBudgetReissues(t *testing.T) {
	loop := sim.NewLoop(1)
	clock := simclock.New(loop)
	c := New(clock, Config{
		Pacer: poisson(0.099, 1), Seed: 1, RetryBudget: 3,
	}, idGen())
	issues := map[core.RequestID][]time.Duration{}
	c.Issue = func(id core.RequestID) {
		issues[id] = append(issues[id], clock.Now())
		// Fail instantly: the transport bounced the request.
		loop.After(0, func() { c.RequestFailed(id, 0) })
	}
	c.Start()
	loop.Run(100 * time.Second)
	st := c.Stats()
	if st.Issued == 0 {
		t.Fatal("no requests issued")
	}
	full := 0
	var reissues uint64
	for id, at := range issues {
		// A request caught mid-cycle at the 100s cutoff has fewer
		// attempts; completed cycles must show exactly 1 fresh + 3
		// retries, never more.
		if len(at) > 4 {
			t.Fatalf("request %d issued %d times, budget allows 4", id, len(at))
		}
		if len(at) == 4 {
			full++
		}
		reissues += uint64(len(at) - 1)
		// Equal-jitter backoff: attempt n sleeps in [d/2, d) for
		// d = 200ms * 2^n (the defaults).
		base := 200 * time.Millisecond
		for n := 0; n+1 < len(at); n++ {
			gap := at[n+1] - at[n]
			d := base << n
			if gap < d/2 || gap >= d {
				t.Fatalf("request %d retry %d gap %v outside [%v, %v)", id, n, gap, d/2, d)
			}
		}
	}
	if full == 0 {
		t.Fatal("no request completed its full retry cycle")
	}
	// Retried counts at scheduling time, so with window 1 at most one
	// backoff can still be pending at the cutoff.
	if st.Retried < reissues || st.Retried > reissues+1 {
		t.Fatalf("retried = %d, observed %d re-issues", st.Retried, reissues)
	}
	if st.Failed == 0 {
		t.Fatal("exhausted budgets never counted Failed")
	}
}

// TestRetryHoldsWindowSlot pins the no-extra-concurrency rule: during
// backoff the slot stays held, so outstanding never exceeds the
// window even though requests are failing fast.
func TestRetryHoldsWindowSlot(t *testing.T) {
	loop := sim.NewLoop(2)
	c := New(simclock.New(loop), Config{
		Pacer: poisson(50, 5), Seed: 2, RetryBudget: 2,
	}, idGen())
	maxOut := 0
	c.Issue = func(id core.RequestID) {
		if c.Outstanding() > maxOut {
			maxOut = c.Outstanding()
		}
		loop.After(time.Millisecond, func() { c.RequestFailed(id, 0) })
	}
	c.Start()
	loop.Run(30 * time.Second)
	if maxOut > 5 {
		t.Fatalf("outstanding reached %d with window 5: retries added concurrency", maxOut)
	}
	if c.Stats().Retried == 0 {
		t.Fatal("no retries exercised")
	}
}

// TestDeadlineAbandons arms a per-request deadline with no responder:
// the Abandon callback must fire at the deadline, and with no budget
// the request must fail.
func TestDeadlineAbandons(t *testing.T) {
	loop := sim.NewLoop(3)
	clock := simclock.New(loop)
	c := New(clock, Config{
		Pacer: poisson(0.099, 1), Seed: 3, Deadline: 2 * time.Second,
	}, idGen())
	var issuedAt, abandonedAt []time.Duration
	c.Issue = func(id core.RequestID) { issuedAt = append(issuedAt, clock.Now()) }
	c.Abandon = func(id core.RequestID) {
		abandonedAt = append(abandonedAt, clock.Now())
		c.RequestFailed(id, 0) // the transport's teardown reports failure
	}
	c.Start()
	loop.Run(60 * time.Second)
	st := c.Stats()
	if st.Abandoned == 0 || st.Abandoned != uint64(len(abandonedAt)) {
		t.Fatalf("abandoned = %d (callback %d), want equal and nonzero", st.Abandoned, len(abandonedAt))
	}
	if st.Failed != st.Abandoned {
		t.Fatalf("failed = %d, want %d (every abandon fails without a budget)", st.Failed, st.Abandoned)
	}
	for i := range abandonedAt {
		if got := abandonedAt[i] - issuedAt[i]; got != 2*time.Second {
			t.Fatalf("abandon %d fired %v after issue, want 2s", i, got)
		}
	}
}

// TestDeadlineDisarmedOnService serves every request quickly: the
// armed deadlines must never fire.
func TestDeadlineDisarmedOnService(t *testing.T) {
	loop := sim.NewLoop(4)
	c := New(simclock.New(loop), Config{
		Pacer: poisson(2, 4), Seed: 4, Deadline: time.Second,
	}, idGen())
	c.Abandon = func(id core.RequestID) { t.Fatalf("deadline fired for served request %d", id) }
	c.Issue = func(id core.RequestID) {
		loop.After(100*time.Millisecond, func() { c.RequestServed(id) })
	}
	c.Start()
	loop.Run(60 * time.Second)
	st := c.Stats()
	if st.Abandoned != 0 {
		t.Fatalf("abandoned = %d, want 0", st.Abandoned)
	}
	if st.Served == 0 {
		t.Fatal("nothing served")
	}
}

// TestDeadlineRearmsPerAttempt combines deadline and retry: each
// attempt gets its own full deadline window.
func TestDeadlineRearmsPerAttempt(t *testing.T) {
	loop := sim.NewLoop(5)
	clock := simclock.New(loop)
	c := New(clock, Config{
		Pacer: poisson(0.0099, 1), Seed: 5,
		Deadline: time.Second, RetryBudget: 2,
	}, idGen())
	attempts := map[core.RequestID]int{}
	c.Issue = func(id core.RequestID) { attempts[id]++ }
	c.Abandon = func(id core.RequestID) { c.RequestFailed(id, 0) }
	c.Start()
	loop.Run(200 * time.Second)
	st := c.Stats()
	if st.Issued == 0 {
		t.Fatal("no requests issued")
	}
	if st.Abandoned != st.Issued+st.Retried {
		t.Fatalf("abandoned = %d, want one per attempt (%d)", st.Abandoned, st.Issued+st.Retried)
	}
	for id, n := range attempts {
		if n != 3 {
			t.Fatalf("request %d attempted %d times, want 3", id, n)
		}
	}
}

// TestRetryFloor: a failure reported with a floor (a server's
// Retry-After) waits at least that long before the retry, where the
// backoff alone would wait under a second.
func TestRetryFloor(t *testing.T) {
	loop := sim.NewLoop(6)
	clock := simclock.New(loop)
	c := New(clock, Config{
		Pacer: poisson(0.099, 1), Seed: 6, RetryBudget: 2,
	}, idGen())
	issues := map[core.RequestID][]time.Duration{}
	c.Issue = func(id core.RequestID) {
		issues[id] = append(issues[id], clock.Now())
		loop.After(0, func() { c.RequestFailed(id, 3*time.Second) })
	}
	c.Start()
	loop.Run(100 * time.Second)
	if c.Stats().Retried == 0 {
		t.Fatal("no retries exercised")
	}
	for id, at := range issues {
		for n := 0; n+1 < len(at); n++ {
			if gap := at[n+1] - at[n]; gap < 3*time.Second {
				t.Fatalf("request %d retry %d came %v after its failure, under the 3s floor", id, n, gap)
			}
		}
	}
}

// TestStopSettlesBackoffs: Stop counts a request waiting out its
// backoff Failed at once and frees its slot; its retry never runs, and
// the backlog is not issued.
func TestStopSettlesBackoffs(t *testing.T) {
	loop := sim.NewLoop(7)
	c := New(simclock.New(loop), Config{
		Pacer: poisson(50, 1), Seed: 7, RetryBudget: 3,
		RetryBackoff: faults.Backoff{Base: time.Hour, Cap: time.Hour},
	}, idGen())
	issues := 0
	c.Issue = func(id core.RequestID) {
		issues++
		loop.After(0, func() { c.RequestFailed(id, 0) })
	}
	c.Start()
	loop.Run(time.Second)
	if st := c.Stats(); st.Retried != 1 || c.BacklogLen() == 0 {
		t.Fatalf("before Stop: %+v with backlog %d, want one request in backoff and a backlog", st, c.BacklogLen())
	}
	c.Stop()
	st := c.Stats()
	if st.Failed != 1 || c.Outstanding() != 0 {
		t.Fatalf("after Stop: %+v, outstanding %d; want the backoff counted Failed and its slot free", st, c.Outstanding())
	}
	loop.Run(3 * time.Hour)
	if issues != 1 || c.Stats() != st {
		t.Fatalf("after Stop: %d issues, stats %+v then %+v", issues, st, c.Stats())
	}
}
