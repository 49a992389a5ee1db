package loadgen

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speakup/internal/adversary"
	"speakup/internal/clients"
)

// paced is a test strategy: an arrival every gap, n arrivals in all
// (0 = unbounded), at most window outstanding, full payments. It
// counts the outcomes the binding reports.
type paced struct {
	gap        time.Duration
	window, n  int
	arrivals   int
	observed   atomic.Int64
	deniedSeen atomic.Int64
}

func (p *paced) Name() string { return "paced" }

func (p *paced) Gap(time.Duration, *rand.Rand) time.Duration {
	p.arrivals++
	if p.n > 0 && p.arrivals > p.n {
		return time.Hour
	}
	return p.gap
}

func (p *paced) Window(time.Duration) int { return p.window }

func (p *paced) PostSize(_ time.Duration, _ int64, def int) int { return def }

func (p *paced) Observe(o adversary.Outcome) {
	p.observed.Add(1)
	if o.Denied {
		p.deniedSeen.Add(1)
	}
}

// waitFor polls c's workload counters until cond holds.
func waitFor(t *testing.T, c *Client, cond func(clients.Stats) bool) clients.Stats {
	t.Helper()
	limit := time.Now().Add(10 * time.Second)
	for {
		st := c.Workload()
		if cond(st) {
			return st
		}
		if time.Now().After(limit) {
			t.Fatalf("timed out waiting; workload %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRetryAfterFloorsTheRetries: a front that answers 503 with
// Retry-After: 1 twice and then 200 is retried twice, never sooner
// than a second apart, and the request is served; with a budget of one
// the request fails.
func TestRetryAfterFloorsTheRetries(t *testing.T) {
	for _, c := range []struct {
		budget                 int
		retried, served, fails uint64
	}{
		{2, 2, 1, 0},
		{1, 1, 0, 1},
	} {
		t.Run(fmt.Sprintf("budget%d", c.budget), func(t *testing.T) {
			t.Parallel()
			var mu sync.Mutex
			var attempts []time.Time
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				attempts = append(attempts, time.Now())
				n := len(attempts)
				mu.Unlock()
				if n <= 2 {
					w.Header().Set("Retry-After", "1")
					w.WriteHeader(http.StatusServiceUnavailable)
				}
			}))
			defer srv.Close()
			cl := NewClient(Config{
				BaseURL:  srv.URL,
				Strategy: &paced{gap: time.Millisecond, window: 1, n: 1},
				Workload: clients.Config{Seed: 1, RetryBudget: c.budget},
			}, new(atomic.Uint64))
			cl.Run()
			st := waitFor(t, cl, func(s clients.Stats) bool { return s.Served+s.Failed == 1 })
			cl.Stop()
			if st.Retried != c.retried || st.Served != c.served || st.Failed != c.fails {
				t.Errorf("retried %d served %d failed %d, want %d %d %d",
					st.Retried, st.Served, st.Failed, c.retried, c.served, c.fails)
			}
			mu.Lock()
			defer mu.Unlock()
			for i := 1; i < len(attempts); i++ {
				if gap := attempts[i].Sub(attempts[i-1]); gap < time.Second {
					t.Errorf("attempt %d came %v after the last, under Retry-After's 1s", i, gap)
				}
			}
			if c.served == 1 && cl.Stats.Latency.Max() < 2*time.Second {
				t.Errorf("served latency %v, want it to run from the first attempt (>= 2s)", cl.Stats.Latency.Max())
			}
		})
	}
}

// TestDeadlineFreesTheWindow: a front that never answers holds the
// one window slot until the 200 ms deadline abandons the attempt; the
// backlogged next arrival is then issued.
func TestDeadlineFreesTheWindow(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	cl := NewClient(Config{
		BaseURL:  srv.URL,
		Strategy: &paced{gap: 50 * time.Millisecond, window: 1, n: 2},
		Workload: clients.Config{Seed: 1, Deadline: 200 * time.Millisecond},
	}, new(atomic.Uint64))
	cl.Run()
	defer cl.Stop()
	st := waitFor(t, cl, func(s clients.Stats) bool { return s.Issued >= 2 && s.Abandoned >= 1 })
	if st.Failed < 1 || st.Served != 0 {
		t.Errorf("workload %+v: want the abandoned attempt failed, nothing served", st)
	}
}

// TestStopCutsWithoutFailing: an attempt still waiting on the front
// when Stop is called is cut, not failed: like a simulated request in
// flight at the end of a run, it has no outcome.
func TestStopCutsWithoutFailing(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	strat := &paced{gap: 10 * time.Millisecond, window: 1, n: 1}
	cl := NewClient(Config{
		BaseURL:  srv.URL,
		Strategy: strat,
		Workload: clients.Config{Seed: 1},
	}, new(atomic.Uint64))
	cl.Run()
	time.Sleep(time.Second)
	cl.Stop()
	if st := cl.Workload(); st.Issued < 1 || st.Failed != 0 {
		t.Errorf("workload %+v: want the issued attempt cut, none failed", st)
	}
	if got := strat.observed.Load(); got != 0 {
		t.Errorf("strategy observed %d outcomes for a cut attempt", got)
	}
}

// TestFullWindowBacklogs: an arrival over the window waits in the
// backlog and counts as a denial once it times out, observed by the
// strategy, instead of being dropped.
func TestFullWindowBacklogs(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}))
	defer srv.Close()
	strat := &paced{gap: 20 * time.Millisecond, window: 1}
	cl := NewClient(Config{
		BaseURL:  srv.URL,
		Strategy: strat,
		Workload: clients.Config{Seed: 1, BacklogTimeout: 100 * time.Millisecond},
	}, new(atomic.Uint64))
	cl.Run()
	st := waitFor(t, cl, func(s clients.Stats) bool { return s.Denied >= 2 })
	cl.Stop()
	if st.Issued != 1 {
		t.Errorf("issued %d, want the one request the window admits", st.Issued)
	}
	if got := strat.deniedSeen.Load(); got < int64(st.Denied) {
		t.Errorf("strategy observed %d denials, workload counted %d", got, st.Denied)
	}
	if st.Offered() != st.Issued+st.Denied {
		t.Errorf("offered %d, want issued+denied", st.Offered())
	}
}

// TestStopSettlesAPendingRetry: a request waiting out its backoff
// when Stop is called counts Failed, and no callback moves a counter
// after Stop returns.
func TestStopSettlesAPendingRetry(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	strat := &paced{gap: time.Millisecond, window: 1, n: 1}
	cl := NewClient(Config{
		BaseURL:  srv.URL,
		Strategy: strat,
		Workload: clients.Config{Seed: 1, RetryBudget: 3},
	}, new(atomic.Uint64))
	cl.Run()
	waitFor(t, cl, func(s clients.Stats) bool { return s.Retried == 1 })
	cl.Stop()
	stopped, observed := cl.Workload(), strat.observed.Load()
	if stopped.Failed != 1 || stopped.Issued != 1 {
		t.Fatalf("at Stop: %+v, want the one issued request failed", stopped)
	}
	time.Sleep(1200 * time.Millisecond) // past the retry's 1s floor
	if after := cl.Workload(); after != stopped {
		t.Errorf("counters moved after Stop: %+v, then %+v", stopped, after)
	}
	if got := strat.observed.Load(); got != observed {
		t.Errorf("strategy observed %d outcomes after Stop", got-observed)
	}
}
