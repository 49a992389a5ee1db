package front

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"speakup/internal/core"
)

// fakeClock is a manual core.Clock: advance runs due timers in time
// order, ties in the order they were set.
type fakeClock struct {
	now    time.Duration
	timers []*fakeTimer
}

type fakeTimer struct {
	at   time.Duration
	fn   func()
	dead bool
}

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) After(d time.Duration, fn func()) core.Timer {
	c.timers = append(c.timers, &fakeTimer{at: c.now + d, fn: fn})
	return core.NewTimer(c, uint64(len(c.timers)-1))
}

func (c *fakeClock) CancelTimer(id uint64) { c.timers[id].dead = true }

func (c *fakeClock) advance(d time.Duration) {
	end := c.now + d
	for {
		var next *fakeTimer
		for _, t := range c.timers {
			if !t.dead && t.at <= end && (next == nil || t.at < next.at) {
				next = t
			}
		}
		if next == nil {
			break
		}
		next.dead = true
		c.now = next.at
		next.fn()
	}
	c.now = end
}

// rig is a front over one policy with a recording fake transport and
// origin: every delivery, payment end and origin call lands in log.
type rig struct {
	clock     *fakeClock
	policy    core.Policy
	front     *Front
	suspended map[core.RequestID]bool
	log       []string
}

// newRig builds the rig; routed makes its transport answer by id, as
// the simulator does, instead of through waiters.
func newRig(policy func(core.Clock) core.Policy, routed bool) *rig {
	r := &rig{clock: &fakeClock{}, suspended: make(map[core.RequestID]bool)}
	r.policy = policy(r.clock)
	tr := Transport{EndPayment: func(id core.RequestID, paid int64, served bool) {
		r.logf("end %d paid=%d served=%v", id, paid, served)
	}}
	if routed {
		tr.Route = func(id core.RequestID, body []byte) { (&waiter{r, id}).Deliver(body) }
	}
	r.front = New(r.clock, r.policy, Origin{
		Start: func(id core.RequestID) {
			delete(r.suspended, id)
			r.logf("start %d", id)
		},
		Suspend: func(id core.RequestID) {
			r.suspended[id] = true
			r.logf("suspend %d", id)
		},
		Abort: func(id core.RequestID) bool {
			if !r.suspended[id] {
				return false
			}
			delete(r.suspended, id)
			r.logf("abort %d", id)
			return true
		},
	}, tr)
	return r
}

func (r *rig) logf(format string, args ...any) { r.log = append(r.log, fmt.Sprintf(format, args...)) }

// waiter is one held request's recording core.Waiter.
type waiter struct {
	r  *rig
	id core.RequestID
}

func (w *waiter) Deliver(body []byte) {
	if body == nil {
		w.r.logf("evicted %d", w.id)
		return
	}
	w.r.logf("deliver %d %q", w.id, body)
}

var verdicts = map[core.ArriveVerdict]string{
	core.ArriveOK: "ok", core.ArriveDuplicate: "duplicate", core.ArriveShed: "shed",
	core.ArriveBusy: "pay", core.ArriveRetry: "retry",
}

// Script steps. Each appends what it did to the log; a step's wanted
// lines are everything logged while it ran.
type step struct {
	do   func(*rig)
	want []string
}

// arrive offers id with a fresh waiter (initial: not yet paying).
func arrive(id core.RequestID, initial bool, want ...string) step {
	return step{func(r *rig) {
		r.logf("-> %s", verdicts[r.front.Arrive(id, &waiter{r, id}, initial)])
	}, want}
}

// routed offers id with no waiter, as the simulator does.
func routed(id core.RequestID, want ...string) step {
	return step{func(r *rig) {
		r.logf("-> %s", verdicts[r.front.Arrive(id, nil, false)])
	}, want}
}

func pay(id core.RequestID, n int64) step {
	return step{func(r *rig) { r.policy.(*core.Thinner).Table().Credit(id, n, r.clock.Now()) }, nil}
}

func done(id core.RequestID, want ...string) step {
	return step{func(r *rig) { r.front.Done(id, []byte(fmt.Sprint("body ", id))) }, want}
}

func advance(d time.Duration, want ...string) step {
	return step{func(r *rig) { r.clock.advance(d) }, want}
}

func stall(stalled bool, want ...string) step {
	return step{func(r *rig) { r.policy.(*core.Thinner).SetOriginStalled(stalled) }, want}
}

func auction(c core.Clock) core.Policy {
	return core.NewThinner(c, core.Config{OrphanTimeout: time.Second, InactivityTimeout: 2 * time.Second})
}

func quantum(c core.Clock) core.Policy {
	return core.NewThinner(c, core.Config{Quantum: 100 * time.Millisecond, AbortAfter: time.Second,
		OrphanTimeout: 10 * time.Second, InactivityTimeout: 10 * time.Second})
}

func passThrough(core.Clock) core.Policy { return core.NewPassThrough() }

func randomDrop(c core.Clock) core.Policy {
	return core.NewRandomDrop(c, core.RandomDropConfig{Capacity: 1000, Seed: 1})
}

// TestLifecycle drives every policy through the arrival ladder and the
// dispatch of its callbacks: shed, pay, duplicate, direct and auction
// admission, timeout eviction, a policy turning an arrival away, and
// under §5 suspension and abort.
func TestLifecycle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy func(core.Clock) core.Policy
		routed bool
		script []step
	}{
		{"auction", auction, false, []step{
			arrive(1, true, "end 1 paid=0 served=true", "start 1", "-> ok"), // direct admit
			arrive(2, true, "-> pay"),
			arrive(2, false, "-> ok"),
			pay(2, 500),
			arrive(2, false, "-> duplicate"),
			arrive(3, false, "-> ok"),
			pay(3, 100),
			// Origin done: the body first, then the auction admits the top bid.
			done(1, `deliver 1 "body 1"`, "end 2 paid=500 served=true", "start 2"),
			// 3 stops paying: the sweep evicts it and its waiter gets nil.
			advance(3*time.Second, "end 3 paid=100 served=false", "evicted 3"),
			// Brownout: initial and re-issued arrivals alike are shed.
			stall(true),
			arrive(4, true, "-> shed"),
			arrive(5, false, "-> shed"),
			stall(false),
			done(2, `deliver 2 "body 2"`),
			arrive(6, true, "end 6 paid=0 served=true", "start 6", "-> ok"),
		}},
		{"auction brownout while free", auction, false, []step{
			stall(true),
			arrive(1, true, "-> shed"),
			stall(false),
			arrive(1, true, "end 1 paid=0 served=true", "start 1", "-> ok"),
		}},
		{"quantum", quantum, false, []step{
			arrive(1, true, "-> pay"), // §5: every request pays
			arrive(1, false, "-> ok"),
			pay(1, 100),
			arrive(1, false, "-> duplicate"),
			advance(100*time.Millisecond, "start 1"), // auction admit
			arrive(2, false, "-> ok"),
			pay(2, 1000),
			// 2 outbids what 1 paid since its charge: 1 is suspended.
			advance(100*time.Millisecond, "suspend 1", "start 2"),
			// Done settles 2's lifetime price, delivers, and resumes 1.
			done(2, "end 2 paid=1000 served=true", `deliver 2 "body 2"`, "start 1"),
			arrive(3, false, "-> ok"),
			pay(3, 5000),
			advance(100*time.Millisecond, "suspend 1", "start 3"),
			// Suspended past AbortAfter: 1 is aborted and its waiter gets nil.
			advance(time.Second, "end 1 paid=100 served=false", "abort 1", "evicted 1"),
			done(3, "end 3 paid=5000 served=true", `deliver 3 "body 3"`),
		}},
		{"pass-through", passThrough, false, []step{
			arrive(1, true, "end 1 paid=0 served=true", "start 1", "-> ok"),
			arrive(2, true, "-> shed"), // turned away: the server is busy
			done(1, `deliver 1 "body 1"`),
			arrive(2, true, "end 2 paid=0 served=true", "start 2", "-> ok"),
		}},
		{"random drop", randomDrop, false, []step{
			arrive(1, true, "end 1 paid=0 served=true", "start 1", "-> ok"),
			arrive(2, true, "-> ok"), // queued behind 1
			arrive(2, false, "-> duplicate"),
			arrive(3, false, "-> ok"),
			arrive(4, false, "-> retry"), // turned away: the queue is full
			done(1, `deliver 1 "body 1"`, "end 2 paid=0 served=true", "start 2"),
			done(2, `deliver 2 "body 2"`, "end 3 paid=0 served=true", "start 3"),
			done(3, `deliver 3 "body 3"`),
		}},
		{"random drop, answered by id", randomDrop, true, []step{
			routed(1, "end 1 paid=0 served=true", "start 1", "-> ok"),
			routed(2, "-> ok"),
			routed(2, "-> ok"), // a re-issue: not a duplicate, and not queued again
			routed(1, "-> ok"), // nor is one of the request in service
			routed(3, "-> ok"),
			routed(4, "-> retry"),
			done(1, `deliver 1 "body 1"`, "end 2 paid=0 served=true", "start 2"),
			done(2, `deliver 2 "body 2"`, "end 3 paid=0 served=true", "start 3"),
			done(3, `deliver 3 "body 3"`),
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(tc.policy, tc.routed)
			for i, s := range tc.script {
				r.log = r.log[:0]
				s.do(r)
				if !slices.Equal(r.log, s.want) {
					t.Fatalf("step %d: got %q, want %q", i, r.log, s.want)
				}
			}
			if n := r.front.table.Waiters(); n != 0 {
				t.Errorf("%d waiters still registered", n)
			}
		})
	}
}

// TestShedIsCounted checks that a shed arrival registers nothing and is
// counted once, and that the thinner's other tallies do not move.
func TestShedIsCounted(t *testing.T) {
	r := newRig(auction, false)
	th := r.policy.(*core.Thinner)
	th.SetOriginStalled(true)
	if v := r.front.Arrive(7, &waiter{r, 7}, false); v != core.ArriveShed {
		t.Fatalf("verdict %v, want shed", v)
	}
	st := th.Stats()
	if st.Shed != 1 || st.Admitted != 0 || st.Evicted != 0 || r.front.table.Waiters() != 0 {
		t.Fatalf("stats %+v, %d waiters", st, r.front.table.Waiters())
	}
}

// TestReleasedWinnerGetsNothing checks that a request whose client gave
// up is still admitted but nothing is delivered for it.
func TestReleasedWinnerGetsNothing(t *testing.T) {
	r := newRig(auction, false)
	r.front.Arrive(1, &waiter{r, 1}, true)
	w := &waiter{r, 2}
	r.front.Arrive(2, w, false)
	r.front.Release(2, w)
	r.log = r.log[:0]
	r.front.Done(1, []byte("x"))
	want := []string{`deliver 1 "x"`, "end 2 paid=0 served=true", "start 2"}
	if !slices.Equal(r.log, want) {
		t.Fatalf("got %q, want %q", r.log, want)
	}
	r.log = r.log[:0]
	r.front.Done(2, []byte("y"))
	if len(r.log) != 0 {
		t.Fatalf("delivered to a released waiter: %q", r.log)
	}
}

// TestSimRequestPathAllocs fences the simulator's request path through
// a Front: answered by id with no waiters, a request admitted to a
// free origin and completed allocates nothing, and one that contends
// (told to pay, re-issued, admitted by the auction) allocates only its
// payment channel.
func TestSimRequestPathAllocs(t *testing.T) {
	clock := &fakeClock{}
	th := core.NewThinner(clock, core.Config{})
	var started int
	f := New(clock, th, Origin{Start: func(core.RequestID) { started++ }},
		Transport{Route: func(core.RequestID, []byte) {}})
	id := core.RequestID(0)
	direct := func() {
		id++
		if v := f.Arrive(id, nil, true); v != core.ArriveOK {
			t.Fatalf("direct arrival: verdict %v", v)
		}
		f.Done(id, nil)
	}
	contended := func() {
		id++
		f.Arrive(id, nil, true) // holds the origin
		if v := f.Arrive(id+1, nil, true); v != core.ArriveBusy {
			t.Fatalf("initial arrival at a busy origin: verdict %v", v)
		}
		if v := f.Arrive(id+1, nil, false); v != core.ArriveOK {
			t.Fatalf("re-issued arrival: verdict %v", v)
		}
		f.Done(id, nil) // the auction admits id+1
		id++
		f.Done(id, nil)
	}
	direct()
	contended()
	if avg := testing.AllocsPerRun(1000, direct); avg != 0 {
		t.Fatalf("direct admission allocates %.1f/request, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, contended); avg > 1 {
		t.Fatalf("an auctioned request allocates %.1f, want at most its payment channel", avg)
	}
	// AllocsPerRun calls its function once more than it is asked to.
	if want := 3 + 1001 + 2*1001; started != want {
		t.Fatalf("origin started %d requests, want %d", started, want)
	}
}
