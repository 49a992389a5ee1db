package clients

import (
	"math/rand"
	"testing"
	"time"

	"speakup/internal/adversary"
	"speakup/internal/core"
	"speakup/internal/sim"
	"speakup/internal/simclock"
)

// poisson is the paper's §7.1 client process: Poisson arrivals at
// rate lambda with at most w outstanding.
func poisson(lambda float64, w int) Pacer {
	return adversary.Spec{Name: "poisson", Lambda: lambda, Window: w}.New(nil)
}

// idGen returns a process-unique id counter.
func idGen() func() core.RequestID {
	var n uint64
	return func() core.RequestID {
		n++
		return core.RequestID(n)
	}
}

func TestPoissonRateApproximatesLambda(t *testing.T) {
	loop := sim.NewLoop(1)
	issued := 0
	c := New(simclock.New(loop), Config{Pacer: poisson(2, 1000), Seed: 3}, idGen())
	c.Issue = func(id core.RequestID) { issued++ }
	c.Start()
	loop.Run(300 * time.Second)
	// Expect ~600 arrivals; Poisson sd ~24.5.
	if issued < 500 || issued > 700 {
		t.Fatalf("issued %d in 300s at lambda=2, want ~600", issued)
	}
}

func TestWindowLimitsOutstanding(t *testing.T) {
	loop := sim.NewLoop(2)
	c := New(simclock.New(loop), Config{Pacer: poisson(40, 20), Seed: 4}, idGen())
	maxOut := 0
	c.Issue = func(id core.RequestID) {
		if c.Outstanding() > maxOut {
			maxOut = c.Outstanding()
		}
	}
	c.Start()
	loop.Run(30 * time.Second) // nothing ever completes
	if maxOut != 20 {
		t.Fatalf("max outstanding = %d, want 20", maxOut)
	}
	if c.Outstanding() != 20 {
		t.Fatalf("outstanding = %d, want pinned at window", c.Outstanding())
	}
}

func TestBacklogTimeoutLogsDenials(t *testing.T) {
	loop := sim.NewLoop(3)
	c := New(simclock.New(loop), Config{Pacer: poisson(10, 1), Seed: 5}, idGen())
	denied := 0
	c.OnDenial = func(id core.RequestID) { denied++ }
	c.Issue = func(id core.RequestID) {} // request never completes
	c.Start()
	loop.Run(60 * time.Second)
	st := c.Stats()
	if st.Denied == 0 || denied == 0 {
		t.Fatal("no denials despite a stuck window")
	}
	// All generated except the issued one and the fresh (<10s) backlog
	// should be denied.
	if st.Denied+uint64(c.BacklogLen())+st.Issued != st.Generated {
		t.Fatalf("accounting broken: %+v backlog=%d", st, c.BacklogLen())
	}
	if st.Issued != 1 {
		t.Fatalf("issued = %d, want 1 (window filled)", st.Issued)
	}
}

func TestServedFreesWindowAndDrainsBacklog(t *testing.T) {
	loop := sim.NewLoop(4)
	clock := simclock.New(loop)
	c := New(clock, Config{Pacer: poisson(5, 1), Seed: 6}, idGen())
	var inFlight []core.RequestID
	c.Issue = func(id core.RequestID) { inFlight = append(inFlight, id) }
	c.Start()
	// Serve every outstanding request 100ms after issue.
	var pump func()
	pump = func() {
		loop.After(100*time.Millisecond, func() {
			// Snapshot: serving refills the window, which appends new
			// ids to inFlight mid-loop; those belong to the next batch.
			batch := inFlight
			inFlight = nil
			for _, id := range batch {
				c.RequestServed(id)
			}
			pump()
		})
	}
	pump()
	loop.Run(120 * time.Second)
	st := c.Stats()
	if st.Served < 400 {
		t.Fatalf("served = %d, want most of ~600 offered", st.Served)
	}
	if st.Denied > st.Generated/10 {
		t.Fatalf("excessive denials with a fast server: %+v", st)
	}
}

func TestFailedAlsoFreesWindow(t *testing.T) {
	loop := sim.NewLoop(5)
	c := New(simclock.New(loop), Config{Pacer: poisson(5, 1), Seed: 7}, idGen())
	c.Issue = func(id core.RequestID) {
		// Fail instantly (OFF-mode busy reply).
		loop.After(time.Millisecond, func() { c.RequestFailed(id, 0) })
	}
	c.Start()
	loop.Run(60 * time.Second)
	st := c.Stats()
	if st.Failed == 0 {
		t.Fatal("no failures recorded")
	}
	// With instant failures the window never clogs: no denials.
	if st.Denied != 0 {
		t.Fatalf("denials with instant turnaround: %+v", st)
	}
	if st.Issued != st.Generated {
		t.Fatalf("issued %d != generated %d", st.Issued, st.Generated)
	}
}

func TestStopHaltsGeneration(t *testing.T) {
	loop := sim.NewLoop(6)
	c := New(simclock.New(loop), Config{Pacer: poisson(100, 5), Seed: 8}, idGen())
	c.Issue = func(id core.RequestID) {}
	c.Start()
	loop.Run(time.Second)
	before := c.Stats().Generated
	c.Stop()
	loop.Run(10 * time.Second)
	if c.Stats().Generated != before {
		t.Fatal("generation continued after Stop")
	}
}

func TestOfferedCountsIssuedPlusDenied(t *testing.T) {
	s := Stats{Issued: 10, Denied: 3}
	if s.Offered() != 13 {
		t.Fatalf("offered = %d", s.Offered())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() uint64 {
		loop := sim.NewLoop(7)
		c := New(simclock.New(loop), Config{Pacer: poisson(7, 2), Seed: 9}, idGen())
		c.Issue = func(id core.RequestID) {
			loop.After(50*time.Millisecond, func() { c.RequestServed(id) })
		}
		c.Start()
		loop.Run(60 * time.Second)
		return c.Stats().Served
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func TestConfigValidation(t *testing.T) {
	loop := sim.NewLoop(1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil Pacer did not panic")
			}
		}()
		New(simclock.New(loop), Config{Seed: 1}, idGen())
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil nextID did not panic")
			}
		}()
		New(simclock.New(loop), Config{Pacer: poisson(1, 1)}, nil)
	}()
}

// pulsePacer is a minimal Pacer: fixed 100ms gaps, window 3 for the
// first half of the run and 0 afterwards.
type pulsePacer struct{ cut time.Duration }

func (p *pulsePacer) Gap(now time.Duration, _ *rand.Rand) time.Duration {
	return 100 * time.Millisecond
}

func (p *pulsePacer) Window(now time.Duration) int {
	if now >= p.cut {
		return 0
	}
	return 3
}

// TestPacerDrivesTimingAndWindow: gaps come from the pacer, and a
// collapsed window stops issuing (arrivals pile into the backlog) and
// blocks backlog refill.
func TestPacerDrivesTimingAndWindow(t *testing.T) {
	loop := sim.NewLoop(11)
	p := &pulsePacer{cut: 5 * time.Second}
	c := New(simclock.New(loop), Config{Seed: 1, Pacer: p}, idGen())
	issuedBeforeCut := 0
	c.Issue = func(id core.RequestID) {
		if loop.Now() < p.cut {
			issuedBeforeCut++
		} else {
			t.Fatalf("issued at %v, after the window collapsed", loop.Now())
		}
		// Complete instantly: windows never bind before the cut.
		loop.After(time.Millisecond, func() { c.RequestServed(id) })
	}
	c.Start()
	loop.Run(8 * time.Second)
	// 10 arrivals/s for 5s, window never binding: ~50 issues.
	if issuedBeforeCut < 45 || issuedBeforeCut > 55 {
		t.Fatalf("issued %d before the cut, want ~50 (fixed 100ms gaps)", issuedBeforeCut)
	}
	// After the cut arrivals keep landing in the backlog.
	if c.BacklogLen() == 0 {
		t.Fatal("collapsed window should leave arrivals in the backlog")
	}
}

// A bad client runs hundreds of arrivals deep in its backlog, and each
// completion issues the oldest of them while the next arrival queues at
// the back. Cycling the two must keep reusing the backlog's array: a
// pop that dropped the array's front capacity would make the appends
// reallocate.
func TestBacklogCycleZeroAlloc(t *testing.T) {
	loop := sim.NewLoop(1)
	c := New(simclock.New(loop), Config{Pacer: poisson(40, 1), Seed: 1}, idGen())
	var last core.RequestID
	c.Issue = func(id core.RequestID) { last = id }
	for i := 0; i < 500; i++ {
		c.arrive()
	}
	// AllocsPerRun truncates to whole objects per run, so each run
	// cycles a thousand times.
	cycles := func() {
		for i := 0; i < 1000; i++ {
			c.arrive()
			c.RequestServed(last)
		}
	}
	cycles() // the array settles at its final size
	if avg := testing.AllocsPerRun(20, cycles); avg != 0 {
		t.Fatalf("a thousand arrivals and completions over a deep backlog allocate %.0f objects, want 0", avg)
	}
	st := c.Stats()
	if c.BacklogLen() != 499 || c.Outstanding() != 1 || st.Issued != 1+22*1000 || last != core.RequestID(st.Issued) {
		t.Fatalf("backlog %d, outstanding %d, issued %d, last id %d: want 499 queued behind one in flight, issued in order",
			c.BacklogLen(), c.Outstanding(), st.Issued, last)
	}
}
