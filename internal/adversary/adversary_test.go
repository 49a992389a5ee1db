package adversary

import (
	"math/rand"
	"testing"
	"time"
)

func TestNamesRegistry(t *testing.T) {
	names := Names()
	want := []string{"adaptive", "defector", "flood", "mimic", "onoff", "poisson"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names()[%d] = %q, want %q (sorted)", i, names[i], n)
		}
		if Doc(n) == "" {
			t.Errorf("strategy %q has no doc line", n)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Name: "onoff"}, true},
		{Spec{Name: "flood", Aggressiveness: 2.5}, true},
		{Spec{Name: "shrew"}, false},             // unknown name
		{Spec{Name: ""}, false},                  // empty name
		{Spec{Name: "mimic", Lambda: -1}, false}, // negative rate
		{Spec{Name: "mimic", Window: -2}, false}, // negative window
		{Spec{Name: "onoff", Duty: 1.5}, false},  // duty out of range
		{Spec{Name: "adaptive", Aggressiveness: -1}, false},
		{Spec{Name: "defector", Period: -time.Second}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%+v: unexpected error %v", c.spec, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%+v: validation passed, want error", c.spec)
		}
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New on an unknown strategy did not panic")
		}
	}()
	Spec{Name: "nope"}.New(nil)
}

// TestGapDeterminism: same seed, same gap sequence — the contract the
// simulator's golden tests rely on.
func TestGapDeterminism(t *testing.T) {
	for _, name := range Names() {
		a := Spec{Name: name}.New(nil)
		b := Spec{Name: name}.New(nil)
		ra, rb := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		var now time.Duration
		for i := 0; i < 200; i++ {
			ga, gb := a.Gap(now, ra), b.Gap(now, rb)
			if ga != gb {
				t.Fatalf("%s: gap %d diverged: %v vs %v", name, i, ga, gb)
			}
			if ga <= 0 {
				t.Fatalf("%s: non-positive gap %v", name, ga)
			}
			now += ga
		}
	}
}

// TestOnOffPulses: arrivals only land in the ON span, the window
// collapses to zero in the OFF span, and aggressiveness scales the
// burst.
func TestOnOffPulses(t *testing.T) {
	spec := Spec{Name: "onoff", Period: 10 * time.Second, Duty: 0.25}
	s := spec.New(nil)
	rng := rand.New(rand.NewSource(1))
	onLen := 2500 * time.Millisecond
	var now time.Duration
	arrivals := 0
	for now < 120*time.Second {
		now += s.Gap(now, rng)
		if pos := now % (10 * time.Second); pos >= onLen {
			t.Fatalf("arrival at %v lands in the OFF span (pos %v)", now, pos)
		}
		arrivals++
	}
	if arrivals < 40*100/2 { // nominal λ=40 over 120s, generous slack
		t.Fatalf("only %d arrivals in 120s; burst rate not sustained", arrivals)
	}
	if w := s.Window(5 * time.Second); w != 0 {
		t.Fatalf("window in OFF span = %d, want 0", w)
	}
	if w := s.Window(1 * time.Second); w != 20 {
		t.Fatalf("window in ON span = %d, want 20", w)
	}
}

// TestDefectorProbesMinimumBid: wins shave the probe toward the
// observed price; losses escalate it; payment stops at the probe.
func TestDefectorProbesMinimumBid(t *testing.T) {
	d := Spec{Name: "defector"}.New(nil)
	def := 1 << 20

	// Fresh probe starts at 256 KB: first POST is capped there.
	if got := d.PostSize(0, 0, def); got != defectorStart {
		t.Fatalf("initial post = %d, want %d", got, defectorStart)
	}
	// Paid up to the probe: defect (stop paying).
	if got := d.PostSize(0, defectorStart, def); got != 0 {
		t.Fatalf("post after reaching probe = %d, want 0", got)
	}
	// A win at price 400 KB shaves the probe to 7/8 of it.
	d.Observe(Outcome{Served: true, Price: 400 << 10})
	wantProbe := int64(400<<10) * 7 / 8
	if got := d.PostSize(0, 0, def); int64(got) != wantProbe {
		t.Fatalf("post after win = %d, want %d", got, wantProbe)
	}
	// Two auction losses (bid and lost: Paid > 0) double it twice
	// (probe 350K -> 1400K; read it back with a default bigger than
	// the probe so the cap doesn't mask it).
	d.Observe(Outcome{Served: false, Paid: wantProbe})
	d.Observe(Outcome{Served: false, Paid: wantProbe * 2})
	if got := d.PostSize(0, 0, 8<<20); int64(got) < wantProbe*4-1 {
		t.Fatalf("probe after two losses = %d, want ~%d", got, wantProbe*4)
	}
	// Denials (never issued) and zero-paid failures (transport errors,
	// busy drops — no auction signal) must not move the probe.
	before := d.PostSize(0, 0, def)
	d.Observe(Outcome{Denied: true})
	d.Observe(Outcome{Served: false, Paid: 0})
	if got := d.PostSize(0, 0, def); got != before {
		t.Fatalf("no-signal outcome moved the probe: %d -> %d", before, got)
	}
}

func TestFloodTinyPosts(t *testing.T) {
	f := Spec{Name: "flood"}.New(nil)
	if got := f.PostSize(0, 0, 1<<20); got != floodPost {
		t.Fatalf("flood post = %d, want %d", got, floodPost)
	}
	if w := f.Window(0); w != 64 {
		t.Fatalf("flood window = %d, want 64", w)
	}
	agg := Spec{Name: "flood", Aggressiveness: 2}.New(nil)
	if w := agg.Window(0); w != 128 {
		t.Fatalf("flood x2 window = %d, want 128", w)
	}
}

// TestCohortBudgetConserved: claims never exceed the pool, and
// release/claim round-trips conserve the total.
func TestCohortBudgetConserved(t *testing.T) {
	spec := Spec{Name: "adaptive", Lambda: 10}
	c := NewCohort(spec, 4) // pool = 4 * 10 req/s = 40_000 milli
	total := int64(40_000)
	var claimed int64
	for i := 0; i < 4; i++ {
		claimed += c.Claim(10_000)
	}
	if claimed != total {
		t.Fatalf("claimed %d of %d", claimed, total)
	}
	if got := c.Claim(1); got != 0 {
		t.Fatalf("claim on an empty pool granted %d", got)
	}
	c.Release(5_000)
	if got := c.Claim(10_000); got != 5_000 {
		t.Fatalf("claim after release granted %d, want 5000", got)
	}
}

// TestCohortCouponCollection: NextPhase visits uncollected slots and
// resets once every slot has been won.
func TestCohortCouponCollection(t *testing.T) {
	c := NewCohort(Spec{Name: "adaptive"}, 1)
	seen := map[int]bool{0: true}
	cur := 0
	for i := 0; i < CohortSlots-1; i++ {
		c.MarkWon(cur)
		cur = c.NextPhase(cur)
		if seen[cur] {
			t.Fatalf("NextPhase revisited slot %d before collecting all", cur)
		}
		seen[cur] = true
	}
	if len(seen) != CohortSlots {
		t.Fatalf("collected %d slots, want %d", len(seen), CohortSlots)
	}
	// All slots won: the collection resets and probing starts over.
	c.MarkWon(cur)
	next := c.NextPhase(cur)
	if next != (cur+1)%CohortSlots {
		t.Fatalf("post-reset phase = %d, want %d", next, (cur+1)%CohortSlots)
	}
	if c.Wins() != CohortSlots {
		t.Fatalf("wins = %d, want %d", c.Wins(), CohortSlots)
	}
}

// TestAdaptiveRetunes: a starved member rotates phase and claims rate
// a comfortable member released; the cohort budget bounds the sum.
func TestAdaptiveRetunes(t *testing.T) {
	spec := Spec{Name: "adaptive", Lambda: 10}
	c := NewCohort(spec, 2)
	starved := spec.New(c).(*adaptive)
	happy := spec.New(c).(*adaptive)

	// Pool is empty (both members hold their base share): starvation
	// alone cannot grow the rate.
	phase0 := starved.phase.Load()
	for i := 0; i < retuneEvery; i++ {
		starved.Observe(Outcome{Served: false})
	}
	if starved.phase.Load() == phase0 {
		t.Fatal("starved member did not rotate its burst phase")
	}
	if got := starved.rateMilli.Load(); got != 10_000 {
		t.Fatalf("starved member grew rate to %d with an empty pool", got)
	}
	if got := starved.window.Load(); got != 40 {
		t.Fatalf("starved window = %d, want doubled 40", got)
	}

	// The happy member wins and releases; the starved member can now
	// claim the surplus — but the cohort total stays within budget.
	for i := 0; i < retuneEvery; i++ {
		happy.Observe(Outcome{Served: true})
	}
	for i := 0; i < retuneEvery; i++ {
		starved.Observe(Outcome{Served: false})
	}
	sum := starved.rateMilli.Load() + happy.rateMilli.Load() + c.pool.Load()
	if sum != 20_000 {
		t.Fatalf("cohort rate not conserved: %d milli, want 20000", sum)
	}
	if starved.rateMilli.Load() <= 10_000 {
		t.Fatal("starved member never claimed the released rate")
	}
}
