package scenario

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"speakup/internal/adversary"
	"speakup/internal/appsim"
	"speakup/internal/core"
	"speakup/internal/faults"
)

// mix builds the standard 2 Mbit/s-per-client mix with ng good and nb
// bad clients.
func mix(ng, nb int) []ClientGroup {
	return []ClientGroup{
		{Count: ng, Good: true},
		{Count: nb, Good: false},
	}
}

func TestSpeakupProportionalAllocation(t *testing.T) {
	// 5 good + 5 bad, equal bandwidth, overloaded server: speak-up
	// should split the server roughly evenly (G/(G+B) = 0.5).
	res := Run(Config{
		Seed: 1, Duration: 60 * time.Second, Capacity: 20,
		Mode: appsim.ModeAuction, Groups: mix(5, 5),
	})
	if res.GoodAllocation < 0.35 || res.GoodAllocation > 0.65 {
		t.Fatalf("good allocation = %.3f, want ~0.5", res.GoodAllocation)
	}
	// The server must be kept busy (overload).
	total := res.ServedGood + res.ServedBad
	if total < uint64(0.8*20*60) {
		t.Fatalf("only %d requests served; server idling", total)
	}
}

func TestOffModeBadClientsDominate(t *testing.T) {
	res := Run(Config{
		Seed: 1, Duration: 60 * time.Second, Capacity: 20,
		Mode: appsim.ModeOff, Groups: mix(5, 5),
	})
	// Bad clients issue ~20x more requests; random service should give
	// the good clients a small share.
	if res.GoodAllocation > 0.25 {
		t.Fatalf("good allocation without speak-up = %.3f, want << 0.5", res.GoodAllocation)
	}
}

func TestSpeakupBeatsOff(t *testing.T) {
	on := Run(Config{Seed: 2, Duration: 45 * time.Second, Capacity: 20,
		Mode: appsim.ModeAuction, Groups: mix(5, 5)})
	off := Run(Config{Seed: 2, Duration: 45 * time.Second, Capacity: 20,
		Mode: appsim.ModeOff, Groups: mix(5, 5)})
	if on.GoodAllocation <= off.GoodAllocation {
		t.Fatalf("speak-up (%.3f) must beat OFF (%.3f)", on.GoodAllocation, off.GoodAllocation)
	}
	if on.GoodAllocation < 2*off.GoodAllocation {
		t.Fatalf("speak-up gain too small: %.3f vs %.3f", on.GoodAllocation, off.GoodAllocation)
	}
}

func TestAdequateCapacityServesAllGood(t *testing.T) {
	// c well above c_id = g(1+B/G): 5 good clients offer ~10 req/s,
	// B=G so c_id=20; c=40 leaves slack for the adversarial advantage.
	res := Run(Config{
		Seed: 3, Duration: 60 * time.Second, Capacity: 40,
		Mode: appsim.ModeAuction, Groups: mix(5, 5),
	})
	if res.FractionGoodServed < 0.9 {
		t.Fatalf("fraction good served = %.3f at c=2*c_id, want ~1", res.FractionGoodServed)
	}
}

func TestUnderprovisionedProportionalShare(t *testing.T) {
	// c = c_id/2: good clients should get roughly half their demand.
	res := Run(Config{
		Seed: 4, Duration: 60 * time.Second, Capacity: 10,
		Mode: appsim.ModeAuction, Groups: mix(5, 5),
	})
	if res.FractionGoodServed < 0.25 || res.FractionGoodServed > 0.75 {
		t.Fatalf("fraction good served = %.3f at c=c_id/2, want ~0.5", res.FractionGoodServed)
	}
}

func TestBandwidthProportionalAcrossGroups(t *testing.T) {
	// Two all-good groups, one with 3x the bandwidth of the other,
	// both saturating: allocation should track bandwidth share.
	res := Run(Config{
		Seed: 5, Duration: 60 * time.Second, Capacity: 5,
		Mode: appsim.ModeAuction,
		Groups: []ClientGroup{
			{Name: "slow", Count: 3, Good: true, Bandwidth: 0.5e6, Lambda: 10, Window: 4},
			{Name: "fast", Count: 3, Good: true, Bandwidth: 1.5e6, Lambda: 10, Window: 4},
		},
	})
	slow, fast := res.Groups[0].Served, res.Groups[1].Served
	if slow == 0 || fast == 0 {
		t.Fatalf("starvation: slow=%d fast=%d", slow, fast)
	}
	ratio := float64(fast) / float64(slow)
	if ratio < 1.8 || ratio > 4.5 {
		t.Fatalf("fast/slow service ratio = %.2f, want ~3 (bandwidth-proportional)", ratio)
	}
}

func TestSharedBottleneckCrowdsOutGood(t *testing.T) {
	// Good and bad behind a 4 Mbit/s bottleneck plus direct clients:
	// the bottlenecked good clients suffer; server keeps serving.
	res := Run(Config{
		Seed: 6, Duration: 45 * time.Second, Capacity: 20,
		Mode:        appsim.ModeAuction,
		Bottlenecks: []Bottleneck{{Rate: 4e6, Delay: time.Millisecond}},
		Groups: []ClientGroup{
			{Name: "bn-good", Count: 2, Good: true, Bottleneck: 1},
			{Name: "bn-bad", Count: 2, Good: false, Bottleneck: 1},
			{Name: "direct-good", Count: 2, Good: true},
			{Name: "direct-bad", Count: 2, Good: false},
		},
	})
	bnGood := &res.Groups[0]
	directGood := &res.Groups[2]
	if directGood.FractionServed() == 0 {
		t.Fatal("direct good clients starved entirely")
	}
	// Bottlenecked good clients do worse than direct ones.
	if bnGood.FractionServed() > directGood.FractionServed() {
		t.Fatalf("bottlenecked good (%.3f) outperformed direct good (%.3f)",
			bnGood.FractionServed(), directGood.FractionServed())
	}
}

func TestBystanderLatencyInflation(t *testing.T) {
	// Fig 9 shape at small scale: downloads through a bottleneck shared
	// with speak-up uploads take several times longer than alone.
	base := Run(Config{
		Seed: 7, Duration: 60 * time.Second, Capacity: 2,
		Mode:        appsim.ModeAuction,
		Bottlenecks: []Bottleneck{{Rate: 1e6, Delay: 100 * time.Millisecond}},
		Groups: []ClientGroup{
			// No clients behind the bottleneck: bystander rides alone.
			{Name: "direct-good", Count: 2, Good: true},
		},
		BystanderH: &Bystander{FileSize: 16_000},
	})
	loaded := Run(Config{
		Seed: 7, Duration: 60 * time.Second, Capacity: 2,
		Mode:        appsim.ModeAuction,
		Bottlenecks: []Bottleneck{{Rate: 1e6, Delay: 100 * time.Millisecond}},
		Groups: []ClientGroup{
			{Name: "bn-good", Count: 4, Good: true, Bottleneck: 1},
			{Name: "direct-good", Count: 2, Good: true},
		},
		BystanderH: &Bystander{FileSize: 16_000},
	})
	if base.BystanderLatencies.N() == 0 || loaded.BystanderLatencies.N() == 0 {
		t.Fatalf("bystander completed no downloads: base=%d loaded=%d",
			base.BystanderLatencies.N(), loaded.BystanderLatencies.N())
	}
	b, l := base.BystanderLatencies.Mean(), loaded.BystanderLatencies.Mean()
	if l < 1.5*b {
		t.Fatalf("no collateral damage: base %.3fs vs loaded %.3fs", b, l)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{Seed: 8, Duration: 20 * time.Second, Capacity: 10,
		Mode: appsim.ModeAuction, Groups: mix(2, 2)}
	a, b := Run(cfg), Run(cfg)
	if a.ServedGood != b.ServedGood || a.ServedBad != b.ServedBad {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d",
			a.ServedGood, a.ServedBad, b.ServedGood, b.ServedBad)
	}
	if a.Events != b.Events {
		t.Fatalf("event counts differ: %d vs %d", a.Events, b.Events)
	}
}

func TestWarmupDiscardsEarlyOutcomes(t *testing.T) {
	full := Run(Config{Seed: 9, Duration: 30 * time.Second, Capacity: 10,
		Mode: appsim.ModeAuction, Groups: mix(2, 2)})
	warm := Run(Config{Seed: 9, Duration: 30 * time.Second, Capacity: 10,
		Warmup: 15 * time.Second,
		Mode:   appsim.ModeAuction, Groups: mix(2, 2)})
	if warm.ServedGood+warm.ServedBad >= full.ServedGood+full.ServedBad {
		t.Fatal("warmup did not discard early outcomes")
	}
}

func TestPricesReportedUnderOverload(t *testing.T) {
	res := Run(Config{Seed: 10, Duration: 45 * time.Second, Capacity: 10,
		Mode: appsim.ModeAuction, Groups: mix(3, 3)})
	good := &res.Groups[0]
	if good.Prices.N() == 0 {
		t.Fatal("no good-client prices recorded")
	}
	// Price cannot exceed what a 2 Mbit/s client can pay in a run.
	if good.Prices.Max() > 2e6/8*45 {
		t.Fatalf("price %v exceeds physical limit", good.Prices.Max())
	}
	if good.PayTimes.N() == 0 {
		t.Fatal("no payment times recorded")
	}
}

func TestRandomDropModeAlsoProtects(t *testing.T) {
	if testing.Short() {
		t.Skip("45s-virtual random-drop run; skipped with -short")
	}
	res := Run(Config{Seed: 11, Duration: 45 * time.Second, Capacity: 20,
		Mode: appsim.ModeRandomDrop, Groups: mix(5, 5)})
	// §3.2 should also produce a large good share (price r = (B+G)/c
	// retries; good clients can afford it).
	if res.GoodAllocation < 0.25 {
		t.Fatalf("random-drop good allocation = %.3f, want substantial", res.GoodAllocation)
	}
}

func TestValidateAdversaryGroups(t *testing.T) {
	base := Config{Capacity: 10, Groups: []ClientGroup{{Count: 1, Good: true}}}
	if err := base.Validate(); err != nil {
		t.Fatalf("baseline config invalid: %v", err)
	}
	cases := []struct {
		name  string
		group ClientGroup
		want  string // substring of the expected error; "" = valid
	}{
		{"known strategy", ClientGroup{Count: 1, Strategy: "flood"}, ""},
		{"strategy with knobs", ClientGroup{Count: 1, Strategy: "onoff", Aggressiveness: 2}, ""},
		{"unknown strategy", ClientGroup{Count: 1, Strategy: "shrew"}, "unknown strategy"},
		{"good plus strategy", ClientGroup{Count: 1, Good: true, Strategy: "mimic"}, "both Good and Strategy"},
		{"negative aggressiveness", ClientGroup{Count: 1, Strategy: "flood", Aggressiveness: -1}, "Aggressiveness"},
		{"aggressiveness without strategy", ClientGroup{Count: 1, Aggressiveness: 2}, "without a Strategy"},
		{"negative lambda", ClientGroup{Count: 1, Strategy: "poisson", Lambda: -3}, "Lambda"},
		{"negative lambda, plain group", ClientGroup{Count: 1, Lambda: -3}, "Lambda"},
		{"negative work, strategy group", ClientGroup{Count: 1, Strategy: "flood", Work: -time.Second}, "Work"},
		{"negative work, plain group", ClientGroup{Count: 1, Work: -time.Second}, "Work"},
	}
	for _, c := range cases {
		cfg := base
		cfg.Groups = []ClientGroup{{Count: 1, Good: true}, c.group}
		err := cfg.Validate()
		if c.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: validation passed, want error containing %q", c.name, c.want)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestGroupSpec pins the one reading of a group: a plain group is the
// §7.1 poisson client (λ=2, w=1 when Good, the poisson profile's own
// λ/w otherwise), a strategy group its profile, and Lambda/Window
// override either.
func TestGroupSpec(t *testing.T) {
	for _, c := range []struct {
		name string
		g    ClientGroup
		want adversary.Spec
	}{
		{"plain good", ClientGroup{Count: 3, Good: true}, adversary.Spec{Name: "poisson", Lambda: 2, Window: 1}},
		{"plain good, overrides", ClientGroup{Count: 3, Good: true, Lambda: 5}, adversary.Spec{Name: "poisson", Lambda: 5, Window: 1}},
		{"plain bad", ClientGroup{Count: 3}, adversary.Spec{Name: "poisson"}},
		{"plain bad, overrides", ClientGroup{Count: 3, Lambda: 9, Window: 4}, adversary.Spec{Name: "poisson", Lambda: 9, Window: 4}},
		{"strategy", ClientGroup{Count: 3, Strategy: "mimic", Aggressiveness: 1.5}, adversary.Spec{Name: "mimic", Aggressiveness: 1.5}},
		{"strategy, overrides", ClientGroup{Count: 3, Strategy: "flood", Lambda: 7, Window: 3}, adversary.Spec{Name: "flood", Lambda: 7, Window: 3}},
	} {
		if got := c.g.Spec(); got != c.want {
			t.Errorf("%s: Spec() = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestPlainGroupIsPoisson: a group without a Strategy runs the poisson
// profile at its Good-selected λ/w, so declaring that profile with the
// same λ/w, name and seed changes nothing.
func TestPlainGroupIsPoisson(t *testing.T) {
	run := func(strategy string) *Result {
		return Run(Config{
			Seed: 12, Duration: 20 * time.Second, Capacity: 10,
			Mode: appsim.ModeAuction,
			Groups: []ClientGroup{
				{Count: 2, Good: true},
				{Name: "bad", Count: 3, Strategy: strategy, Lambda: 40, Window: 20},
			},
		})
	}
	plain, declared := run(""), run("poisson")
	if plain.Groups[1].Served == 0 {
		t.Fatal("the bad group was never served")
	}
	for i := range plain.Groups {
		if !reflect.DeepEqual(plain.Groups[i], declared.Groups[i]) {
			t.Errorf("group %d differs:\nplain    %+v\ndeclared %+v", i, plain.Groups[i], declared.Groups[i])
		}
	}
	if plain.Events != declared.Events {
		t.Errorf("events %d (plain) vs %d (declared poisson)", plain.Events, declared.Events)
	}
}

// TestStrategyGroupRuns drives every registered strategy through the
// full simulator stack against a good-client population and checks
// the run stays sane: attackers generate and are served something,
// good clients are not wiped out, and the group name defaults to the
// strategy.
func TestStrategyGroupRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack strategy runs; skipped with -short")
	}
	for _, name := range adversary.Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res := Run(Config{
				Seed: 5, Duration: 20 * time.Second, Capacity: 20,
				Mode: appsim.ModeAuction,
				Groups: []ClientGroup{
					{Count: 3, Good: true},
					{Count: 3, Strategy: name},
				},
			})
			atk := &res.Groups[1]
			if atk.Name != name+"-1" {
				t.Errorf("attacker group name = %q, want %q", atk.Name, name+"-1")
			}
			if atk.Generated == 0 || atk.Issued == 0 {
				t.Fatalf("%s generated %d / issued %d requests", name, atk.Generated, atk.Issued)
			}
			good := &res.Groups[0]
			if good.Served == 0 {
				t.Fatalf("%s wiped out the good clients entirely", name)
			}
			// Speak-up's core robustness claim: no strategy at equal
			// bandwidth should push the good clients far below their
			// bandwidth-proportional half.
			if res.GoodAllocation < 0.25 {
				t.Errorf("%s: good allocation %.3f, want >= 0.25 at equal bandwidth",
					name, res.GoodAllocation)
			}
		})
	}
}

// TestDefectorPaysLessButWinsLess: the defector's whole point is to
// underpay; the auction's whole point is that underpaying loses.
func TestDefectorPaysLessButWinsLess(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack strategy run; skipped with -short")
	}
	run := func(strategy string) *Result {
		return Run(Config{
			Seed: 8, Duration: 30 * time.Second, Capacity: 20,
			Mode: appsim.ModeAuction,
			Groups: []ClientGroup{
				{Count: 3, Good: true},
				{Count: 3, Strategy: strategy},
			},
		})
	}
	honest := run("poisson")
	cheat := run("defector")
	honestBad, cheatBad := &honest.Groups[1], &cheat.Groups[1]
	if cheatBad.PaidBytes >= honestBad.PaidBytes {
		t.Errorf("defector paid %d >= honest flood %d", cheatBad.PaidBytes, honestBad.PaidBytes)
	}
	if cheat.GoodAllocation < honest.GoodAllocation-0.05 {
		t.Errorf("defection improved the attack: good allocation %.3f vs %.3f honest",
			cheat.GoodAllocation, honest.GoodAllocation)
	}
}

// TestOnOffPulsesInScenario: the pulsing attacker's served requests
// all complete near the ON spans; the simulator sees real silence.
func TestOnOffPulsesInScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack strategy run; skipped with -short")
	}
	res := Run(Config{
		Seed: 9, Duration: 30 * time.Second, Capacity: 20,
		Mode: appsim.ModeAuction,
		Groups: []ClientGroup{
			{Count: 3, Good: true},
			{Count: 3, Strategy: "onoff"},
		},
	})
	atk := &res.Groups[1]
	if atk.Issued == 0 {
		t.Fatal("onoff never issued")
	}
	// A 0.25-duty pulser offers ~the same λ as poisson but compressed
	// into bursts; the backlog-denial count must reflect burst
	// overflow (arrivals above the burst window).
	if atk.Generated < 100 {
		t.Fatalf("onoff generated only %d arrivals", atk.Generated)
	}
}

// TestShardCountInvariance pins the PR 5 index contract the goldens
// rest on: auction winners and timeout evictions are computed from the
// bid table's incremental indexes (per-shard price heaps + tournament,
// orphan lists + inactivity wheel), and none of that may depend on how
// channels are sharded. A defector-heavy mix forces the eviction
// machinery to fire, and every statistic must be identical across
// shard counts.
func TestShardCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation; skipped in -short")
	}
	run := func(shards int) *Result {
		return Run(Config{
			Seed: 11, Duration: 90 * time.Second, Capacity: 10,
			Mode: appsim.ModeAuction,
			Groups: []ClientGroup{
				{Count: 3, Good: true},
				{Count: 3, Good: false, Strategy: "defector", Aggressiveness: 1},
				{Count: 2, Good: false, Strategy: "flood", Aggressiveness: 1},
			},
			Thinner: core.Config{Shards: shards},
		})
	}
	base := run(1)
	if base.ThinnerStats.Evicted == 0 {
		t.Fatal("mix produced no evictions; the invariance check is vacuous")
	}
	for _, shards := range []int{8, 64} {
		got := run(shards)
		if got.ServedGood != base.ServedGood || got.ServedBad != base.ServedBad ||
			got.Events != base.Events || got.ThinnerStats != base.ThinnerStats {
			t.Fatalf("shards=%d diverged from shards=1:\n  %+v vs\n  %+v (events %d vs %d)",
				shards, got.ThinnerStats, base.ThinnerStats, got.Events, base.Events)
		}
	}
}

// TestHeteroOriginFaults runs the §5 scheduler through an origin stall
// and an origin crash. Suspensions land inside the stall and the crash
// destroys the request in service; the run must not panic, and every
// credited byte must be accounted for: recorded as paid, recorded as
// wasted, or still held by an open channel.
func TestHeteroOriginFaults(t *testing.T) {
	cfg := Config{
		Seed: 5, Duration: 12 * time.Second, Capacity: 20,
		Mode:    appsim.ModeHetero,
		Thinner: core.Config{Quantum: 50 * time.Millisecond, AbortAfter: 2 * time.Second},
		Groups: []ClientGroup{
			{Count: 6, Good: true, Work: 50 * time.Millisecond},
			{Count: 6, Good: false, Work: 500 * time.Millisecond},
		},
		Faults: faults.Plan{
			{Kind: faults.OriginStall, At: 3 * time.Second, Duration: 2 * time.Second},
			{Kind: faults.OriginCrash, At: 7 * time.Second, Duration: time.Second},
		},
	}
	res, app := run(cfg)
	if st := res.ServerStats; st.Stalls != 1 || st.Crashes != 1 || st.Suspends == 0 {
		t.Fatalf("server stats %+v: want one stall, one crash and some suspends", st)
	}
	if res.ServedGood == 0 {
		t.Fatal("no good request served")
	}
	table := app.Auction().Table()
	credited := table.TotalCredited()
	var held int64 // open channels' balances plus their §5 charges
	for id := core.RequestID(1); table.Size() > 0; id++ {
		held += table.Remove(id, core.ChanEvicted)
	}
	tot := res.ThinnerStats
	if credited != tot.PaidBytes+tot.WastedBytes+held {
		t.Fatalf("credited %d != paid %d + wasted %d + held %d",
			credited, tot.PaidBytes, tot.WastedBytes, held)
	}
}
