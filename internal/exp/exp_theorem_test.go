package exp

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"speakup/internal/sim"
)

// TestTheoremGame checks single Theorem 3.1 games against the real
// thinner: each must hold its bound, and each case adds its own claim.
func TestTheoremGame(t *testing.T) {
	outbidderUnder := func(frac float64) func(TheoremPoint) bool {
		return func(p TheoremPoint) bool { return p.Share <= frac*p.Epsilon }
	}
	for _, c := range []struct {
		name  string
		game  theoremGame
		bid   bidFunc
		claim func(TheoremPoint) bool
	}{
		{"XAloneWinsEverything", theoremGame{Rounds: 100, XRate: 1, Seed: 1}, constantBid,
			func(p TheoremPoint) bool { return p.Share == 1 && p.Epsilon == 1 }},
		{"EqualRatesConstantAdversary", theoremGame{Rounds: 10000, XRate: 1, AdvRate: 1, Seed: 2}, constantBid,
			func(p TheoremPoint) bool { return p.Share >= 0.4 && p.Share <= 0.6 }},
		// The proof's adversary pushes X's share from ε toward ε/2 ...
		{"OutbidderHoldsBoundButHurtsX", theoremGame{Rounds: 20000, XRate: 1, AdvRate: 1, Seed: 3}, outbidderBid,
			outbidderUnder(0.9)},
		// ... and lands near the bound, not far above it.
		{"OutbidderNearTheoreticalLimit", theoremGame{Rounds: 50000, XRate: 1, AdvRate: 3, Seed: 4}, outbidderBid,
			func(p TheoremPoint) bool { return p.Share <= 3*p.Bound }},
		{"JitterDelta0.1", theoremGame{Rounds: 30000, XRate: 1, AdvRate: 2, Delta: 0.1, Seed: 13}, outbidderBid, nil},
		{"JitterDelta0.25", theoremGame{Rounds: 30000, XRate: 1, AdvRate: 2, Delta: 0.25, Seed: 13}, outbidderBid, nil},
		{"JitterDelta0.4", theoremGame{Rounds: 30000, XRate: 1, AdvRate: 2, Delta: 0.4, Seed: 13}, outbidderBid, nil},
		// A reveal above the bank is clamped to it: the adversary then
		// delivers exactly what it accrued, as much as X at equal rates.
		{"ClampAboveBank", theoremGame{Rounds: 1000, XRate: 1, AdvRate: 1, Seed: 5},
			func(_ int, bank, _ int64, _ *sim.Rand) int64 { return 100 * bank },
			func(p TheoremPoint) bool { return p.Epsilon == 0.5 }},
		// A champion silent past the thinner's 30 s inactivity timeout
		// is evicted and reissued, so each 40 s burst still wins.
		{"ChampionReissuedAfterInactivity", theoremGame{Rounds: 8000, XRate: 1, AdvRate: 1, Seed: 7}, burstBid(4000),
			func(p TheoremPoint) bool { return p.Share == 1-2.0/8000 }},
		// A negative reveal is clamped to zero: nothing is delivered.
		{"ClampNegative", theoremGame{Rounds: 100, XRate: 1, AdvRate: 1, Seed: 6},
			func(int, int64, int64, *sim.Rand) int64 { return -5 },
			func(p TheoremPoint) bool { return p.Epsilon == 1 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := playTheorem(c.game, c.bid)
			if !p.Holds {
				t.Errorf("bound violated: share %.4f < bound %.4f (eps %.4f)", p.Share, p.Bound, p.Epsilon)
			}
			if c.claim != nil && !c.claim(p) {
				t.Errorf("claim fails: share %.4f bound %.4f eps %.4f", p.Share, p.Bound, p.Epsilon)
			}
		})
	}
}

// TestTheoremAllStrategiesRespectBound plays every A2 strategy across
// rate ratios from 1:2 to 10:1 against X.
func TestTheoremAllStrategiesRespectBound(t *testing.T) {
	for _, a := range theoremAdversaries {
		for _, adv := range []float64{0.5, 1, 2, 5, 10} {
			p := playTheorem(theoremGame{Rounds: 20000, XRate: 1, AdvRate: adv, Seed: 11}, a.bid)
			if !p.Holds {
				t.Errorf("strategy %s adv=%v: share %.4f < bound %.4f", a.name, adv, p.Share, p.Bound)
			}
		}
	}
}

// Property: Theorem 3.1 holds for arbitrary reveal schedules — random
// per-round reveal fractions, rate ratios and jitter.
func TestQuickTheorem31(t *testing.T) {
	f := func(seed int64, advRateRaw, deltaRaw uint8, reveals []uint8) bool {
		advRate := 0.25 + float64(advRateRaw%80)/4 // 0.25 .. 20
		delta := float64(deltaRaw%40) / 100        // 0 .. 0.39
		i := 0
		bid := func(_ int, bank, _ int64, _ *sim.Rand) int64 {
			if len(reveals) == 0 {
				return bank
			}
			frac := reveals[i%len(reveals)]
			i++
			return bank * int64(frac) / 255
		}
		return playTheorem(theoremGame{Rounds: 5000, XRate: 1, AdvRate: advRate, Delta: delta, Seed: seed}, bid).Holds
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(61))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: the full-information outbidder never breaks the bound,
// whatever the rate ratio.
func TestQuickOutbidderBound(t *testing.T) {
	f := func(seed int64, advRateRaw uint8) bool {
		advRate := 0.1 + float64(advRateRaw)/16
		return playTheorem(theoremGame{Rounds: 8000, XRate: 1, AdvRate: advRate, Seed: seed}, outbidderBid).Holds
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(62))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTheoremGolden pins the A2 table byte-for-byte, so a change to the
// thinner's tie-break or settle that moves X's share shows as a diff.
// Regenerate (only when such a change is intended) with:
//
//	go test ./internal/exp -run TestTheoremGolden -update-golden
func TestTheoremGolden(t *testing.T) {
	got := Theorem31(Opts{Seed: 1}).Table().String()
	path := filepath.Join("testdata", "golden", "theorem.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("A2 table diverged from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
