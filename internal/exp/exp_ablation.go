package exp

import (
	"fmt"
	"time"

	"speakup/internal/appsim"
	"speakup/internal/core"
	"speakup/internal/metrics"
	"speakup/internal/scenario"
	"speakup/internal/sim"
	"speakup/internal/simclock"
	"speakup/internal/sweep"
)

// --- A1: §3.2 random-drop/retry variant vs §3.3 payment-channel auction ---

// VariantPoint compares front-end policies on the standard mix.
type VariantPoint struct {
	Mode           string
	GoodAllocation float64
	FracGoodServed float64
}

// VariantsResult holds the A1 comparison.
type VariantsResult struct{ Points []VariantPoint }

// Table renders the variant comparison.
func (r *VariantsResult) Table() *metrics.Table {
	t := metrics.NewTable(
		"Ablation A1: front-end variants (25 good / 25 bad, c=100)",
		"variant", "good allocation", "frac good served")
	for _, p := range r.Points {
		t.AddRow(p.Mode, p.GoodAllocation, p.FracGoodServed)
	}
	return t
}

// Variants compares no defense, the §3.2 random-drop/retry design, and
// the §3.3 virtual auction under the standard equal-bandwidth attack.
func Variants(o Opts) *VariantsResult {
	o = o.withDefaults()
	res := &VariantsResult{}
	base := o.base("variants.json")
	modes := []appsim.Mode{appsim.ModeOff, appsim.ModeRandomDrop, appsim.ModeAuction}
	var g sweep.Grid
	for _, mode := range modes {
		m := mode
		g.Add("variants/"+mode.String(), cell(base, func(c *scenario.Config) {
			c.Mode = m
		}))
	}
	for i, sr := range o.sweepGrid(&g) {
		res.Points = append(res.Points, VariantPoint{
			Mode:           modes[i].String(),
			GoodAllocation: sr.Result.GoodAllocation,
			FracGoodServed: sr.Result.FractionGoodServed,
		})
	}
	return res
}

// --- A2: Theorem 3.1 timing adversaries vs the ε/2 bound ---

// Theorem 3.1 (§3.4): requests are served at regular intervals; between
// auctions a good client X pays at a fixed rate, while an adversary who
// may bank its bandwidth and time its reveals, and always has a
// contending request, tries to win auctions. X still wins at least ε/2
// of them, ε being X's share of the bytes the thinner received, or
// (1−2δ)·ε/2 when service intervals jitter by ±δ. playTheorem plays
// that game against the real core.Thinner in virtual time,
// pessimistically for X: the adversary sees X's balance before it
// reveals, and wins ties.

const (
	// theoremUnit is the bytes one unit of rate delivers per interval.
	// Bytes stay integers, as in the thinner: an outbidder's reveal of
	// exactly X's balance must tie it, not fall a rounding error short.
	theoremUnit = 1000
	// theoremInterval is the nominal service interval, 1/c at c = 100.
	theoremInterval = 10 * time.Millisecond
)

// bidFunc is an adversary strategy: before each auction it sees the
// round, its bank and X's balance, and returns the banked bytes to
// reveal on its contending request. The game clamps the reveal to
// [0, bank]. rng is the game loop's generator.
type bidFunc func(round int, bank, xBal int64, rng *sim.Rand) int64

// constantBid reveals the whole bank every round (a naive flooder).
func constantBid(_ int, bank, _ int64, _ *sim.Rand) int64 { return bank }

// outbidderBid is the proof's worst case: it reveals exactly X's
// balance (a tie suffices) when it can, and otherwise banks, wasting
// nothing.
func outbidderBid(_ int, bank, xBal int64, _ *sim.Rand) int64 {
	if bank >= xBal {
		return xBal
	}
	return 0
}

// burstBid saves for period rounds, then dumps the whole bank.
func burstBid(period int) bidFunc {
	return func(round int, bank, _ int64, _ *sim.Rand) int64 {
		if (round+1)%period == 0 {
			return bank
		}
		return 0
	}
}

// randomBid reveals a uniformly random part of the bank each round.
func randomBid(_ int, bank, _ int64, rng *sim.Rand) int64 { return rng.Int63n(bank + 1) }

// thresholdBid outbids X only once the bank holds k times X's balance:
// a "wait until overwhelming" attacker.
func thresholdBid(k int64) bidFunc {
	return func(_ int, bank, xBal int64, _ *sim.Rand) int64 {
		if xBal > 0 && bank >= k*xBal {
			return xBal
		}
		return 0
	}
}

// theoremAdversaries are the A2 strategies, by label.
var theoremAdversaries = []struct {
	name string
	bid  bidFunc
}{
	{"constant", constantBid},
	{"outbidder", outbidderBid},
	{"burst/10", burstBid(10)},
	{"burst/50", burstBid(50)},
	{"random", randomBid},
	{"threshold/3", thresholdBid(3)},
}

// theoremGame parameterizes one game. Rates are in units per interval.
type theoremGame struct {
	Rounds         int
	XRate, AdvRate float64
	Delta          float64 // jitter δ: intervals are drawn from U[1−δ, 1+δ]
	Seed           int64
}

// playTheorem plays g against a core.Thinner over a virtual clock. A
// filler request holds the server first; X and the adversary's
// champion then contend. Each round, after a jittered interval, X
// credits its accrual, the adversary banks its own and reveals what
// bid chooses onto the champion, and the server frees up: the
// thinner's auction admits the winner, which then opens a fresh
// request. The adversary's ids sit below X's, so the thinner's
// (paid desc, id asc) order hands it every tie. A champion the thinner
// times out for inactivity is reissued, so the adversary always
// contends. ε is X's share of all credited bytes.
func playTheorem(g theoremGame, bid bidFunc) TheoremPoint {
	loop := sim.NewLoop(g.Seed)
	rng := loop.Rand()
	clock := simclock.New(loop)
	th := core.NewThinner(clock, core.Config{})
	defer th.Stop()
	adv, x := core.RequestID(1), core.RequestID(1<<40)
	active := core.RequestID(0) // the filler
	th.Admit = func(id core.RequestID, _ int64) { active = id }
	th.Evict = func(id core.RequestID, _ int64, wasted bool) {
		if wasted && id == adv {
			adv++
			th.RequestArrived(adv)
		}
	}
	th.RequestArrived(active)
	th.RequestArrived(x)
	th.RequestArrived(adv)

	var bank, xBytes, advBytes int64
	round, xWins, f := 0, 0, 1.0
	var tick func()
	next := func() {
		if g.Delta > 0 {
			f = 1 - g.Delta + 2*g.Delta*rng.Float64()
		}
		loop.After(time.Duration(f*float64(theoremInterval)), tick)
	}
	tick = func() {
		xPay := int64(g.XRate * theoremUnit * f)
		th.Table().Credit(x, xPay, clock.Now())
		xBytes += xPay
		bank += int64(g.AdvRate * theoremUnit * f)
		reveal := min(max(bid(round, bank, th.Table().Balance(x), rng), 0), bank)
		if reveal > 0 {
			th.Table().Credit(adv, reveal, clock.Now())
			bank -= reveal
			advBytes += reveal
		}
		th.ServerDone(active)
		switch active {
		case x:
			xWins++
			x++
			th.RequestArrived(x)
		case adv:
			adv++
			th.RequestArrived(adv)
		}
		if round++; round == g.Rounds {
			loop.Halt() // else the thinner's sweep timer runs on forever
			return
		}
		next()
	}
	if g.Rounds > 0 {
		next()
		loop.RunAll()
	}

	p := TheoremPoint{Delta: g.Delta, Share: float64(xWins) / float64(max(g.Rounds, 1))}
	if xBytes+advBytes > 0 {
		p.Epsilon = float64(xBytes) / float64(xBytes+advBytes)
	}
	p.Bound = (1 - 2*g.Delta) * p.Epsilon / 2
	// One round of slack for integer effects on short games.
	p.Holds = p.Share >= p.Bound-1/float64(g.Rounds+1)
	return p
}

// TheoremPoint is one adversary strategy's outcome at one jitter.
type TheoremPoint struct {
	Strategy string
	Delta    float64
	Epsilon  float64
	Share    float64
	Bound    float64
	Holds    bool
}

// TheoremResult holds the A2 game outcomes.
type TheoremResult struct{ Points []TheoremPoint }

// Table renders the theorem check.
func (r *TheoremResult) Table() *metrics.Table {
	t := metrics.NewTable(
		"Ablation A2: Theorem 3.1 — X's service share vs the (1−2δ)·ε/2 bound under timing adversaries",
		"adversary", "delta", "epsilon", "share", "bound", "holds")
	for _, p := range r.Points {
		t.AddRow(p.Strategy, p.Delta, p.Epsilon, p.Share, p.Bound, p.Holds)
	}
	return t
}

// Theorem31 plays the Theorem 3.1 game against the real core.Thinner
// in virtual time: every adversary strategy, X at 1/3 of the total
// bandwidth, 20k auctions, at jitter δ = 0 and δ = 0.25.
func Theorem31(o Opts) *TheoremResult {
	o = o.withDefaults()
	res := &TheoremResult{}
	for _, a := range theoremAdversaries {
		for _, delta := range []float64{0, 0.25} {
			p := playTheorem(theoremGame{
				Rounds: 20000, XRate: 1, AdvRate: 2, Delta: delta, Seed: o.Seed,
			}, a.bid)
			p.Strategy = a.name
			res.Points = append(res.Points, p)
		}
	}
	return res
}

// --- A3: heterogeneous requests — naive auction vs §5 quantum auction ---

// HeteroPoint compares schedulers under a hard-request attack.
type HeteroPoint struct {
	Scheduler     string
	GoodWorkShare float64 // fraction of server time spent on good requests
	GoodServed    uint64
	BadServed     uint64
}

// HeteroResult holds the A3 comparison.
type HeteroResult struct{ Points []HeteroPoint }

// Table renders the comparison.
func (r *HeteroResult) Table() *metrics.Table {
	t := metrics.NewTable(
		"Ablation A3: attackers send 10x-hard requests (10 good / 10 bad, c=20 easy-req/s)",
		"scheduler", "good share of server time", "good served", "bad served")
	for _, p := range r.Points {
		t.AddRow(p.Scheduler, p.GoodWorkShare, p.GoodServed, p.BadServed)
	}
	return t
}

// Hetero pits the homogeneous auction thinner against the §5 quantum
// scheduler when attackers send requests that take 10x the server time
// of good requests. Charging per quantum makes hard requests cost
// proportionally more, restoring the good clients' time share.
func Hetero(o Opts) *HeteroResult {
	o = o.withDefaults()
	easy := 50 * time.Millisecond // c = 20 easy requests/s
	res := &HeteroResult{}
	base := o.base("hetero.json")
	var g sweep.Grid
	g.Add("hetero/naive", base)
	g.Add("hetero/quantum", cell(base, func(c *scenario.Config) {
		c.Mode = appsim.ModeHetero
		c.Thinner.Quantum = easy
	}))
	rs := o.sweepGrid(&g)
	naive, quantum := rs[0].Result, rs[1].Result
	for _, c := range []struct {
		name string
		r    *scenario.Result
	}{{"naive auction (§3.3)", naive}, {"quantum auction (§5)", quantum}} {
		good, bad := &c.r.Groups[0], &c.r.Groups[1]
		total := good.ServedWork + bad.ServedWork
		share := 0.0
		if total > 0 {
			share = float64(good.ServedWork) / float64(total)
		}
		res.Points = append(res.Points, HeteroPoint{
			Scheduler:     c.name,
			GoodWorkShare: share,
			GoodServed:    good.Served,
			BadServed:     bad.Served,
		})
	}
	return res
}

// --- A4: payment POST size vs allocation (§3.4 quiescence analysis) ---

// POSTSizePoint is one POST size probe.
type POSTSizePoint struct {
	PostBytes      int
	GoodAllocation float64
}

// POSTSizeResult holds the A4 sweep.
type POSTSizeResult struct{ Points []POSTSizePoint }

// Table renders the sweep.
func (r *POSTSizeResult) Table() *metrics.Table {
	t := metrics.NewTable(
		"Ablation A4: payment POST size vs good allocation (25 good / 25 bad, c=100)",
		"POST size (KB)", "good allocation")
	for _, p := range r.Points {
		t.AddRow(p.PostBytes/1000, p.GoodAllocation)
	}
	return t
}

// POSTSize sweeps the payment POST size (§3.4 discusses POST size
// relative to the bandwidth-delay product). On LAN RTTs the quiescent
// gaps between POSTs are negligible and the allocation barely moves —
// which is itself the §3.4 conclusion: the POST must only be large
// compared to the BDP, and 64 KB already is here.
func POSTSize(o Opts) *POSTSizeResult {
	o = o.withDefaults()
	res := &POSTSizeResult{}
	base := o.base("postsize.json")
	posts := []int{64_000, 250_000, 1_000_000, 4_000_000}
	var g sweep.Grid
	for _, post := range posts {
		p := post
		g.Add(fmt.Sprintf("postsize/%dKB", post/1000), cell(base, func(c *scenario.Config) {
			c.Sizes = appsim.Sizes{Post: p}
		}))
	}
	for i, sr := range o.sweepGrid(&g) {
		res.Points = append(res.Points, POSTSizePoint{
			PostBytes:      posts[i],
			GoodAllocation: sr.Result.GoodAllocation,
		})
	}
	return res
}

// --- A5: bad client's parallel connections on a shared bottleneck (§4.2) ---

// ParallelConnsPoint is one probe of the §4.2 n-connection attack.
type ParallelConnsPoint struct {
	N int
	// EphemeralShare is the gamer's share of the bottlenecked pair's
	// service when it opens n parallel payment channels per request
	// (channels live ~1 price-payment each).
	EphemeralShare float64
	// SustainedShare is its share when it instead keeps n requests
	// outstanding, each with a long-lived payment channel — the real
	// bad-client pattern §4.2 analyzes.
	SustainedShare float64
	// Prediction is §4.2's n/(n+1) for sustained flows.
	Prediction float64
}

// ParallelConnsResult holds the A5 sweep.
type ParallelConnsResult struct{ Points []ParallelConnsPoint }

// Table renders the sweep.
func (r *ParallelConnsResult) Table() *metrics.Table {
	t := metrics.NewTable(
		"Ablation A5: n parallel flows vs a single-connection rival on a shared 2 Mbit/s link",
		"n", "ephemeral channels", "sustained flows", "n/(n+1)")
	for _, p := range r.Points {
		t.AddRow(p.N, p.EphemeralShare, p.SustainedShare, p.Prediction)
	}
	return t
}

// ParallelConns measures the §4.2 parallel-connection attack in two
// regimes. A gamer shares a 2 Mbit/s link with an identical
// single-connection rival. In the *ephemeral* regime the gamer opens n
// payment channels per request but keeps one request outstanding;
// channels live for about one payment cycle — too short for TCP's
// loss-driven fairness to transfer link share, so the extra
// connections buy almost nothing. In the *sustained* regime the gamer
// keeps n requests outstanding (each with its own long-lived channel),
// the pattern of real bad clients, and captures roughly n/(n+1) of the
// pair's service, as §4.2 predicts.
func ParallelConns(o Opts) *ParallelConnsResult {
	o = o.withDefaults()
	res := &ParallelConnsResult{}
	// The base declares the shared link and both rivals with fat access
	// links (the shared link, not the client's own uplink, must be the
	// binding constraint); each cell rewrites the gamer group.
	base := o.base("parconns.json")
	cfg := func(gamer scenario.ClientGroup) scenario.Config {
		return cell(base, func(c *scenario.Config) {
			c.Groups[1] = gamer
		})
	}
	share := func(r *scenario.Result) float64 {
		g, b := r.Groups[0].Served, r.Groups[1].Served
		if g+b == 0 {
			return 0
		}
		return float64(b) / float64(g+b)
	}
	ns := []int{1, 2, 5, 10}
	var grid sweep.Grid
	type pair struct{ ephemeral, sustained int }
	cells := make([]pair, len(ns))
	for i, n := range ns {
		cells[i].ephemeral = grid.Add(fmt.Sprintf("parconns/n=%d/ephemeral", n), cfg(scenario.ClientGroup{
			Name: "bn-gamer", Count: 1, Good: false, Bottleneck: 1,
			Lambda: 10, Window: 1, PayConns: n, Bandwidth: 10e6,
		}))
		cells[i].sustained = grid.Add(fmt.Sprintf("parconns/n=%d/sustained", n), cfg(scenario.ClientGroup{
			Name: "bn-gamer", Count: 1, Good: false, Bottleneck: 1,
			Lambda: 40, Window: n, Bandwidth: 10e6,
		}))
	}
	rs := o.sweepGrid(&grid)
	for i, n := range ns {
		res.Points = append(res.Points, ParallelConnsPoint{
			N:              n,
			EphemeralShare: share(rs[cells[i].ephemeral].Result),
			SustainedShare: share(rs[cells[i].sustained].Result),
			Prediction:     float64(n) / float64(n+1),
		})
	}
	return res
}
