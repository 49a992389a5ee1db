package exp

import (
	"fmt"
	"strconv"
	"time"

	"speakup/internal/appsim"
	"speakup/internal/metrics"
	"speakup/internal/scenario"
	"speakup/internal/sweep"
)

// --- Figure 6: heterogeneous client bandwidth ---

// Fig6Point is one bandwidth category.
type Fig6Point struct {
	Bandwidth float64 // bits/s
	Observed  float64 // fraction of server allocated to this category
	Ideal     float64 // bandwidth-proportional share
}

// Fig6Result holds the Figure 6 series.
type Fig6Result struct{ Points []Fig6Point }

// Table renders Figure 6.
func (r *Fig6Result) Table() *metrics.Table {
	t := metrics.NewTable(
		"Figure 6: allocation across 5 bandwidth categories, 50 good LAN clients, c=10",
		"bandwidth (Mbit/s)", "observed fraction", "ideal fraction")
	for _, p := range r.Points {
		t.AddRow(p.Bandwidth/1e6, p.Observed, p.Ideal)
	}
	return t
}

// Fig6 reproduces the heterogeneous-bandwidth experiment: 5 categories
// of 10 good clients with bandwidth 0.5·i Mbit/s, server capacity 10.
func Fig6(o Opts) *Fig6Result {
	o = o.withDefaults()
	base := o.base("fig6.json")
	var totalBW float64
	for _, g := range base.Groups {
		totalBW += g.Bandwidth * float64(g.Count)
	}
	var grid sweep.Grid
	grid.Add("fig6/heterogeneous-bw", base)
	r := o.sweepGrid(&grid)[0].Result
	var served uint64
	for _, g := range r.Groups {
		served += g.Served
	}
	res := &Fig6Result{}
	for i, g := range r.Groups {
		bw := 0.5e6 * float64(i+1)
		obs := 0.0
		if served > 0 {
			obs = float64(g.Served) / float64(served)
		}
		res.Points = append(res.Points, Fig6Point{
			Bandwidth: bw,
			Observed:  obs,
			Ideal:     bw * 10 / totalBW,
		})
	}
	return res
}

func categoryName(i int) string {
	return "cat-" + string(rune('0'+i))
}

// --- Figure 7: heterogeneous RTTs ---

// Fig7Point is one RTT category.
type Fig7Point struct {
	RTT     time.Duration
	AllGood float64 // fraction captured in the all-good experiment
	AllBad  float64 // fraction captured in the all-bad experiment
	Ideal   float64 // 0.2 (equal bandwidth)
}

// Fig7Result holds the Figure 7 series.
type Fig7Result struct{ Points []Fig7Point }

// Table renders Figure 7.
func (r *Fig7Result) Table() *metrics.Table {
	t := metrics.NewTable(
		"Figure 7: allocation across 5 RTT categories (c=10): good clients suffer with RTT, bad don't",
		"RTT (ms)", "all-good expt", "all-bad expt", "ideal")
	for _, p := range r.Points {
		t.AddRow(p.RTT.Milliseconds(), p.AllGood, p.AllBad, p.Ideal)
	}
	return t
}

// Fig7 reproduces the RTT experiment: 5 categories of 10 clients with
// client-thinner RTT = 100·i ms, all-good and all-bad runs, c=10.
func Fig7(o Opts) *Fig7Result {
	o = o.withDefaults()
	// The base declares the all-good run: one-way access delay of 50·i
	// ms gives an RTT of ~100·i ms, and the good clients still use λ=2,
	// w=1 (demand must exceed c=10; 50 clients at λ=2 offer 100 req/s).
	// The all-bad run flips every category.
	base := o.base("fig7.json")
	var grid sweep.Grid
	grid.Add("fig7/all-good", base)
	grid.Add("fig7/all-bad", cell(base, func(c *scenario.Config) {
		for i := range c.Groups {
			c.Groups[i].Good = false
		}
	}))
	rs := o.sweepGrid(&grid)
	allGood, allBad := rs[0].Result, rs[1].Result
	res := &Fig7Result{}
	totalG, totalB := allGood.ServedGood, allBad.ServedBad
	for i := 0; i < 5; i++ {
		p := Fig7Point{RTT: time.Duration(i+1) * 100 * time.Millisecond, Ideal: 0.2}
		if totalG > 0 {
			p.AllGood = float64(allGood.Groups[i].Served) / float64(totalG)
		}
		if totalB > 0 {
			p.AllBad = float64(allBad.Groups[i].Served) / float64(totalB)
		}
		res.Points = append(res.Points, p)
	}
	return res
}

// --- Figure 8: good and bad clients sharing a bottleneck ---

// Fig8Point is one split of clients behind the bottleneck.
type Fig8Point struct {
	GoodBehind, BadBehind int
	// Fractions of the "bottleneck service" (server share captured by
	// all clients behind l) going to good/bad, vs the per-capita ideal.
	GoodShare, BadShare           float64
	GoodShareIdeal, BadShareIdeal float64
	// Fraction of the bottlenecked good clients' requests served, vs
	// the bandwidth-proportional ideal.
	FracGoodServed, FracGoodServedIdeal float64
}

// Fig8Result holds the Figure 8 series.
type Fig8Result struct{ Points []Fig8Point }

// Table renders Figure 8.
func (r *Fig8Result) Table() *metrics.Table {
	t := metrics.NewTable(
		"Figure 8: good and bad clients behind a shared 40 Mbit/s bottleneck (c=50)",
		"split (g/b)", "good share of bottleneck svc", "ideal", "bad share", "ideal ", "frac bn-good served", "ideal  ")
	for _, p := range r.Points {
		t.AddRow(
			formatSplit(p.GoodBehind, p.BadBehind),
			p.GoodShare, p.GoodShareIdeal,
			p.BadShare, p.BadShareIdeal,
			p.FracGoodServed, p.FracGoodServedIdeal,
		)
	}
	return t
}

func formatSplit(g, b int) string {
	return strconv.Itoa(g) + "g/" + strconv.Itoa(b) + "b"
}

// Fig8 reproduces the shared-bottleneck experiment: 30 clients behind
// a 40 Mbit/s link l (splits 5g/25b, 15g/15b, 25g/5b), plus 10 good
// and 10 bad direct clients; c = 50.
func Fig8(o Opts) *Fig8Result {
	o = o.withDefaults()
	res := &Fig8Result{}
	base := o.base("fig8.json")
	splits := [][2]int{{5, 25}, {15, 15}, {25, 5}}
	var grid sweep.Grid
	for _, split := range splits {
		ng, nb := split[0], split[1]
		grid.Add("fig8/"+formatSplit(ng, nb), cell(base, func(c *scenario.Config) {
			c.Groups[0].Count = ng
			c.Groups[1].Count = nb
		}))
	}
	for i, sr := range o.sweepGrid(&grid) {
		ng, nb := splits[i][0], splits[i][1]
		r := sr.Result
		bnGood, bnBad := &r.Groups[0], &r.Groups[1]
		bnServed := bnGood.Served + bnBad.Served
		p := Fig8Point{
			GoodBehind: ng, BadBehind: nb,
			GoodShareIdeal: float64(ng) / 30,
			BadShareIdeal:  float64(nb) / 30,
		}
		if bnServed > 0 {
			p.GoodShare = float64(bnGood.Served) / float64(bnServed)
			p.BadShare = float64(bnBad.Served) / float64(bnServed)
		}
		p.FracGoodServed = bnGood.FractionServed()
		// Ideal (paper footnote 2): the bottlenecked clients would each
		// have 2·(40/60) Mbit/s; their server share would then be
		// bandwidth-proportional, divided by their demand.
		bnBW := 40e6 / 60e6 * 2e6 // per-client effective bandwidth
		totalBW := float64(ng+nb)*bnBW + 20*2e6
		serverShare := float64(ng) * bnBW / totalBW * 50 // req/s for bn-good
		demand := float64(ng) * 2                        // λ=2 each
		p.FracGoodServedIdeal = min(1, serverShare/demand)
		res.Points = append(res.Points, p)
	}
	return res
}

// --- Figure 9: impact on other traffic ---

// Fig9Point is one transfer size.
type Fig9Point struct {
	SizeKB          int
	WithSpeakup     float64 // mean download seconds
	WithoutSpeakup  float64
	WithStddev      float64
	WithoutStddev   float64
	InflationFactor float64
}

// Fig9Result holds the Figure 9 series.
type Fig9Result struct{ Points []Fig9Point }

// Table renders Figure 9.
func (r *Fig9Result) Table() *metrics.Table {
	t := metrics.NewTable(
		"Figure 9: bystander HTTP download latency over a shared 1 Mbit/s, 100 ms bottleneck",
		"size (KB)", "with speak-up (s)", "sd", "without (s)", "sd ", "inflation")
	for _, p := range r.Points {
		t.AddRow(p.SizeKB, p.WithSpeakup, p.WithStddev, p.WithoutSpeakup, p.WithoutStddev, p.InflationFactor)
	}
	return t
}

// Fig9 reproduces the bystander experiment: 10 good speak-up clients
// share a 1 Mbit/s, 100 ms one-way bottleneck with a web host H that
// repeatedly downloads a file from a separate server S; c = 2.
func Fig9(o Opts) *Fig9Result {
	o = o.withDefaults()
	res := &Fig9Result{}
	base := o.base("fig9.json")
	sizes := []int{1, 4, 16, 64, 128}
	var grid sweep.Grid
	type pair struct{ with, without int }
	cells := make([]pair, len(sizes))
	for i, sizeKB := range sizes {
		kb := sizeKB
		cfg := func(mode appsim.Mode) scenario.Config {
			return cell(base, func(c *scenario.Config) {
				c.Mode = mode
				c.Bystander.FileSize = kb * 1000
			})
		}
		cells[i].with = grid.Add(fmt.Sprintf("fig9/%dKB/on", sizeKB), cfg(appsim.ModeAuction))
		cells[i].without = grid.Add(fmt.Sprintf("fig9/%dKB/off", sizeKB), cfg(appsim.ModeOff))
	}
	rs := o.sweepGrid(&grid)
	for i, sizeKB := range sizes {
		with, without := rs[cells[i].with].Result, rs[cells[i].without].Result
		p := Fig9Point{
			SizeKB:         sizeKB,
			WithSpeakup:    with.BystanderLatencies.Mean(),
			WithStddev:     with.BystanderLatencies.Stddev(),
			WithoutSpeakup: without.BystanderLatencies.Mean(),
			WithoutStddev:  without.BystanderLatencies.Stddev(),
		}
		if p.WithoutSpeakup > 0 {
			p.InflationFactor = p.WithSpeakup / p.WithoutSpeakup
		}
		res.Points = append(res.Points, p)
	}
	return res
}
