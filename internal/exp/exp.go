// Package exp defines one runnable experiment per table and figure in
// the paper's evaluation (§7), at configurable duration. The benchmark
// harness (bench_test.go) runs them at reduced duration; cmd/repro
// runs them at paper scale (600 virtual seconds). Each experiment
// returns typed data plus a rendered table whose rows match what the
// paper's figure reports.
//
// Every experiment declares its scenario runs as a sweep.Grid and
// executes them through the sweep engine, so a figure's independent
// runs fan out across Opts.Workers goroutines. Results are read back
// by grid index, which keeps every figure bit-for-bit identical to a
// serial execution.
package exp

import (
	"fmt"
	"time"

	"speakup/configs"
	"speakup/internal/appsim"
	"speakup/internal/config"
	"speakup/internal/metrics"
	"speakup/internal/scenario"
	"speakup/internal/sweep"
)

// Opts scales the experiments.
type Opts struct {
	// Duration is the virtual time per run. The paper uses 600s; the
	// default here is 60s, which preserves every qualitative shape.
	Duration time.Duration
	// Seed makes runs reproducible. Defaults to 1.
	Seed int64
	// Workers is the number of scenario runs executed concurrently
	// within each experiment (0 = GOMAXPROCS). Results do not depend
	// on it.
	Workers int
	// Progress, if non-nil, observes every completed scenario run.
	Progress sweep.Progress
}

func (o Opts) withDefaults() Opts {
	if o.Duration == 0 {
		o.Duration = 60 * time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// sweepGrid executes a grid with this Opts' parallelism and progress.
func (o Opts) sweepGrid(g *sweep.Grid) []sweep.Result {
	return sweep.Engine{Workers: o.Workers, Progress: o.Progress}.Sweep(g.Runs())
}

// base loads a driver's base scenario from the embedded configs/ file
// set and stamps this Opts' seed and duration over it. Figure drivers
// declare topology, population, and policy in configs/<name>; only
// their grid axes remain code (applied per cell with cell). The file
// set ships inside the binary, so a driver base cannot fail to load
// except through a programming error — hence the panic.
func (o Opts) base(name string) scenario.Config {
	doc, err := config.LoadFS(configs.FS, name)
	if err != nil {
		panic(fmt.Errorf("exp: embedded base scenario: %w", err))
	}
	cfg, err := doc.Config()
	if err != nil {
		panic(fmt.Errorf("exp: embedded base scenario %s: %w", name, err))
	}
	cfg.Seed = o.Seed
	cfg.Duration = o.Duration
	return cfg
}

// cell copies a base scenario and applies one grid cell's axis
// overrides. Groups, Bottlenecks, and Bystander are cloned first, so
// mutations never leak between cells of the same base (the sweep
// engine runs cells concurrently).
func cell(base scenario.Config, mut func(*scenario.Config)) scenario.Config {
	base.Groups = append([]scenario.ClientGroup(nil), base.Groups...)
	base.Bottlenecks = append([]scenario.Bottleneck(nil), base.Bottlenecks...)
	if base.Bystander != nil {
		b := *base.Bystander
		base.Bystander = &b
	}
	mut(&base)
	return base
}

// equalMix returns the standard 50-client, 2 Mbit/s-per-client
// population with nGood good clients and 50-nGood bad ones.
func equalMix(nGood int) []scenario.ClientGroup {
	return []scenario.ClientGroup{
		{Name: "good", Count: nGood, Good: true},
		{Name: "bad", Count: 50 - nGood, Good: false},
	}
}

// --- Figure 2 ---

// Fig2Point is one x-position of Figure 2.
type Fig2Point struct {
	F       float64 // good fraction of total bandwidth (x axis)
	With    float64 // good allocation with speak-up
	Without float64 // good allocation without speak-up
	Ideal   float64 // = F
}

// Fig2Result holds the Figure 2 series.
type Fig2Result struct{ Points []Fig2Point }

// Table renders the paper's Figure 2 series.
func (r *Fig2Result) Table() *metrics.Table {
	t := metrics.NewTable(
		"Figure 2: server allocation to good clients vs their bandwidth fraction (c=100)",
		"f=G/(G+B)", "with speak-up", "without", "ideal")
	for _, p := range r.Points {
		t.AddRow(p.F, p.With, p.Without, p.Ideal)
	}
	return t
}

// Fig2 reproduces Figure 2: 50 clients x 2 Mbit/s, c = 100 req/s,
// varying the fraction f of good clients; measured with and without
// speak-up against the ideal proportional line.
func Fig2(o Opts) *Fig2Result {
	o = o.withDefaults()
	base := o.base("fig2.json")
	tenths := []int{1, 3, 5, 7, 9}
	var g sweep.Grid
	type pair struct{ on, off int }
	cells := make([]pair, len(tenths))
	for i, t := range tenths {
		nGood := 5 * t // 50 clients: f=0.1 -> 5 good
		split := func(c *scenario.Config) {
			c.Groups[0].Count = nGood
			c.Groups[1].Count = 50 - nGood
		}
		cells[i].on = g.Add(fmt.Sprintf("fig2/f=0.%d/on", t), cell(base, split))
		cells[i].off = g.Add(fmt.Sprintf("fig2/f=0.%d/off", t), cell(base, func(c *scenario.Config) {
			split(c)
			c.Mode = appsim.ModeOff
		}))
	}
	rs := o.sweepGrid(&g)
	res := &Fig2Result{}
	for i, t := range tenths {
		f := float64(t) / 10
		on, off := rs[cells[i].on].Result, rs[cells[i].off].Result
		res.Points = append(res.Points, Fig2Point{
			F: f, With: on.GoodAllocation, Without: off.GoodAllocation, Ideal: f,
		})
	}
	return res
}

// --- Figures 3, 4, 5 (shared runs: G=B=50 Mbit/s, c in {50,100,200}) ---

// Fig345Point carries everything Figures 3-5 report for one capacity.
type Fig345Point struct {
	C float64 // server capacity (requests/s)

	// Figure 3: allocations and service fractions, OFF and ON.
	GoodAllocOff, BadAllocOff float64
	GoodAllocOn, BadAllocOn   float64
	FracGoodServedOff         float64
	FracGoodServedOn          float64

	// Figure 4 (ON runs): time uploading dummy bytes, served good reqs.
	PayTimeMean, PayTimeP90 float64 // seconds

	// Figure 5 (ON runs): average price of served requests, bytes.
	PriceGood, PriceBad, PriceUpperBound float64
}

// Fig345Result holds the shared series.
type Fig345Result struct{ Points []Fig345Point }

// Fig345 runs the provisioning experiments once for all three figures:
// 25 good + 25 bad clients (G = B = 50 Mbit/s), c in {50, 100, 200};
// c_id = 100.
func Fig345(o Opts) *Fig345Result {
	o = o.withDefaults()
	base := o.base("fig345.json")
	caps := []float64{50, 100, 200}
	var g sweep.Grid
	type pair struct{ on, off int }
	cells := make([]pair, len(caps))
	for i, c := range caps {
		capacity := c
		cells[i].on = g.Add(fmt.Sprintf("fig345/c=%g/on", c), cell(base, func(cfg *scenario.Config) {
			cfg.Capacity = capacity
		}))
		cells[i].off = g.Add(fmt.Sprintf("fig345/c=%g/off", c), cell(base, func(cfg *scenario.Config) {
			cfg.Capacity = capacity
			cfg.Mode = appsim.ModeOff
		}))
	}
	rs := o.sweepGrid(&g)
	res := &Fig345Result{}
	for i, c := range caps {
		on, off := rs[cells[i].on].Result, rs[cells[i].off].Result
		goodOn, badOn := &on.Groups[0], &on.Groups[1]
		p := Fig345Point{
			C:                 c,
			GoodAllocOff:      off.GoodAllocation,
			BadAllocOff:       1 - off.GoodAllocation,
			GoodAllocOn:       on.GoodAllocation,
			BadAllocOn:        1 - on.GoodAllocation,
			FracGoodServedOff: off.FractionGoodServed,
			FracGoodServedOn:  on.FractionGoodServed,
			PayTimeMean:       goodOn.PayTimes.Mean(),
			PayTimeP90:        goodOn.PayTimes.Percentile(90),
			PriceGood:         goodOn.Prices.Mean(),
			PriceBad:          badOn.Prices.Mean(),
			PriceUpperBound:   100e6 / 8 / c, // (G+B)/c in bytes
		}
		res.Points = append(res.Points, p)
	}
	return res
}

// Fig3Table renders Figure 3.
func (r *Fig345Result) Fig3Table() *metrics.Table {
	t := metrics.NewTable(
		"Figure 3: allocation and good service vs capacity (G=B=50 Mbit/s, c_id=100)",
		"c", "mode", "alloc good", "alloc bad", "frac good served")
	for _, p := range r.Points {
		t.AddRow(p.C, "OFF", p.GoodAllocOff, p.BadAllocOff, p.FracGoodServedOff)
		t.AddRow(p.C, "ON", p.GoodAllocOn, p.BadAllocOn, p.FracGoodServedOn)
	}
	return t
}

// Fig4Table renders Figure 4.
func (r *Fig345Result) Fig4Table() *metrics.Table {
	t := metrics.NewTable(
		"Figure 4: time uploading dummy bytes for served good requests (seconds)",
		"c", "mean", "90th pct")
	for _, p := range r.Points {
		t.AddRow(p.C, p.PayTimeMean, p.PayTimeP90)
	}
	return t
}

// Fig5Table renders Figure 5 (KBytes, like the paper's axis).
func (r *Fig345Result) Fig5Table() *metrics.Table {
	t := metrics.NewTable(
		"Figure 5: average price of served requests (KBytes)",
		"c", "good", "bad", "upper bound (G+B)/c")
	for _, p := range r.Points {
		t.AddRow(p.C, p.PriceGood/1000, p.PriceBad/1000, p.PriceUpperBound/1000)
	}
	return t
}

// --- §7.4: empirical adversarial advantage ---

// Sec74Point is one capacity probe.
type Sec74Point struct {
	C              float64
	FracGoodServed float64
	GoodAllocation float64
}

// Sec74Result reports the minimum capacity satisfying the good demand.
type Sec74Result struct {
	Points []Sec74Point
	// MinCapacity is the smallest probed c with FracGoodServed >=
	// Threshold; 0 if none qualified.
	MinCapacity float64
	Threshold   float64
	// IdealCapacity is c_id = g(1+B/G) = 100 for this population.
	IdealCapacity float64
}

// Table renders the capacity sweep.
func (r *Sec74Result) Table() *metrics.Table {
	t := metrics.NewTable(
		"Sec 7.4: capacity sweep, G=B=50 Mbit/s (c_id=100); min c serving all good demand",
		"c", "frac good served", "good allocation")
	for _, p := range r.Points {
		t.AddRow(p.C, p.FracGoodServed, p.GoodAllocation)
	}
	t.AddRow("min c", r.MinCapacity, "")
	t.AddRow("overprovisioning vs ideal", r.MinCapacity/r.IdealCapacity, "")
	return t
}

// Sec74MinCapacity sweeps c upward from c_id to find the provisioning
// needed to satisfy (nearly) all good demand — the paper finds 115,
// i.e. 15% above the bandwidth-proportional ideal.
func Sec74MinCapacity(o Opts) *Sec74Result {
	o = o.withDefaults()
	res := &Sec74Result{Threshold: 0.95, IdealCapacity: 100}
	base := o.base("sec74.json")
	caps := []float64{100, 105, 110, 115, 120, 130, 140}
	var g sweep.Grid
	for _, c := range caps {
		capacity := c
		g.Add(fmt.Sprintf("sec74/c=%g", c), cell(base, func(cfg *scenario.Config) {
			cfg.Capacity = capacity
		}))
	}
	for i, sr := range o.sweepGrid(&g) {
		c, r := caps[i], sr.Result
		res.Points = append(res.Points, Sec74Point{
			C: c, FracGoodServed: r.FractionGoodServed, GoodAllocation: r.GoodAllocation,
		})
		if res.MinCapacity == 0 && r.FractionGoodServed >= res.Threshold {
			res.MinCapacity = c
		}
	}
	return res
}

// Sec74WindowPoint is one bad-client window probe.
type Sec74WindowPoint struct {
	W              int
	BadAllocation  float64
	GoodAllocation float64
}

// Sec74WindowResult reports bad-client capture vs their window w.
type Sec74WindowResult struct{ Points []Sec74WindowPoint }

// Table renders the window sweep.
func (r *Sec74WindowResult) Table() *metrics.Table {
	t := metrics.NewTable(
		"Sec 7.4: bad-client capture vs their window w (c=100, G=B)",
		"w", "bad allocation", "good allocation")
	for _, p := range r.Points {
		t.AddRow(p.W, p.BadAllocation, p.GoodAllocation)
	}
	return t
}

// Sec74WindowSweep varies the bad clients' window w at c=100 (the
// paper checked w in [1,60] and chose w=20 as conservative).
func Sec74WindowSweep(o Opts) *Sec74WindowResult {
	o = o.withDefaults()
	res := &Sec74WindowResult{}
	base := o.base("sec74.json")
	windows := []int{1, 5, 10, 20, 40, 60}
	var g sweep.Grid
	for _, w := range windows {
		window := w
		g.Add(fmt.Sprintf("window/w=%d", w), cell(base, func(cfg *scenario.Config) {
			cfg.Groups[1].Window = window
		}))
	}
	for i, sr := range o.sweepGrid(&g) {
		r := sr.Result
		res.Points = append(res.Points, Sec74WindowPoint{
			W: windows[i], BadAllocation: 1 - r.GoodAllocation, GoodAllocation: r.GoodAllocation,
		})
	}
	return res
}
