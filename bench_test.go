// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation (§7), plus the ablations from DESIGN.md. Each benchmark
// runs the experiment at reduced virtual duration (the shapes are
// duration-stable; cmd/repro reruns them at the paper's 600 s) and
// prints the same rows/series the paper reports. Headline values are
// also exposed as benchmark metrics.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package speakup

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"speakup/internal/core"
	"speakup/internal/exp"
	"speakup/internal/metrics"
	"speakup/internal/scenario"
	"speakup/internal/sim"
	"speakup/internal/sweep"
	"speakup/internal/web"
)

// benchOpts is the scaled-down experiment configuration. 60 s of
// virtual time keeps every figure's shape; see EXPERIMENTS.md.
var benchOpts = exp.Opts{Duration: 60 * time.Second, Seed: 1}

// printOnce gates table output so repeated bench iterations (b.N > 1)
// do not spam.
var printedMu sync.Mutex
var printed = map[string]bool{}

func printOnce(key string, table *metrics.Table) {
	printedMu.Lock()
	defer printedMu.Unlock()
	if !printed[key] {
		printed[key] = true
		fmt.Printf("\n%s\n", table)
	}
}

func BenchmarkFig2Allocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig2(benchOpts)
		printOnce("fig2", r.Table())
		mid := r.Points[2] // f = 0.5
		b.ReportMetric(mid.With, "goodAlloc(f=0.5)")
		b.ReportMetric(mid.Without, "goodAllocOff(f=0.5)")
	}
}

func BenchmarkFig3Provisioning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig345(benchOpts)
		printOnce("fig3", r.Fig3Table())
		b.ReportMetric(r.Points[2].FracGoodServedOn, "fracGoodServed(c=200)")
	}
}

func BenchmarkFig4PaymentTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig345(benchOpts)
		printOnce("fig4", r.Fig4Table())
		b.ReportMetric(r.Points[0].PayTimeMean, "payTimeMeanSec(c=50)")
	}
}

func BenchmarkFig5Price(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig345(benchOpts)
		printOnce("fig5", r.Fig5Table())
		b.ReportMetric(r.Points[0].PriceGood/1000, "priceGoodKB(c=50)")
		b.ReportMetric(r.Points[0].PriceUpperBound/1000, "priceBoundKB(c=50)")
	}
}

func BenchmarkSec74AdversarialAdvantage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Sec74MinCapacity(benchOpts)
		printOnce("sec74", r.Table())
		b.ReportMetric(r.MinCapacity/r.IdealCapacity, "provisioningVsIdeal")
	}
}

func BenchmarkSec74WindowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Sec74WindowSweep(benchOpts)
		printOnce("window", r.Table())
		b.ReportMetric(r.Points[3].BadAllocation, "badAlloc(w=20)")
	}
}

func BenchmarkFig6HeterogeneousBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig6(benchOpts)
		printOnce("fig6", r.Table())
		b.ReportMetric(r.Points[4].Observed, "topCategoryShare")
	}
}

func BenchmarkFig7HeterogeneousRTT(b *testing.B) {
	// RTTs reach 500 ms; use a longer run so slow-start transients
	// do not dominate (see exp tests).
	o := exp.Opts{Duration: 100 * time.Second, Seed: benchOpts.Seed}
	for i := 0; i < b.N; i++ {
		r := exp.Fig7(o)
		printOnce("fig7", r.Table())
		b.ReportMetric(r.Points[0].AllGood-r.Points[4].AllGood, "goodSpread")
		b.ReportMetric(r.Points[0].AllBad-r.Points[4].AllBad, "badSpread")
	}
}

func BenchmarkFig8SharedBottleneck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig8(benchOpts)
		printOnce("fig8", r.Table())
		b.ReportMetric(r.Points[1].GoodShare, "goodShare(15g/15b)")
	}
}

func BenchmarkFig9BystanderHTTP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Fig9(benchOpts)
		printOnce("fig9", r.Table())
		b.ReportMetric(r.Points[0].InflationFactor, "inflation(1KB)")
		b.ReportMetric(r.Points[3].InflationFactor, "inflation(64KB)")
	}
}

func BenchmarkAblationVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Variants(benchOpts)
		printOnce("variants", r.Table())
		b.ReportMetric(r.Points[2].GoodAllocation, "auctionGoodAlloc")
	}
}

func BenchmarkAblationTheorem31(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Theorem31(benchOpts)
		printOnce("theorem", r.Table())
		worst := 1.0
		for _, p := range r.Points {
			if p.Delta == 0 && p.Bound > 0 && p.Share/p.Bound/2 < worst {
				worst = p.Share / (2 * p.Bound)
			}
		}
		b.ReportMetric(worst, "minShareVsEps") // over the δ=0 rows; 0.5 = exactly the eps/2 floor
	}
}

func BenchmarkAblationHeterogeneous(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Hetero(benchOpts)
		printOnce("hetero", r.Table())
		b.ReportMetric(r.Points[0].GoodWorkShare, "naiveGoodTimeShare")
		b.ReportMetric(r.Points[1].GoodWorkShare, "quantumGoodTimeShare")
	}
}

func BenchmarkAblationPOSTSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.POSTSize(benchOpts)
		printOnce("postsize", r.Table())
		b.ReportMetric(r.Points[0].GoodAllocation, "goodAlloc(64KB)")
		b.ReportMetric(r.Points[2].GoodAllocation, "goodAlloc(1MB)")
	}
}

func BenchmarkAblationParallelConns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.ParallelConns(benchOpts)
		printOnce("parconns", r.Table())
		b.ReportMetric(r.Points[3].SustainedShare, "sustainedShare(n=10)")
	}
}

// --- sweep engine: serial vs parallel figure grids ---

// sweepBenchGrid is a representative figure sweep: the §7.4 capacity
// axis at reduced duration.
func sweepBenchGrid() []sweep.Run {
	var g sweep.Grid
	for _, c := range []float64{50, 75, 100, 125, 150, 200} {
		g.Add(fmt.Sprintf("bench/c=%g", c), scenario.Config{
			Seed: 1, Duration: 20 * time.Second, Capacity: c,
			Mode: ModeAuction,
			Groups: []scenario.ClientGroup{
				{Count: 10, Good: true},
				{Count: 10, Good: false},
			},
		})
	}
	return g.Runs()
}

func benchmarkSweep(b *testing.B, workers int) {
	grid := sweepBenchGrid()
	for i := 0; i < b.N; i++ {
		rs := sweep.Engine{Workers: workers}.Sweep(grid)
		var events uint64
		for _, r := range rs {
			events += r.Result.Events
		}
		b.ReportMetric(float64(events), "events/op")
	}
}

// BenchmarkSweepSerial is the baseline: one worker, like the
// hand-rolled loops the experiments used before the sweep engine.
func BenchmarkSweepSerial(b *testing.B) { benchmarkSweep(b, 1) }

// BenchmarkSweepParallel fans the same grid across GOMAXPROCS workers;
// on an N-core machine wall time drops roughly N-fold.
func BenchmarkSweepParallel(b *testing.B) { benchmarkSweep(b, 0) }

// --- event core microbenchmarks ---

type eventChain struct {
	loop *sim.Loop
	left int
}

func eventChainTick(env, _ any) {
	c := env.(*eventChain)
	if c.left--; c.left > 0 {
		c.loop.AfterTimer(time.Microsecond, eventChainTick, c, nil)
	}
}

// BenchmarkEventLoop measures the bare scheduler: 64 interleaved
// self-rescheduling typed-timer chains, one event per op. The headline
// claims are ns/op (pure per-event cost, no model code) and allocs/op,
// which must stay at zero — the zero-allocation invariant the rebuilt
// engine exists for, also enforced by tests in internal/sim.
func BenchmarkEventLoop(b *testing.B) {
	loop := sim.NewLoop(1)
	loop.Grow(256)
	const fanout = 64
	chains := make([]eventChain, fanout)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range chains {
		chains[i] = eventChain{loop: loop, left: b.N / fanout}
		loop.AfterTimer(time.Duration(i), eventChainTick, &chains[i], nil)
	}
	loop.RunAll()
}

// longTimerChain is one short typed-timer chain (a flow's packet hops)
// that re-arms one of a shared set of long timers on every tick, as
// every ACK re-arms its connection's retransmission timer.
type longTimerChain struct {
	loop   *sim.Loop
	left   int
	timers []sim.Event
	next   int
}

func longTimerChainTick(env, _ any) {
	c := env.(*longTimerChain)
	k := c.next
	c.next = (k + 1) % len(c.timers)
	c.loop.Cancel(c.timers[k])
	rto := time.Second + time.Duration(k)*time.Millisecond
	c.timers[k] = c.loop.AfterTimer(rto, longTimerFire, c, nil)
	if c.left--; c.left > 0 {
		c.loop.AfterTimer(time.Duration(1+k%7)*time.Microsecond, longTimerChainTick, c, nil)
	}
}

func longTimerFire(_, _ any) {}

// BenchmarkEventLoopLongTimers measures the simulator's real event
// mix: 64 short typed-timer chains, one event per op, each tick
// canceling and re-arming one of 1024 long timers 1-2 s out, which
// (like TCP retransmission timers reset by every ACK) almost never
// fire. Unlike BenchmarkEventLoop, the queue always holds ~1000 far
// events behind the few that are due; allocs/op must stay at zero.
// Once the chains end, each long timer fires once: 1024 extra events.
func BenchmarkEventLoopLongTimers(b *testing.B) {
	loop := sim.NewLoop(1)
	loop.Grow(2048)
	const fanout, perChain = 64, 16
	chains := make([]longTimerChain, fanout)
	for i := range chains {
		c := &chains[i]
		*c = longTimerChain{loop: loop, left: b.N / fanout, timers: make([]sim.Event, perChain)}
		for k := range c.timers {
			c.timers[k] = loop.AfterTimer(time.Second+time.Duration(k)*time.Millisecond, longTimerFire, c, nil)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range chains {
		loop.AfterTimer(time.Duration(i), longTimerChainTick, &chains[i], nil)
	}
	loop.RunAll()
}

// BenchmarkEventScheduleCancel measures the bare cost of re-arming one
// timer: schedule an hour out, cancel immediately, on an otherwise
// empty queue. It says nothing about the cost a timer adds while it
// waits behind other events; BenchmarkEventLoopLongTimers measures
// that. Also 0 allocs/op.
func BenchmarkEventScheduleCancel(b *testing.B) {
	loop := sim.NewLoop(1)
	loop.Grow(256)
	var h sim.Handler = func(env, arg any) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop.Cancel(loop.AfterTimer(time.Hour, h, nil, nil))
	}
}

// --- §7.1: thinner payment-sink capacity (real sockets) ---

// sinkBody feeds n chunks of the given size to an HTTP POST.
type sinkBody struct {
	chunk []byte
	left  int
}

func (s *sinkBody) Read(p []byte) (int, error) {
	if s.left == 0 {
		return 0, io.EOF
	}
	n := copy(p, s.chunk)
	if n == len(s.chunk) {
		s.left--
	}
	return n, nil
}

// benchSink measures how fast the live thinner sinks payment bytes
// arriving in units of chunkSize — the §7.1 experiment (the paper
// reports 1451 Mbit/s at 1500 B and 379 Mbit/s at 120 B on a 2006
// Xeon; absolute numbers differ on this hardware, the 1500-vs-120
// shape is what matters).
func benchSink(b *testing.B, chunkSize int) {
	origin := web.NewEmulatedOrigin(1000)
	front := web.NewFront(origin, web.Config{
		PayPollInterval: time.Second, // no poll churn during the bench
		Thinner:         core.Config{OrphanTimeout: time.Hour},
	})
	defer front.Close()
	srv := httptest.NewServer(front)
	defer srv.Close()

	b.SetBytes(int64(chunkSize))
	b.ResetTimer()
	body := &sinkBody{chunk: make([]byte, chunkSize), left: b.N}
	resp, err := http.Post(srv.URL+"/pay?id=1", "application/octet-stream", io.NopCloser(body))
	if err != nil {
		b.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	b.StopTimer()
	st := front.Snapshot()
	if st.PaymentBytes < int64(b.N)*int64(chunkSize) {
		b.Fatalf("sank %d bytes, want >= %d", st.PaymentBytes, int64(b.N)*int64(chunkSize))
	}
}

func BenchmarkThinnerSink1500(b *testing.B) { benchSink(b, 1500) }
func BenchmarkThinnerSink120(b *testing.B)  { benchSink(b, 120) }

// BenchmarkTable1Summary regenerates the paper's Table 1 (summary of
// main evaluation results) from quick versions of the underlying runs.
func BenchmarkTable1Summary(b *testing.B) {
	o := exp.Opts{Duration: 30 * time.Second, Seed: 1}
	for i := 0; i < b.N; i++ {
		fig2 := exp.Fig2(o)
		sec74 := exp.Sec74MinCapacity(o)
		fig9 := exp.Fig9(o)

		mid := fig2.Points[2]
		t := metrics.NewTable("Table 1: summary of main evaluation results (measured at reduced scale)",
			"result", "paper", "measured")
		t.AddRow("allocation ~ bandwidth-proportional (f=0.5)", "~ideal", fmt.Sprintf("%.2f vs ideal 0.50", mid.With))
		t.AddRow("provisioning beyond ideal to serve all good", "15%",
			fmt.Sprintf("%.0f%%", 100*(sec74.MinCapacity/sec74.IdealCapacity-1)))
		t.AddRow("thinner sinks payment traffic", "1.5 Gbit/s @1500B",
			"see BenchmarkThinnerSink1500/120")
		t.AddRow("speak-up crowds out bottleneck bystanders", "up to ~6x",
			fmt.Sprintf("%.1fx @1KB", fig9.Points[0].InflationFactor))
		printOnce("table1", t)
		b.ReportMetric(mid.With, "allocAtHalf")
	}
}

func BenchmarkSec81ProfilingVsSpeakup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.Sec81SmartBots(benchOpts)
		printOnce("sec81", r.Table())
		for _, p := range r.Points {
			if p.Defense == "speak-up" && p.Bots == "smart (λ=6)" {
				b.ReportMetric(p.GoodAllocation, "speakupVsSmartBots")
			}
			if p.Defense == "profiling" && p.Bots == "smart (λ=6)" {
				b.ReportMetric(p.GoodAllocation, "profilingVsSmartBots")
			}
		}
	}
}

func BenchmarkSec9FlashCrowd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := exp.FlashCrowd(benchOpts)
		printOnce("flashcrowd", r.Table())
		b.ReportMetric(r.Points[1].MeanPriceKB, "crowdPriceKB")
	}
}
