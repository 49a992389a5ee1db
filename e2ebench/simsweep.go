package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"speakup/configs"
	"speakup/internal/appsim"
	"speakup/internal/config"
	"speakup/internal/metrics"
	"speakup/internal/scenario"
	"speakup/internal/sweep"
)

// simCell is one fixed cell of the sim_sweep grid: a shipped scenario
// file with, optionally, its groups' client counts overridden the way
// the figure drivers sweep them.
type simCell struct {
	name   string
	file   string
	counts []int // per-group client counts; nil keeps the file's
}

// simCells spans the paper's allocation figure at three good-client
// fractions and the shared-bottleneck figure at its base split.
var simCells = []simCell{
	{"fig2/f=0.2", "fig2", []int{10, 40}},
	{"fig2/f=0.5", "fig2", nil},
	{"fig2/f=0.8", "fig2", []int{40, 10}},
	{"fig8/5g+25b", "fig8", nil},
}

const (
	simDuration      = 20 * time.Second // virtual seconds per cell
	simTinyDuration  = 300 * time.Millisecond
	simSetupDuration = time.Millisecond // virtual: the deployment build dominates
	simSetupBuilds   = 20               // grid builds per set-up sample
	setupRepeats     = 5
)

// simRuns resolves, validates and seeds the fixed grid. Cell i's seed is
// derived from the workload seed, so the same seed gives the same grid.
func simRuns(seed int64, dur time.Duration) ([]sweep.Run, error) {
	runs := make([]sweep.Run, 0, len(simCells))
	for i, c := range simCells {
		doc, err := config.Resolve(configs.FS, c.file)
		if err != nil {
			return nil, err
		}
		if err := doc.Validate(); err != nil {
			return nil, err
		}
		cfg, err := doc.Config()
		if err != nil {
			return nil, err
		}
		if c.counts != nil {
			if len(c.counts) != len(cfg.Groups) {
				return nil, fmt.Errorf("cell %s: %d counts for %d groups", c.name, len(c.counts), len(cfg.Groups))
			}
			for g, n := range c.counts {
				cfg.Groups[g].Count = n
			}
		}
		cfg.Seed = seed*int64(len(simCells)) + int64(i) + 1
		cfg.Duration = dur
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("cell %s: %w", c.name, err)
		}
		runs = append(runs, sweep.Run{Name: c.name, Config: cfg})
	}
	return runs, nil
}

// simRound is one pass of the grid through the sweep engine.
type simRound struct {
	results []sweep.Result // dropped after the first round
	cells   []float64      // seconds per cell
	win     *window
	events  uint64
	admits  uint64
	settled int64 // payment bytes the simulated thinners settled
	digest  string
}

func sweepRound(runs []sweep.Run, workers int) *simRound {
	r := &simRound{win: openWindow()}
	r.results = sweep.Engine{Workers: workers}.Sweep(runs)
	r.win.close()
	h := sha256.New()
	for _, res := range r.results {
		s := res.Result
		r.events += s.Events
		r.admits += s.ThinnerStats.Admitted
		r.settled += s.ThinnerStats.PaidBytes + s.ThinnerStats.WastedBytes
		r.cells = append(r.cells, res.Elapsed.Seconds())
		fmt.Fprintf(h, "cell %s\n%s", res.Name, digest(s))
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r
}

func runSimSweep(o opts) *report {
	rep := newReport()
	workers := runtime.GOMAXPROCS(0)
	dur := simDuration
	if o.tiny {
		dur = simTinyDuration
	}
	runs, err := simRuns(o.seed, dur)
	if err != nil {
		rep.fail("sim_sweep: %v", err)
		return rep
	}

	// Set-up: resolve and validate the configs, then build every cell's
	// deployment (a run of near-zero virtual length), serially, several
	// times over so the sample is long enough to repeat. One untimed
	// set-up warms the process; then one sample is taken before each
	// round of the grid, so their median spans the whole run rather
	// than its first second. Each sample starts from a collected heap,
	// and only the first round keeps its full results, so a sample does
	// not pay for marking what earlier rounds left behind.
	setupOnce := func() time.Duration {
		start := time.Now()
		for i := 0; i < simSetupBuilds; i++ {
			short, err := simRuns(o.seed, simSetupDuration)
			if err != nil {
				rep.fail("sim_sweep setup: %v", err)
				break
			}
			for _, r := range short {
				scenario.Run(r.Config)
			}
		}
		return time.Since(start)
	}
	setupOnce()

	checkGolden(rep)

	var heap *heapPeak
	if o.traced {
		heap = startHeapPeak(10 * time.Millisecond)
	}
	var rounds []*simRound
	var setups []float64
	start := time.Now()
	for len(rounds) < 2 || len(setups) < setupRepeats || time.Since(start) < o.measure {
		runtime.GC()
		setups = append(setups, setupOnce().Seconds())
		r := sweepRound(runs, workers)
		if len(rounds) > 0 {
			r.results = nil
		}
		rounds = append(rounds, r)
	}
	rep.e2e["setup_s"] = median(setups)
	rep.info["setup_samples_s"] = setups
	first := rounds[0]
	for i, r := range rounds[1:] {
		if r.digest != first.digest {
			rep.fail("sim_sweep: round %d digest %s differs from round 0 %s: the simulator is not deterministic",
				i+1, r.digest, first.digest)
		}
	}
	checkRecorded(rep, o.seed, dur, first)

	var evRate, evCPU, byRate, byCPU, adRate, adCPU, cellP50, cellMax, busy, allocs, allocB []float64
	for _, r := range rounds {
		wall, cpu := r.win.wall.Seconds(), r.win.cpu.Seconds()
		evRate = append(evRate, float64(r.events)/wall)
		evCPU = append(evCPU, float64(r.events)/cpu)
		byRate = append(byRate, float64(r.settled)/wall)
		byCPU = append(byCPU, float64(r.settled)/cpu)
		adRate = append(adRate, float64(r.admits)/wall)
		adCPU = append(adCPU, float64(r.admits)/cpu)
		var sum float64
		for _, c := range r.cells {
			sum += c
		}
		cellMax = append(cellMax, quantile(r.cells, 1))
		cellP50 = append(cellP50, median(r.cells))
		busy = append(busy, sum/(float64(min(workers, len(runs)))*wall))
		allocs = append(allocs, float64(r.win.allocs)/float64(r.events))
		allocB = append(allocB, float64(r.win.allocB)/float64(r.events))
	}
	rep.e2e["events_per_s"] = median(evRate)
	rep.e2e["events_per_cpu_s"] = median(evCPU)
	rep.e2e["credited_bytes_per_s"] = median(byRate)
	rep.e2e["credited_bytes_per_cpu_s"] = median(byCPU)
	rep.e2e["admits_per_s"] = median(adRate)
	rep.e2e["admits_per_cpu_s"] = median(adCPU)
	rep.costPerOp = 1 / median(evCPU)

	// The paper's observables, pooled over every cell of the first
	// round (later rounds are identical).
	var goodServed, allServed, goodOffered, goodDone uint64
	var waits, prices []float64
	var st struct{ admitted, direct, auctions, evicted, wasted, paid float64 }
	for _, res := range first.results {
		s := res.Result
		goodServed += s.ServedGood
		allServed += s.ServedGood + s.ServedBad
		for gi := range s.Groups {
			g := &s.Groups[gi]
			prices = append(prices, sampleValues(&g.Prices)...)
			if !g.Good {
				continue
			}
			goodOffered += g.Offered()
			goodDone += g.Served
			waits = append(waits, sampleValues(&g.Latencies)...)
		}
		t := s.ThinnerStats
		st.admitted += float64(t.Admitted)
		st.direct += float64(t.AdmittedDirect)
		st.auctions += float64(t.Auctions)
		st.evicted += float64(t.Evicted)
		st.wasted += float64(t.WastedBytes)
		st.paid += float64(t.PaidBytes)
	}
	rep.e2e["good_share"] = float64(goodServed) / float64(allServed)
	rep.e2e["good_served_fraction"] = float64(goodDone) / float64(goodOffered)
	rep.e2e["good_wait_p50_ms"] = quantile(waits, 0.50) * 1e3
	rep.e2e["good_wait_p99_ms"] = quantile(waits, 0.99) * 1e3
	rep.info["good_wait_samples"] = len(waits)
	rep.info["wait_clock"] = "simulated time, request issue to served response"
	rep.info["cells"] = len(runs)
	rep.info["virtual_seconds_per_cell"] = dur.Seconds()
	rep.info["rounds"] = len(rounds)
	rep.info["workers"] = workers
	rep.info["connections"] = 0
	rep.info["goroutines"] = min(workers, len(runs)) // sweep workers
	rep.info["digest"] = first.digest
	rep.attempted = int64(len(rounds) * len(runs))

	l := rep.layer
	l["sweep.cell_s_p50"] = median(cellP50)
	l["sweep.cell_s_max"] = median(cellMax)
	l["sweep.worker_busy_frac"] = median(busy)
	l["scenario.events"] = float64(first.events)
	l["scenario.allocs_per_event"] = median(allocs)
	l["scenario.alloc_bytes_per_event"] = median(allocB)
	l["runtime.allocs_per_op"] = median(allocs)
	l["core.wasted_frac"] = st.wasted / (st.wasted + st.paid)
	l["core.auctions"] = st.auctions
	l["core.admit_direct_frac"] = st.direct / st.admitted
	l["core.evictions"] = st.evicted
	l["core.price_kb_p50"] = quantile(prices, 0.50) / 1e3
	l["good_wait.samples"] = float64(len(waits))
	var cpu, wall float64
	for _, r := range rounds {
		cpu += r.win.cpu.Seconds()
		wall += r.win.wall.Seconds()
	}
	l["process.cpu_util"] = cpu / (wall * float64(runtime.NumCPU()))
	if heap != nil {
		l["runtime.heap_peak_mb"] = heap.stopMB()
	}
	return rep
}

// sampleValues recovers a sample's observations in ascending order:
// metrics.Sample answers exact nearest-rank percentiles, and rank k of
// n is the k-th smallest value.
func sampleValues(s *metrics.Sample) []float64 {
	n := s.N()
	out := make([]float64, n)
	for k := 1; k <= n; k++ {
		out[k-1] = s.Percentile(100 * float64(k) / float64(n))
	}
	return out
}

// hexF formats a float64 losslessly, as the golden files do.
func hexF(x float64) string { return strconv.FormatFloat(x, 'x', -1, 64) }

func digestSample(b *strings.Builder, name string, s *metrics.Sample) {
	fmt.Fprintf(b, "%s: n=%d sum=%s min=%s max=%s\n",
		name, s.N(), hexF(s.Sum()), hexF(s.Min()), hexF(s.Max()))
}

// digest renders every observable of a run with full precision, in the
// format of the repository's testdata/golden files.
func digest(r *scenario.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d\n", r.Events)
	fmt.Fprintf(&b, "servedGood=%d servedBad=%d\n", r.ServedGood, r.ServedBad)
	fmt.Fprintf(&b, "goodAllocation=%s fractionGoodServed=%s\n",
		hexF(r.GoodAllocation), hexF(r.FractionGoodServed))
	for i := range r.Groups {
		g := &r.Groups[i]
		fmt.Fprintf(&b, "group %s good=%v clients=%d gen=%d issued=%d served=%d failed=%d denied=%d paidBytes=%d servedWork=%v\n",
			g.Name, g.Good, g.Clients, g.Generated, g.Issued, g.Served, g.Failed, g.Denied, g.PaidBytes, g.ServedWork)
		digestSample(&b, "  latencies", &g.Latencies)
		digestSample(&b, "  payTimes", &g.PayTimes)
		digestSample(&b, "  prices", &g.Prices)
	}
	t := r.ThinnerStats
	fmt.Fprintf(&b, "thinner: admitted=%d direct=%d auctions=%d evicted=%d wasted=%d paid=%d\n",
		t.Admitted, t.AdmittedDirect, t.Auctions, t.Evicted, t.WastedBytes, t.PaidBytes)
	s := r.ServerStats
	fmt.Fprintf(&b, "server: served=%d aborted=%d suspends=%d resumes=%d busy=%v work=%v\n",
		s.Served, s.Aborted, s.Suspends, s.Resumes, s.BusyTime, s.TotalWork)
	if r.BystanderLatencies != nil {
		digestSample(&b, "bystander", r.BystanderLatencies)
	}
	return b.String()
}

// repoFile finds a repository file from the repository root (the
// benchmark's working directory) or from e2ebench/ (its tests').
func repoFile(rel string) string {
	if _, err := os.Stat(rel); err == nil {
		return rel
	}
	return filepath.Join("..", rel)
}

// checkGolden runs the one golden configuration that is a plain
// auction deployment and compares its digest with the repository's
// pinned output.
func checkGolden(rep *report) {
	want, err := os.ReadFile(repoFile("testdata/golden/auction_seed42.txt"))
	if err != nil {
		rep.fail("golden: %v", err)
		return
	}
	got := digest(scenario.Run(scenario.Config{
		Seed: 42, Duration: 6 * time.Second, Capacity: 30,
		Mode: appsim.ModeAuction,
		Groups: []scenario.ClientGroup{
			{Count: 4, Good: true},
			{Count: 6, Good: false},
		},
	}))
	if got != string(want) {
		rep.fail("golden: auction_seed42 digest differs from testdata/golden/auction_seed42.txt\n--- got ---\n%s", got)
	}
}

// recorded holds the grid's digest and event count per seed, written
// by `go test -run TestRecordSimSeeds -record` in this directory.
type recorded struct {
	VirtualSeconds float64                 `json:"virtual_seconds_per_cell"`
	Seeds          map[string]recordedSeed `json:"seeds"`
}

type recordedSeed struct {
	Events uint64 `json:"events"`
	Digest string `json:"digest"`
}

const recordedPath = "e2ebench/testdata/sim_recorded.json"

func loadRecorded() (recorded, error) {
	var rec recorded
	raw, err := os.ReadFile(repoFile(recordedPath))
	if err != nil {
		raw, err = os.ReadFile(filepath.Join("testdata", filepath.Base(recordedPath)))
	}
	if err != nil {
		return rec, err
	}
	err = json.Unmarshal(raw, &rec)
	return rec, err
}

// checkRecorded compares the first round with the values recorded for
// this seed, when the seed was recorded at this duration.
func checkRecorded(rep *report, seed int64, dur time.Duration, r *simRound) {
	rec, err := loadRecorded()
	if err != nil {
		rep.fail("recorded sim values: %v", err)
		return
	}
	want, ok := rec.Seeds[strconv.FormatInt(seed, 10)]
	if !ok || rec.VirtualSeconds != dur.Seconds() {
		rep.info["recorded_seed"] = false
		return
	}
	rep.info["recorded_seed"] = true
	if want.Events != r.events || want.Digest != r.digest {
		rep.fail("sim_sweep seed %d: events %d digest %s, recorded events %d digest %s",
			seed, r.events, r.digest, want.Events, want.Digest)
	}
}
