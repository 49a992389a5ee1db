// Command e2ebench is the repository's end-to-end benchmark: one
// command, four named workloads, every metric printed by name with its
// unit, and correctness checks on every run.
//
//	bash e2ebench/run.sh --workload sim_sweep --seed 1 --seconds 10 --trace 0
//
// Workloads (see METRICS.md for why each was chosen and which layer
// metric should move which end-to-end metric):
//
//   - sim_sweep: fixed fig2/fig8 cells through the sweep engine.
//   - wire_flood: small CREDIT frames, paced, over two wire connections.
//   - http_flood: one held GET /request and paced POST /pay bodies.
//   - paced_attack: the paper's §7 setup, good and bad cohorts paced by
//     token buckets at G = B, open-loop Poisson arrivals.
//
// The benchmark drives the program only through its public calls
// (config/scenario/sweep on the simulator side; web.Front, wire.Server,
// wire.Client and loadgen.TokenBucket on the live side), and all traffic
// stays on loopback inside this one process. With --trace 0 it prints the
// end-to-end metrics of an untraced run. With --trace 1 it runs the
// workload twice — untraced, then traced with a CPU profile and the
// benchmark's own timers — and prints the per-layer metrics.
//
// Standard output ends with one JSON line {correct, attempted, failed,
// metrics}; the line before it records the seed, the host shape and the
// conditions of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The lists below
// are the ones BENCHMARK.json declares; the smoke test keeps the two
// in step.
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "1/s"},
	{"credited_bytes_per_s", "B/s"},
	{"admits_per_s", "1/s"},
	{"good_share", "fraction"},
	{"good_served_fraction", "fraction"},
	{"good_wait_p50_ms", "ms"},
	{"good_wait_p99_ms", "ms"},
}

var perLayer = []metricDef{
	// Work per process CPU-second, from the untraced half of the run.
	{"events_per_cpu_s", "1/cpu-s"},
	{"credited_bytes_per_cpu_s", "B/cpu-s"},
	{"admits_per_cpu_s", "1/cpu-s"},
	{"sweep.cell_s_p50", "s"},
	{"sweep.cell_s_max", "s"},
	{"sweep.worker_busy_frac", "fraction"},
	{"scenario.events", "count"},
	{"scenario.allocs_per_event", "count"},
	{"scenario.alloc_bytes_per_event", "B"},
	{"sim.cpu_frac", "fraction"},
	{"netsim.cpu_frac", "fraction"},
	{"tcpsim.cpu_frac", "fraction"},
	{"appsim.cpu_frac", "fraction"},
	{"clients.cpu_frac", "fraction"},
	{"server.cpu_frac", "fraction"},
	{"core.cpu_frac", "fraction"},
	{"core.wasted_frac", "fraction"},
	{"core.conservation_drift_bytes", "B"},
	{"core.auctions", "count"},
	{"core.admit_direct_frac", "fraction"},
	{"core.evictions", "count"},
	{"core.contenders_p50", "count"},
	{"core.open_channels_p50", "count"},
	{"core.price_kb_p50", "KB"},
	{"wire.cpu_frac", "fraction"},
	{"wire.frames", "count"},
	{"wire.bytes_per_frame", "B"},
	{"wire.client_credit_us_p50", "us"},
	{"wire.client_credit_us_p99", "us"},
	{"wire.teardowns", "count"},
	{"web.cpu_frac", "fraction"},
	{"nethttp.cpu_frac", "fraction"},
	{"web.post_s_p50", "s"},
	{"web.origin_gap_ms_p50", "ms"},
	{"web.origin_gap_ms_p99", "ms"},
	{"web.origin_busy_frac", "fraction"},
	{"loadgen.late_ms_p99", "ms"},
	{"loadgen.window_drops", "count"},
	{"loadgen.cpu_frac", "fraction"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"runtime.sys_cpu_frac", "fraction"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.heap_peak_mb", "MB"},
	{"process.cpu_util", "fraction"},
	{"good_wait.samples", "count"},
	{"fail_share", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// cpuRates are the per-layer metrics every workload measures alongside
// its end-to-end ones; the traced run takes them from its untraced half.
var cpuRates = []string{"events_per_cpu_s", "credited_bytes_per_cpu_s", "admits_per_cpu_s"}

// opts parameterizes one measured phase of a workload.
type opts struct {
	seed    int64
	measure time.Duration // length of the measured window
	traced  bool          // arm the benchmark's timers and samplers
	tiny    bool          // smoke-test sizing: every workload in well under a second
	workdir string
}

// report is what one measured phase of a workload produces.
type report struct {
	e2e   map[string]float64 // end-to-end metrics (every name in endToEnd) and cpuRates
	layer map[string]float64 // per-layer metrics measured by the workload itself
	// costPerOp is process CPU-seconds per unit of the workload's main
	// work (event, credited byte or admission); the traced run compares
	// it with the untraced run's to give trace.overhead_frac.
	costPerOp float64
	attempted int64
	failed    int64
	errs      []string       // correctness-check failures
	info      map[string]any // conditions: connections, goroutines, sample counts
}

func newReport() *report {
	return &report{
		e2e:   make(map[string]float64),
		layer: make(map[string]float64),
		info:  make(map[string]any),
	}
}

func (r *report) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

type workload struct {
	name string
	run  func(o opts) *report
}

var workloads = []workload{
	{"sim_sweep", runSimSweep},
	{"wire_flood", runWireFlood},
	{"http_flood", runHTTPFlood},
	{"paced_attack", runPacedAttack},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: sim_sweep, wire_flood, http_flood or paced_attack")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for CPU profiles")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload <sim_sweep|wire_flood|http_flood|paced_attack> --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o := opts{seed: *seed, measure: time.Duration(*seconds) * time.Second, workdir: *workdir}
	line, info, err := execute(w, o, *traced == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	infoJSON, _ := json.Marshal(map[string]any{"info": info})
	fmt.Println(string(infoJSON))
	out, _ := json.Marshal(line)
	fmt.Println(string(out))
}

// execute runs workload w once (untraced) or twice (untraced, then
// traced) and assembles the result line and the run's conditions.
func execute(w workload, o opts, traced bool) (resultLine, map[string]any, error) {
	info := hostInfo(w.name, o.seed)
	var rep *report
	if !traced {
		rep = w.run(o)
	} else {
		base := o
		base.measure = o.measure / 2
		plain := w.run(base)
		tr := base
		tr.traced = true
		prof, err := startProfile(o.workdir, w.name)
		if err != nil {
			return resultLine{}, nil, err
		}
		rep = w.run(tr)
		fracs, err := prof.stop()
		if err != nil {
			return resultLine{}, nil, err
		}
		for k, v := range fracs {
			rep.layer[k] = v
		}
		rep.layer["trace.overhead_frac"] = rep.costPerOp/plain.costPerOp - 1
		for _, k := range cpuRates {
			rep.layer[k] = plain.e2e[k]
		}
		rep.errs = append(rep.errs, plain.errs...)
		rep.attempted += plain.attempted
		rep.failed += plain.failed
	}
	for k, v := range rep.info {
		info[k] = v
	}
	if !traced {
		rates := make(map[string]float64, len(cpuRates))
		for _, k := range cpuRates {
			rates[k] = rep.e2e[k]
		}
		info["cpu_rates"] = rates
	}
	if len(rep.errs) > 0 {
		info["check_failures"] = rep.errs
		for _, e := range rep.errs {
			fmt.Fprintln(os.Stderr, "check failed:", e)
		}
	}
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layer
		if rep.attempted > 0 {
			vals["fail_share"] = float64(rep.failed) / float64(rep.attempted)
		}
	}
	line := resultLine{
		Correct:   len(rep.errs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			v = 0 // a layer this workload does not load
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			line.Correct = false
			info["check_failures"] = append(rep.errs, fmt.Sprintf("metric %s is not finite", d.name))
			v = 0
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if line.Attempted < 1 {
		line.Attempted = 1
		line.Correct = false
	}
	return line, info, nil
}

// hostInfo records the host shape and the conditions every result
// carries.
func hostInfo(name string, seed int64) map[string]any {
	return map[string]any{
		"workload":   name,
		"seed":       seed,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"network":    "loopback (127.0.0.1); no traffic leaves the host",
		"load_generator": "in-process: clients, thinner and origin share one process, " +
			"its CPU and its getrusage",
		"started": time.Now().UTC().Format(time.RFC3339),
	}
}

// quantile returns the nearest-rank q-quantile (0..1) of xs, sorting
// xs in place. It returns 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)) - 1e-9))
	rank = min(max(rank, 1), len(xs))
	return xs[rank-1]
}

// median returns the middle of xs (mean of the two middle values for
// an even count), sorting a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
