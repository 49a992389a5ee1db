// Command loadgen drives a thinnerd instance with the paper's client
// workloads over real sockets: good clients (low rate, one
// outstanding request) and bad clients (high rate, many outstanding),
// each shaped to an access-link bandwidth by a token bucket.
//
// Usage:
//
//	loadgen [-url http://localhost:8080] [-good 3] [-bad 3]
//	        [-bw 2e6] [-post 1048576] [-duration 30s] [-json]
//	        [-attack <profile>] [-aggro 1.5] [-scenario <file>]
//	        [-retry-budget 3] [-retry-base 200ms] [-retry-cap 5s]
//	        [-req-timeout 30s] [-transport http|wire]
//	        [-wire-addr localhost:8081]
//
// -transport selects which front the clients drive: "http" (the
// default GET /request + POST /pay exchange) or "wire", the binary
// framed payment transport served by thinnerd's -wire-addr listener
// (OPEN/CREDIT frames multiplexed over persistent TCP). Scenario
// files may set a transport; the flag overrides. The /healthz
// reachability probe always goes over HTTP.
//
// At startup the generator probes the front's /healthz once and exits
// non-zero with a one-line error if the front is unreachable (any HTTP
// response, even a degraded 503, counts as reachable). -retry-budget
// lets clients re-issue requests after retryable failures (transport
// errors, 502/503/504, evictions) with bounded jittered exponential
// backoff, honoring Retry-After; -req-timeout bounds each request's
// whole speak-up exchange.
//
// Every client runs an adversary strategy (internal/adversary, the
// same implementations that drive the simulator), one cohort per
// class so coordinated strategies coordinate for real. By default
// both classes run the poisson profile: good clients at λ=2, w=1, bad
// ones at λ=40, w=20 (§7.1). With -attack, the bad clients run the
// named profile instead (onoff, mimic, defector, flood, adaptive,
// poisson) at its own default rate and window. -attack list prints
// the registry and exits.
//
// With -scenario, the client workload comes from a declarative
// scenario file (the internal/config schema shared with cmd/repro and
// cmd/thinnerd; a disk path, or an embedded configs/ name): good
// groups set the good class's count, rate, window, and bandwidth; the
// first bad group sets the bad class's — including its adversary
// strategy, whose rate and window it overrides only where it sets
// them — and sizes.post sets the payment POST size. Explicit flags
// override the file.
//
// Per-second progress goes to stderr. The final summary — per-class
// service rates, admissions/sec, payment-ingest bits/sec, and latency
// percentiles — prints human-readable to stdout, or as one JSON
// object with -json (the shape scripts and dashboards consume).
// The JSON carries the attack profile and a config_hash: the short
// canonical hash of the resolved workload (scenario file or synthetic
// flag-built document), so results are attributable to one exact
// configuration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"speakup"
	"speakup/configs"
	"speakup/internal/adversary"
	"speakup/internal/config"
	"speakup/internal/loadgen"
)

// classJSON summarizes one client class.
type classJSON struct {
	Clients       int     `json:"clients"`
	Issued        uint64  `json:"issued"`
	Offered       uint64  `json:"offered"`
	Served        uint64  `json:"served"`
	Failed        uint64  `json:"failed"`
	Retried       uint64  `json:"retried"`
	SuccessRate   float64 `json:"success_rate"`
	PaidBytes     int64   `json:"paid_bytes"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyP90Ms  float64 `json:"latency_p90_ms"`
	LatencyP99Ms  float64 `json:"latency_p99_ms"`
	LatencyP999Ms float64 `json:"latency_p999_ms"`
	LatencyMaxMs  float64 `json:"latency_max_ms"`
	LatencyMeanMs float64 `json:"latency_mean_ms"`
	// Per-class rates so one attack profile's admission/ingest numbers
	// can be compared across runs without re-deriving them.
	AdmissionsPerSec  float64 `json:"admissions_per_sec"`
	PaymentBitsPerSec float64 `json:"payment_ingest_bits_per_sec"`
}

// summaryJSON is the -json output shape.
type summaryJSON struct {
	URL string `json:"url"`
	// Scenario names the file the workload came from ("" = built from
	// flags); ConfigHash is the short canonical hash of the resolved
	// workload document, the identity telemetry and BENCH entries use.
	Scenario   string `json:"scenario,omitempty"`
	ConfigHash string `json:"config_hash"`
	// Attack names the adversary profile the bad clients ran ("" =
	// the default fixed Poisson flood); Aggressiveness is its scale.
	Attack            string    `json:"attack,omitempty"`
	Aggressiveness    float64   `json:"aggressiveness,omitempty"`
	DurationSec       float64   `json:"duration_sec"`
	Good              classJSON `json:"good"`
	Bad               classJSON `json:"bad"`
	AdmissionsPerSec  float64   `json:"admissions_per_sec"`
	PaymentBitsPerSec float64   `json:"payment_ingest_bits_per_sec"`
	// Transport names the front the clients drove ("http" or "wire");
	// IngestByTransport splits the payment ingest rate by transport so
	// mixed dashboards can attribute bytes to the right listener (one
	// loadgen run drives a single transport, so the other key is 0).
	Transport         string             `json:"transport"`
	IngestByTransport map[string]float64 `json:"payment_ingest_bits_per_sec_by_transport"`
	// TraceSample echoes -trace-sample; SampledRequestIDs are the
	// issued ids the server's tracer co-sampled at that rate (the
	// predicate is shared), so each is joinable against the server's
	// /trace?id=N record. Absent when sampling is off.
	TraceSample       int      `json:"trace_sample,omitempty"`
	SampledRequestIDs []uint64 `json:"sampled_request_ids,omitempty"`
}

func tally(cs []*loadgen.Client) (issued, served uint64, paid int64) {
	for _, c := range cs {
		issued += c.Stats.Issued.Load()
		served += c.Stats.Served.Load()
		paid += c.Stats.PaidBytes.Load()
	}
	return
}

func classSummary(cs []*loadgen.Client, elapsed time.Duration) classJSON {
	var out classJSON
	out.Clients = len(cs)
	// Percentiles are per-client histograms merged by worst-case: with
	// identical configs inside a class the spread is small; report the
	// max so regressions cannot hide behind a lucky client.
	for _, c := range cs {
		out.Issued += c.Stats.Issued.Load()
		out.Offered += c.Stats.Offered()
		out.Served += c.Stats.Served.Load()
		out.Failed += c.Stats.Failed.Load()
		out.Retried += c.Stats.Retried.Load()
		out.PaidBytes += c.Stats.PaidBytes.Load()
		out.LatencyP50Ms = max(out.LatencyP50Ms, ms(c.Stats.Latency.Quantile(0.50)))
		out.LatencyP90Ms = max(out.LatencyP90Ms, ms(c.Stats.Latency.Quantile(0.90)))
		out.LatencyP99Ms = max(out.LatencyP99Ms, ms(c.Stats.Latency.Quantile(0.99)))
		out.LatencyP999Ms = max(out.LatencyP999Ms, ms(c.Stats.Latency.Quantile(0.999)))
		out.LatencyMaxMs = max(out.LatencyMaxMs, ms(c.Stats.Latency.Max()))
		out.LatencyMeanMs = max(out.LatencyMeanMs, ms(c.Stats.Latency.Mean()))
	}
	if out.Issued > 0 {
		out.SuccessRate = float64(out.Served) / float64(out.Issued)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		out.AdmissionsPerSec = float64(out.Served) / sec
		out.PaymentBitsPerSec = float64(out.PaidBytes) * 8 / sec
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func main() {
	url := flag.String("url", "http://localhost:8080", "thinner base URL")
	nGood := flag.Int("good", 3, "number of good clients (λ=2, w=1)")
	nBad := flag.Int("bad", 3, "number of bad clients (λ=40, w=20)")
	bw := flag.Float64("bw", 2e6, "per-client upload bandwidth (bits/s)")
	post := flag.Int("post", 1<<20, "payment POST size (bytes)")
	duration := flag.Duration("duration", 30*time.Second, "run length")
	jsonOut := flag.Bool("json", false, "emit the final summary as JSON on stdout")
	attack := flag.String("attack", "", "adversary profile for the bad clients (see -attack list)")
	aggro := flag.Float64("aggro", 1, "attack aggressiveness scale (with -attack)")
	scenarioFile := flag.String("scenario", "", "scenario file supplying the client workload (disk path or embedded configs/ name); explicit flags override")
	retryBudget := flag.Int("retry-budget", 0, "max re-issues per request after a retryable failure (transport error, 502/503/504, eviction)")
	retryBase := flag.Duration("retry-base", 0, "backoff base between retries (default 200ms)")
	retryCap := flag.Duration("retry-cap", 0, "backoff cap between retries (default 5s)")
	reqTimeout := flag.Duration("req-timeout", 0, "per-request deadline covering the whole speak-up exchange (0 = none)")
	transport := flag.String("transport", "http", "front to drive: http (GET/POST) or wire (binary framed payment transport)")
	wireAddr := flag.String("wire-addr", "localhost:8081", "wire listener host:port (with -transport wire)")
	traceSample := flag.Int("trace-sample", 0, "mirror the server's -trace-sample rate to report which issued ids its tracer sampled (-json: sampled_request_ids)")
	flag.Parse()

	if *attack == "list" {
		for _, name := range adversary.Names() {
			fmt.Printf("%-10s %s\n", name, adversary.Doc(name))
		}
		return
	}

	flags := workload{
		good: class{n: *nGood, bw: *bw}, bad: class{n: *nBad, bw: *bw},
		attack: *attack, aggro: *aggro, post: *post, dur: *duration, transport: *transport,
	}
	var doc *config.Scenario
	if *scenarioFile != "" {
		d, err := config.Resolve(configs.FS, *scenarioFile)
		if err != nil {
			log.Fatalf("scenario: %v", err)
		}
		if d.Name == "" {
			d.Name = *scenarioFile
		}
		doc = &d
	}
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	wl, err := resolve(flags, doc, explicit)
	if err != nil {
		log.Fatal(err)
	}
	trans, dur := wl.transport, wl.dur
	configHash := config.ShortHash(wl.effective())

	// Fail fast if the front is not there at all: a generator pointed at
	// nothing would otherwise run the full duration reporting 0/0. Any
	// HTTP response — even a brownout 503 — counts as reachable; only a
	// transport-level failure aborts.
	probe := &http.Client{Timeout: 5 * time.Second}
	if resp, err := probe.Get(*url + "/healthz"); err != nil {
		log.Fatalf("front unreachable: %v", err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if trans == "wire" {
		wc, err := speakup.DialWire(*wireAddr)
		if err != nil {
			log.Fatalf("wire front unreachable at %s: %v (is thinnerd running with -wire-addr?)", *wireAddr, err)
		}
		wc.Close()
	}

	var ids atomic.Uint64
	run := func(cl class, goodClass bool, seed int64) []*loadgen.Client {
		cohort := adversary.NewCohort(cl.spec, cl.n)
		var out []*loadgen.Client
		for i := 0; i < cl.n; i++ {
			c := loadgen.NewClient(loadgen.Config{
				BaseURL: *url, Strategy: cl.spec.New(cohort), Good: goodClass,
				UploadBits: cl.bw, PostBytes: wl.post, Seed: seed + int64(i),
				RetryBudget: *retryBudget, RetryBase: *retryBase, RetryCap: *retryCap,
				RequestTimeout: *reqTimeout,
				Transport:      trans, WireAddr: *wireAddr,
				TraceSample: *traceSample,
			}, &ids)
			out = append(out, c)
			c.Run()
		}
		return out
	}
	good := run(wl.good, true, 1)
	bad := run(wl.bad, false, 1000)
	profile := "poisson flood (default)"
	if wl.attack != "" {
		profile = fmt.Sprintf("%s x%.2g", wl.attack, wl.aggro)
	}
	frontDesc := *url
	if trans == "wire" {
		frontDesc = fmt.Sprintf("wire front %s (healthz via %s)", *wireAddr, *url)
	}
	log.Printf("load: %d good + %d bad clients [%s] at %.1f/%.1f Mbit/s against %s over %s (config %s)",
		wl.good.n, wl.bad.n, profile, wl.good.bw/1e6, wl.bad.bw/1e6, frontDesc, trans, configHash)

	start := time.Now()
	for time.Since(start) < dur {
		time.Sleep(time.Second)
		gi, gs, _ := tally(good)
		bi, bs, _ := tally(bad)
		fmt.Fprintf(os.Stderr, "t=%3.0fs  good %d/%d served   bad %d/%d served\n",
			time.Since(start).Seconds(), gs, gi, bs, bi)
	}
	for _, c := range append(append([]*loadgen.Client{}, good...), bad...) {
		c.Stop()
	}
	elapsed := time.Since(start)

	sum := summaryJSON{
		URL:         *url,
		Scenario:    wl.scenario,
		ConfigHash:  configHash,
		Attack:      wl.attack,
		DurationSec: elapsed.Seconds(),
		Good:        classSummary(good, elapsed),
		Bad:         classSummary(bad, elapsed),
	}
	if wl.attack != "" {
		sum.Aggressiveness = wl.aggro
	}
	served := sum.Good.Served + sum.Bad.Served
	paid := sum.Good.PaidBytes + sum.Bad.PaidBytes
	sum.AdmissionsPerSec = float64(served) / elapsed.Seconds()
	sum.PaymentBitsPerSec = float64(paid) * 8 / elapsed.Seconds()
	sum.Transport = trans
	sum.IngestByTransport = map[string]float64{"http": 0, "wire": 0}
	sum.IngestByTransport[trans] = sum.PaymentBitsPerSec
	if *traceSample > 0 {
		sum.TraceSample = *traceSample
		for _, c := range append(append([]*loadgen.Client{}, good...), bad...) {
			sum.SampledRequestIDs = append(sum.SampledRequestIDs, c.SampledIDs()...)
		}
		slices.Sort(sum.SampledRequestIDs)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Printf("\nfinal: good served %d/%d (paid %.1f MB)   bad served %d/%d (paid %.1f MB)\n",
		sum.Good.Served, sum.Good.Issued, float64(sum.Good.PaidBytes)/1e6,
		sum.Bad.Served, sum.Bad.Issued, float64(sum.Bad.PaidBytes)/1e6)
	if sum.Good.Issued > 0 && sum.Bad.Issued > 0 {
		fmt.Printf("per-request success: good %.2f vs bad %.2f\n",
			sum.Good.SuccessRate, sum.Bad.SuccessRate)
	}
	if sum.Good.Retried+sum.Bad.Retried > 0 {
		fmt.Printf("retries: good %d, bad %d (budget %d)\n",
			sum.Good.Retried, sum.Bad.Retried, *retryBudget)
	}
	fmt.Printf("throughput: %.1f admissions/sec, payment ingest %.1f Mbit/s over the %s front\n",
		sum.AdmissionsPerSec, sum.PaymentBitsPerSec/1e6, trans)
	fmt.Printf("latency (ms): good p50=%.0f p90=%.0f p99=%.0f p99.9=%.0f max=%.0f   bad p50=%.0f p90=%.0f p99=%.0f p99.9=%.0f max=%.0f\n",
		sum.Good.LatencyP50Ms, sum.Good.LatencyP90Ms, sum.Good.LatencyP99Ms,
		sum.Good.LatencyP999Ms, sum.Good.LatencyMaxMs,
		sum.Bad.LatencyP50Ms, sum.Bad.LatencyP90Ms, sum.Bad.LatencyP99Ms,
		sum.Bad.LatencyP999Ms, sum.Bad.LatencyMaxMs)
}
