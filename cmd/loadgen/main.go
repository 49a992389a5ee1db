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
// The run is one scenario document (the internal/config schema shared
// with cmd/repro and cmd/thinnerd): the -scenario file, a disk path or
// an embedded configs/ name, or the embedded live_default when none is
// given. Every flag the user sets is written over that document: -good
// and -bad set the count of its only good or bad group (several groups
// of that kind make them an error), -bw sets every group's bandwidth,
// -attack and -aggro set every bad group's strategy and
// aggressiveness, and -post, -duration and -transport set their
// fields. The flag defaults fill what the document leaves unset (the
// duration, sizes.post, a group's bandwidth).
//
// Each declared group then runs as one cohort of its count, with the
// client process the simulator runs for the same group
// (scenario.ClientGroup.Spec, internal/adversary's implementations):
// a plain good group is the §7.1 good client, a plain bad group the
// poisson profile's flood, and a strategy group its profile at the
// λ/w it overrides. Coordinated strategies coordinate for real inside
// their cohort. -attack list prints the registry and exits.
//
// Per-second progress goes to stderr. The final summary — per-class
// service rates, admissions/sec, payment-ingest bits/sec, and latency
// percentiles — prints human-readable to stdout, or as one JSON
// object with -json (the shape scripts and dashboards consume). The
// summary adds the groups up into a good and a bad class, lists the
// bad groups' strategies under attack, and carries a config_hash: the
// short canonical hash of the resolved document, so results are
// attributable to one exact configuration.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"speakup"
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
	// Scenario names the document the run resolved from; ConfigHash is
	// the short canonical hash of the resolved document, the identity
	// telemetry and BENCH entries use.
	Scenario   string `json:"scenario,omitempty"`
	ConfigHash string `json:"config_hash"`
	// Attack lists the bad groups' strategies in declaration order,
	// comma-separated ("" = every bad group is the plain Poisson
	// flood); Aggressiveness is their scale when they share one.
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
	// Percentiles are per-client histograms merged by worst-case: a
	// class may mix groups, so report the max and no regression hides
	// behind a lucky client.
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
	var df docFlags
	df.register(flag.CommandLine)
	jsonOut := flag.Bool("json", false, "emit the final summary as JSON on stdout")
	retryBudget := flag.Int("retry-budget", 0, "max re-issues per request after a retryable failure (transport error, 502/503/504, eviction)")
	retryBase := flag.Duration("retry-base", 0, "backoff base between retries (default 200ms)")
	retryCap := flag.Duration("retry-cap", 0, "backoff cap between retries (default 5s)")
	reqTimeout := flag.Duration("req-timeout", 0, "per-request deadline covering the whole speak-up exchange (0 = none)")
	wireAddr := flag.String("wire-addr", "localhost:8081", "wire listener host:port (with -transport wire)")
	traceSample := flag.Int("trace-sample", 0, "mirror the server's -trace-sample rate to report which issued ids its tracer sampled (-json: sampled_request_ids)")
	flag.Parse()

	if df.attack == "list" {
		for _, name := range adversary.Names() {
			fmt.Printf("%-10s %s\n", name, adversary.Doc(name))
		}
		return
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	doc, err := df.resolve(set)
	if err != nil {
		log.Fatal(err)
	}
	run, err := doc.Config()
	if err != nil {
		log.Fatal(err)
	}
	trans := cmp.Or(run.Transport, "http")
	configHash := config.ShortHash(doc)

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

	frontDesc := *url
	if trans == "wire" {
		frontDesc = fmt.Sprintf("wire front %s (healthz via %s)", *wireAddr, *url)
	}
	log.Printf("load: scenario %s (config %s) against %s over %s", doc.Name, configHash, frontDesc, trans)

	// Each group runs as one cohort of its clients, in declaration
	// order; seeds number the clients across groups.
	var ids atomic.Uint64
	var good, bad, all []*loadgen.Client
	var attacks []string
	var aggros []float64
	for _, g := range run.Groups {
		spec := g.Spec()
		cohort := adversary.NewCohort(spec, g.Count)
		for i := 0; i < g.Count; i++ {
			c := loadgen.NewClient(loadgen.Config{
				BaseURL: *url, Strategy: spec.New(cohort),
				UploadBits: g.Bandwidth, PostBytes: run.Sizes.Post, Seed: int64(len(all) + 1),
				RetryBudget: *retryBudget, RetryBase: *retryBase, RetryCap: *retryCap,
				RequestTimeout: *reqTimeout,
				Transport:      trans, WireAddr: *wireAddr,
				TraceSample: *traceSample,
			}, &ids)
			all = append(all, c)
			if g.Good {
				good = append(good, c)
			} else {
				bad = append(bad, c)
			}
			c.Run()
		}
		if !g.Good && g.Strategy != "" {
			attacks = append(attacks, g.Strategy)
			aggros = append(aggros, cmp.Or(g.Aggressiveness, 1))
		}
		log.Printf("group %s (good=%t): %d %s clients at %.1f Mbit/s",
			g.Name, g.Good, g.Count, spec.Name, g.Bandwidth/1e6)
	}

	start := time.Now()
	for time.Since(start) < run.Duration {
		time.Sleep(time.Second)
		gi, gs, _ := tally(good)
		bi, bs, _ := tally(bad)
		fmt.Fprintf(os.Stderr, "t=%3.0fs  good %d/%d served   bad %d/%d served\n",
			time.Since(start).Seconds(), gs, gi, bs, bi)
	}
	for _, c := range all {
		c.Stop()
	}
	elapsed := time.Since(start)

	sum := summaryJSON{
		URL:         *url,
		Scenario:    doc.Name,
		ConfigHash:  configHash,
		Attack:      strings.Join(attacks, ","),
		DurationSec: elapsed.Seconds(),
		Good:        classSummary(good, elapsed),
		Bad:         classSummary(bad, elapsed),
	}
	if aggros = slices.Compact(aggros); len(aggros) == 1 {
		sum.Aggressiveness = aggros[0]
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
		for _, c := range all {
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
