package web

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"speakup/internal/core"
	"speakup/internal/metrics"
	"speakup/internal/trace"
)

// newTracedFront is newTestFront with lifecycle tracing armed at
// sample 1 (every id), so single requests reliably produce traces.
func newTracedFront(t *testing.T, delay time.Duration) (*Front, *httptest.Server) {
	t.Helper()
	origin := &slowOrigin{delay: delay}
	front := NewFront(origin, Config{
		PayPollInterval: 10 * time.Millisecond,
		Thinner: core.Config{
			OrphanTimeout: 500 * time.Millisecond,
			SweepInterval: 100 * time.Millisecond,
		},
		Trace: trace.Config{Sample: 1},
	})
	srv := httptest.NewServer(front)
	t.Cleanup(func() {
		srv.Close()
		front.Close()
	})
	return front, srv
}

// promSample is one parsed exposition line: name, label pairs, value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm parses Prometheus text exposition format far enough to
// validate our own output: HELP/TYPE metadata per family plus every
// sample line. It fails the test on any line it cannot parse.
func parseProm(t *testing.T, body string) (help, typ map[string]string, samples []promSample) {
	t.Helper()
	help = make(map[string]string)
	typ = make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, h, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed HELP line: %q", line)
			}
			help[name] = h
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typ[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		nameAndLabels, raw, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		s := promSample{name: nameAndLabels, labels: map[string]string{}, value: v}
		if name, rest, ok := strings.Cut(nameAndLabels, "{"); ok {
			s.name = name
			rest = strings.TrimSuffix(rest, "}")
			for _, pair := range strings.Split(rest, ",") {
				k, v, ok := strings.Cut(pair, "=")
				if !ok {
					t.Fatalf("bad label pair %q in %q", pair, line)
				}
				s.labels[k] = strings.Trim(v, `"`)
			}
		}
		samples = append(samples, s)
	}
	return help, typ, samples
}

// histFamily strips the _bucket/_sum/_count suffix a histogram sample
// carries, returning the family name and which series it belongs to.
func histFamily(name string) (family, series string) {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if f, ok := strings.CutSuffix(name, suf); ok {
			return f, suf
		}
	}
	return name, ""
}

func TestMetricsExposition(t *testing.T) {
	_, srv := newTracedFront(t, 5*time.Millisecond)
	// One served request so the counters and the wait-to-admit
	// histogram have something in them.
	get(t, srv.URL+"/request?id=7")

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	bodyB := make([]byte, 1<<20)
	n, _ := resp.Body.Read(bodyB)
	resp.Body.Close()
	body := string(bodyB[:n])
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text exposition 0.0.4", ct)
	}

	help, typ, samples := parseProm(t, body)
	if len(samples) == 0 {
		t.Fatal("no samples in /metrics output")
	}

	// Every sample's family must carry HELP and TYPE metadata, and
	// histogram series must be declared as histograms.
	for _, s := range samples {
		family, series := histFamily(s.name)
		if series != "" && typ[family] != "histogram" {
			// A _count suffix on a plain counter is fine only if the
			// full name is its own family.
			if _, ok := typ[s.name]; ok {
				family = s.name
			}
		}
		if help[family] == "" {
			t.Errorf("sample %s: family %s has no HELP line", s.name, family)
		}
		if typ[family] == "" {
			t.Errorf("sample %s: family %s has no TYPE line", s.name, family)
		}
	}

	// The deployment gauges and trace counters must be present.
	byName := map[string][]promSample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}
	for _, want := range []string{
		"speakup_admitted_total", "speakup_uptime_seconds", "speakup_gomaxprocs",
		"speakup_wire_ingest_bytes_total", "speakup_trace_sample_n", "speakup_trace_completed_total",
	} {
		if len(byName[want]) == 0 {
			t.Errorf("missing metric %s", want)
		}
	}
	if v := byName["speakup_uptime_seconds"][0].value; v <= 0 {
		t.Errorf("uptime = %v, want > 0", v)
	}

	// Histogram integrity: le values ascend and end at +Inf, bucket
	// counts are cumulative (monotone non-decreasing), and the +Inf
	// bucket equals the family's _count sample.
	families := map[string]bool{}
	for name, kind := range typ {
		if kind == "histogram" {
			families[name] = true
		}
	}
	if !families["speakup_wait_to_admit_seconds"] {
		t.Fatal("wait_to_admit histogram not exported")
	}
	for family := range families {
		buckets := byName[family+"_bucket"]
		if len(buckets) < 2 {
			t.Errorf("%s: only %d buckets", family, len(buckets))
			continue
		}
		sort.SliceStable(buckets, func(i, j int) bool {
			return promLE(t, buckets[i]) < promLE(t, buckets[j])
		})
		last := buckets[len(buckets)-1]
		if !math.IsInf(promLE(t, last), 1) {
			t.Errorf("%s: last bucket le=%v, want +Inf", family, promLE(t, last))
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i].value < buckets[i-1].value {
				t.Errorf("%s: bucket le=%v count %v < previous %v (not cumulative)",
					family, promLE(t, buckets[i]), buckets[i].value, buckets[i-1].value)
			}
		}
		counts := byName[family+"_count"]
		if len(counts) != 1 {
			t.Errorf("%s: %d _count samples, want 1", family, len(counts))
			continue
		}
		if last.value != counts[0].value {
			t.Errorf("%s: +Inf bucket %v != _count %v", family, last.value, counts[0].value)
		}
	}

	// The served request was a direct admit; its wait must have landed.
	if c := byName["speakup_wait_to_admit_seconds_count"]; len(c) == 0 || c[0].value < 1 {
		t.Errorf("wait_to_admit count = %v, want >= 1", c)
	}
}

func promLE(t *testing.T, s promSample) float64 {
	t.Helper()
	raw := s.labels["le"]
	if raw == "+Inf" {
		return math.Inf(1)
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		t.Fatalf("bucket %s: bad le %q", s.name, raw)
	}
	return v
}

func TestTraceEndpoint(t *testing.T) {
	// Tracing off: /trace is 404, the knob is the front config.
	_, plain, _ := newTestFront(t, time.Millisecond)
	if code, _ := get(t, plain.URL+"/trace"); code != http.StatusNotFound {
		t.Fatalf("/trace with tracing off -> %d, want 404", code)
	}

	front, srv := newTracedFront(t, time.Millisecond)
	get(t, srv.URL+"/request?id=5")
	get(t, srv.URL+"/request?id=6")
	waitForCompleted(t, front, 2)

	code, body := get(t, srv.URL+"/trace")
	if code != http.StatusOK {
		t.Fatalf("/trace -> %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) < 2 {
		t.Fatalf("got %d trace lines, want >= 2\n%s", len(lines), body)
	}
	var rec struct {
		ID        uint64 `json:"id"`
		Verdict   string `json:"verdict"`
		Transport string `json:"transport"`
		ArriveNS  int64  `json:"arrive_ns"`
		SettleNS  int64  `json:"settle_ns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("bad NDJSON line %q: %v", lines[0], err)
	}
	// Newest first: the id=6 request settled last.
	if rec.ID != 6 || rec.Verdict != "admit_direct" {
		t.Fatalf("newest trace = %+v, want id=6 verdict=admit_direct", rec)
	}
	if rec.SettleNS < rec.ArriveNS {
		t.Fatalf("settle %d before arrive %d", rec.SettleNS, rec.ArriveNS)
	}

	// id filter returns only that request's trace.
	_, body = get(t, srv.URL+"/trace?id=5")
	lines = strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 1 {
		t.Fatalf("id filter returned %d lines, want 1\n%s", len(lines), body)
	}
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil || rec.ID != 5 {
		t.Fatalf("filtered trace = %+v err=%v, want id=5", rec, err)
	}

	// n bounds the count; bad n is a client error.
	_, body = get(t, srv.URL+"/trace?n=1")
	if got := len(strings.Split(strings.TrimSpace(body), "\n")); got != 1 {
		t.Fatalf("n=1 returned %d lines", got)
	}
	if code, _ := get(t, srv.URL+"/trace?n=zero"); code != http.StatusBadRequest {
		t.Fatalf("bad n -> %d, want 400", code)
	}
}

// waitForCompleted polls the tracer until n traces settle: the settle
// runs on the server's request goroutine after the response is
// written, so a client can observe its 200 a beat earlier.
func waitForCompleted(t *testing.T, front *Front, n uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for front.Tracer().Completed() < n {
		if time.Now().After(deadline) {
			t.Fatalf("tracer completed %d, want %d", front.Tracer().Completed(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStatsObservabilityFields(t *testing.T) {
	_, srv, _ := newTestFront(t, time.Millisecond)
	get(t, srv.URL+"/request?id=1")
	_, body := get(t, srv.URL+"/stats")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(body), &raw); err != nil {
		t.Fatalf("bad stats JSON: %v", err)
	}
	for _, key := range []string{
		"uptime_seconds", "gomaxprocs",
		"wire_conns", "wire_frames", "wire_ingest_bytes",
	} {
		if _, ok := raw[key]; !ok {
			t.Errorf("stats missing %q\n%s", key, body)
		}
	}
	var st Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v, want > 0", st.UptimeSeconds)
	}
	if st.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs = %d, want >= 1", st.GOMAXPROCS)
	}
}

// TestStatsTelemetryMetricsAgree drives one auction win, one eviction
// and one shed during an origin stall, then checks that the three
// read-outs of the thinner's registry — /stats, a /telemetry line and
// /metrics — agree field for field once the front is quiet. It also
// pins the key sets of /stats (with its nested thinner object) and
// /telemetry.
func TestStatsTelemetryMetricsAgree(t *testing.T) {
	gate := make(chan struct{})
	origin := OriginFunc(func(id core.RequestID) ([]byte, error) {
		if id == 1 {
			<-gate // the stalled call
		}
		return []byte(fmt.Sprintf("served %d", id)), nil
	})
	front := NewFront(origin, Config{
		PayPollInterval:  5 * time.Millisecond,
		OriginStallAfter: 300 * time.Millisecond,
		Thinner: core.Config{
			OrphanTimeout: 100 * time.Millisecond,
			SweepInterval: 20 * time.Millisecond,
		},
	})
	srv := httptest.NewServer(front)
	t.Cleanup(func() {
		srv.Close()
		front.Close()
	})
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, front.Snapshot())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	pay := func(id, n int) {
		t.Helper()
		resp, err := http.Post(fmt.Sprintf("%s/pay?id=%d", srv.URL, id),
			"application/octet-stream", strings.NewReader(strings.Repeat("x", n)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// One eviction: an orphan channel whose request never arrives.
	pay(3, 500)
	waitFor("the orphan eviction", func() bool { return front.Snapshot().ThinnerTotals.Evicted == 1 })

	// A direct admission into the origin call that will stall, and a
	// contender that pays while it runs.
	codes := make(chan int, 2)
	go func() { code, _, _ := tryGet(srv.URL + "/request?id=1"); codes <- code }()
	waitFor("the direct admission", func() bool { return front.Snapshot().ThinnerTotals.Admitted == 1 })
	if code, _ := get(t, srv.URL+"/request?id=2"); code != http.StatusPaymentRequired {
		t.Fatalf("busy origin answered %d, want 402", code)
	}
	go func() { code, _, _ := tryGet(srv.URL + "/request?id=2&wait=1"); codes <- code }()
	waitFor("the contender", func() bool { return front.Snapshot().Contenders == 1 })
	pay(2, 1000)

	// One shed arrival during the stall.
	waitFor("the stall", func() bool { return front.Health().Origin == "stalled" })
	code, body := get(t, srv.URL+"/request?id=4")
	if code != http.StatusServiceUnavailable || strings.TrimSpace(body) != core.ShedMsg {
		t.Fatalf("stalled arrival: %d %q, want 503 %q", code, body, core.ShedMsg)
	}

	// Thaw: id 1 is served, the deferred auction admits id 2 at its
	// 1000-byte bid, and the ladder returns to ok after its grace.
	close(gate)
	for i := 0; i < 2; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("held request answered %d, want 200", c)
		}
	}
	waitFor("quiesce", func() bool {
		s := front.Snapshot()
		return s.Served == 2 && s.Health == "ok"
	})

	// /stats, with its key sets pinned.
	_, statsBody := get(t, srv.URL+"/stats")
	var statsKeys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(statsBody), &statsKeys); err != nil {
		t.Fatalf("bad /stats JSON: %v", err)
	}
	var thinnerKeys map[string]json.RawMessage
	if err := json.Unmarshal(statsKeys["thinner"], &thinnerKeys); err != nil {
		t.Fatalf("bad /stats thinner object: %v", err)
	}
	assertKeys(t, "/stats", statsKeys, "uptime", "uptime_seconds", "gomaxprocs", "served",
		"payment_bytes", "payment_mbps", "going_rate_bytes", "last_winner_id", "contenders",
		"open_channels", "shards", "health", "config_hash", "wire_conns", "wire_frames",
		"wire_ingest_bytes", "thinner")
	assertKeys(t, "/stats thinner", thinnerKeys, "admitted", "admitted_direct", "auctions",
		"evicted", "shed", "brownouts", "wasted_bytes", "paid_bytes")
	var st Stats
	if err := json.Unmarshal([]byte(statsBody), &st); err != nil {
		t.Fatal(err)
	}

	// One /telemetry line, with its key set pinned.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/telemetry", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	cancel()
	resp.Body.Close()
	if err != nil {
		t.Fatalf("reading /telemetry: %v", err)
	}
	var telKeys map[string]json.RawMessage
	if err := json.Unmarshal(line, &telKeys); err != nil {
		t.Fatalf("bad /telemetry line %q: %v", line, err)
	}
	assertKeys(t, "/telemetry", telKeys, "uptime_ms", "admitted", "admitted_direct", "auctions",
		"evicted", "paid_bytes", "wasted_bytes", "going_price_bytes", "last_winner_id", "shed",
		"brownouts", "health", "ingest_bytes", "ingest_mbps", "open_channels", "contenders",
		"wire_conns", "wire_frames", "wire_ingest_bytes")
	var tel metrics.Snapshot
	if err := json.Unmarshal(line, &tel); err != nil {
		t.Fatal(err)
	}

	// /metrics.
	_, metricsBody := get(t, srv.URL+"/metrics")
	_, _, samples := parseProm(t, metricsBody)
	prom := map[string]float64{}
	for _, s := range samples {
		prom[s.name] = s.value
	}

	tot := st.ThinnerTotals
	want := core.Stats{Admitted: 2, AdmittedDirect: 1, Auctions: 1, Evicted: 1, Shed: 1,
		Brownouts: 1, WastedBytes: 500, PaidBytes: 1000}
	if tot != want {
		t.Fatalf("/stats thinner = %+v, want %+v", tot, want)
	}
	if st.GoingRate != 1000 || st.LastWinner != 2 || st.Health != "ok" {
		t.Fatalf("/stats auction observables: going=%d winner=%d health=%q",
			st.GoingRate, st.LastWinner, st.Health)
	}
	for _, c := range []struct {
		name            string
		stats, tel, met float64
	}{
		{"admitted", float64(tot.Admitted), float64(tel.Admitted), prom["speakup_admitted_total"]},
		{"admitted_direct", float64(tot.AdmittedDirect), float64(tel.AdmittedDirect), prom["speakup_admitted_direct_total"]},
		{"auctions", float64(tot.Auctions), float64(tel.Auctions), prom["speakup_auctions_total"]},
		{"evicted", float64(tot.Evicted), float64(tel.Evicted), prom["speakup_evicted_total"]},
		{"shed", float64(tot.Shed), float64(tel.Shed), prom["speakup_shed_total"]},
		{"brownouts", float64(tot.Brownouts), float64(tel.Brownouts), prom["speakup_brownouts_total"]},
		{"paid_bytes", float64(tot.PaidBytes), float64(tel.PaidBytes), prom["speakup_paid_bytes_total"]},
		{"wasted_bytes", float64(tot.WastedBytes), float64(tel.WastedBytes), prom["speakup_wasted_bytes_total"]},
		{"going_price", float64(st.GoingRate), float64(tel.GoingPrice), prom["speakup_going_price_bytes"]},
		{"last_winner", float64(st.LastWinner), float64(tel.LastWinner), prom["speakup_last_winner_id"]},
		{"health", float64(core.HealthOK), float64(tel.Health), prom["speakup_health"]},
		{"ingest_bytes", float64(st.PaymentBytes), float64(tel.IngestBytes), prom["speakup_ingest_bytes_total"]},
		{"open_channels", float64(st.OpenChannels), float64(tel.OpenChannels), prom["speakup_open_channels"]},
		{"contenders", float64(st.Contenders), float64(tel.Contenders), prom["speakup_contenders"]},
		{"wire_conns", float64(st.WireConns), float64(tel.WireConns), prom["speakup_wire_conns"]},
		{"wire_frames", float64(st.WireFrames), float64(tel.WireFrames), prom["speakup_wire_frames_total"]},
		{"wire_ingest_bytes", float64(st.WireIngestBytes), float64(tel.WireIngestBytes), prom["speakup_wire_ingest_bytes_total"]},
	} {
		if c.stats != c.tel || c.stats != c.met {
			t.Errorf("%s disagrees: /stats %v, /telemetry %v, /metrics %v", c.name, c.stats, c.tel, c.met)
		}
	}
	if st.PaymentBytes != 1500 {
		t.Errorf("payment_bytes = %d, want 1500", st.PaymentBytes)
	}
}

// assertKeys fails unless obj has exactly the keys want.
func assertKeys(t *testing.T, what string, obj map[string]json.RawMessage, want ...string) {
	t.Helper()
	got := make([]string, 0, len(obj))
	for k := range obj {
		got = append(got, k)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("%s keys = %v, want %v", what, got, want)
	}
}

// TestMetricsFamilies pins every /metrics family a traced front
// exposes: its name, its TYPE and its HELP text. Dashboards and alert
// rules key on these, so a rename or a dropped family must show here.
func TestMetricsFamilies(t *testing.T) {
	_, srv := newTracedFront(t, time.Millisecond)
	_, body := get(t, srv.URL+"/metrics")
	help, typ, _ := parseProm(t, body)
	var got []string
	for name, kind := range typ {
		got = append(got, name+" "+kind+" "+help[name])
	}
	sort.Strings(got)
	want := []string{
		"speakup_admitted_direct_total counter Admissions with no auction (origin was free).",
		"speakup_admitted_total counter Requests handed to the origin (direct + auction wins).",
		"speakup_auction_latency_seconds histogram Wall time of one winner selection and settle.",
		"speakup_auctions_total counter Auctions held.",
		"speakup_brownouts_total counter Times the origin-health ladder left ok.",
		"speakup_contenders gauge Eligible auction contenders.",
		"speakup_credit_gap_seconds histogram Interarrival time between payment credits on one channel (sampled traces).",
		"speakup_evicted_total counter Payment channels terminated by timeout.",
		"speakup_going_price_bytes gauge Winning bid of the most recent auction.",
		"speakup_gomaxprocs gauge The front's scheduler width.",
		"speakup_health gauge Origin-health ladder state (0 ok, 1 stalled, 2 recovering).",
		"speakup_ingest_bytes_total counter Payment bytes credited across all transports.",
		"speakup_last_winner_id gauge Request id of the most recent auction winner.",
		"speakup_open_channels gauge Open payment channels, orphans included.",
		"speakup_paid_bytes_total counter Payment bytes of auction winners (the prices).",
		"speakup_served_total counter Requests the origin completed.",
		"speakup_shed_total counter Arrivals refused during origin brownouts.",
		"speakup_time_to_evict_seconds histogram Channel first activity to timeout eviction (sampled traces).",
		"speakup_trace_completed_total counter Request-lifecycle traces retired to the ring.",
		"speakup_trace_drops_total counter Sampled requests untraced because the in-flight slot table was full.",
		"speakup_trace_sample_n gauge Tracing samples one in this many request ids.",
		"speakup_uptime_seconds gauge Seconds since the front started.",
		"speakup_wait_to_admit_seconds histogram Request arrival to admission (sampled traces).",
		"speakup_wasted_bytes_total counter Payment bytes forfeited by evicted channels.",
		"speakup_wire_conns gauge Open binary payment-transport connections.",
		"speakup_wire_frames_total counter Frames decoded by the wire listener.",
		"speakup_wire_ingest_bytes_total counter Payment bytes credited over the wire transport.",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("/metrics families changed:\n got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if len(help) != len(typ) {
		t.Errorf("%d HELP lines for %d TYPE lines", len(help), len(typ))
	}
}
