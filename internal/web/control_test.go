package web

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speakup/internal/config"
	"speakup/internal/core"
	"speakup/internal/metrics"
)

func postJSON(t *testing.T, url, body string) (int, string, error) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	return resp.StatusCode, b.String(), nil
}

// TestControlConfigGetAndApply checks the read/modify cycle: GET
// reports the effective config, POST applies a patch atomically, and
// the next GET reflects it.
func TestControlConfigGetAndApply(t *testing.T) {
	_, srv, _ := newTestFront(t, 10*time.Millisecond)

	code, body := get(t, srv.URL+"/control/config")
	if code != http.StatusOK || !strings.Contains(body, `"orphan_timeout":"500ms"`) {
		t.Fatalf("GET /control/config: %d %q", code, body)
	}

	code, body, err := postJSON(t, srv.URL+"/control/config",
		`{"orphan_timeout":"2s","sweep_interval":"50ms"}`)
	if err != nil || code != http.StatusOK {
		t.Fatalf("POST: %d %q %v", code, body, err)
	}
	var applied config.Thinner
	if err := json.Unmarshal([]byte(body), &applied); err != nil {
		t.Fatalf("POST reply not a thinner section: %v in %q", err, body)
	}
	if applied.OrphanTimeout.D() != 2*time.Second || applied.SweepInterval.D() != 50*time.Millisecond {
		t.Fatalf("patch not applied: %+v", applied)
	}
	// The untouched field kept its default.
	if applied.InactivityTimeout.D() != 30*time.Second {
		t.Fatalf("zero field did not mean unchanged: %+v", applied)
	}
}

// TestControlConfigRejections checks invalid bodies and unsafe changes
// fail with 400 and change nothing.
func TestControlConfigRejections(t *testing.T) {
	front, srv, _ := newTestFront(t, 10*time.Millisecond)
	before := front.ThinnerConfig()

	for _, tc := range []struct{ name, body, wantErr string }{
		{"shards", `{"shards":64}`, "shard count is fixed"},
		{"unknown field", `{"orphan_timeut":"1s"}`, "unknown field"},
		{"negative", `{"sweep_interval":"-1s"}`, "negative"},
		{"not json", `cadence=fast`, "invalid character"},
		{"shards with rider", `{"shards":64,"orphan_timeout":"9s"}`, "shard count is fixed"},
	} {
		code, body, err := postJSON(t, srv.URL+"/control/config", tc.body)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if code != http.StatusBadRequest || !strings.Contains(body, tc.wantErr) {
			t.Errorf("%s: got %d %q, want 400 with %q", tc.name, code, body, tc.wantErr)
		}
	}
	if after := front.ThinnerConfig(); after != before {
		t.Fatalf("rejected POSTs leaked config changes: %+v -> %+v", before, after)
	}
}

// TestLiveReconfigUnderLoad is the control-plane race test: payers
// stream payment, requests queue, the sweeper runs, and concurrent
// /control/config applies — valid and invalid — land mid-flight. Run
// under -race this pins that live reconfiguration is safe; the final
// checks pin that it actually took effect and that invalid patches
// were rejected without partial application.
func TestLiveReconfigUnderLoad(t *testing.T) {
	front, srv, _ := newTestFront(t, 30*time.Millisecond)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup

	// Hold the origin busy and keep contenders paying throughout.
	for i := 0; i < 4; i++ {
		id := i + 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				tryGet(fmt.Sprintf("%s/request?id=%d", srv.URL, id))
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			body := bytes.Repeat([]byte("x"), 32<<10)
			for ctx.Err() == nil {
				resp, err := http.Post(fmt.Sprintf("%s/pay?id=%d", srv.URL, id),
					"application/octet-stream", bytes.NewReader(body))
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}

	// Concurrent reconfigurations: two writers alternating valid
	// patches, one writer hammering invalid ones.
	var applies atomic.Int64
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			patches := []string{
				`{"sweep_interval":"20ms","orphan_timeout":"300ms"}`,
				`{"sweep_interval":"80ms","inactivity_timeout":"10s"}`,
			}
			for i := 0; ctx.Err() == nil; i++ {
				code, body, err := postJSON(t, srv.URL+"/control/config", patches[i%len(patches)])
				if err == nil && code != http.StatusOK {
					t.Errorf("valid patch rejected: %d %q", code, body)
					return
				}
				if err == nil {
					applies.Add(1)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ctx.Err() == nil {
			code, _, err := postJSON(t, srv.URL+"/control/config", `{"shards":1024}`)
			if err == nil && code != http.StatusBadRequest {
				t.Errorf("shard change accepted under load: %d", code)
				return
			}
		}
	}()

	time.Sleep(1500 * time.Millisecond)
	cancel()
	wg.Wait()

	if applies.Load() < 2 {
		t.Fatalf("only %d reconfigurations applied", applies.Load())
	}
	cfg := front.ThinnerConfig()
	if d := cfg.SweepInterval.D(); d != 20*time.Millisecond && d != 80*time.Millisecond {
		t.Fatalf("final sweep interval %v is not one of the applied patches", d)
	}
	if cfg.Shards != 0 && cfg.Shards != front.Table().Shards() {
		t.Fatalf("shard config drifted: %+v", cfg)
	}
	// The thinner survived: a fresh request is still served.
	code, _, err := tryGet(srv.URL + "/request?id=9999")
	if err != nil || (code != http.StatusOK && code != http.StatusPaymentRequired) {
		t.Fatalf("front unhealthy after reconfig storm: %d %v", code, err)
	}
}

// TestTelemetryStream checks /telemetry emits parseable NDJSON
// snapshots at the requested cadence while traffic flows, and that
// the gauges move.
func TestTelemetryStream(t *testing.T) {
	_, srv, _ := newTestFront(t, 20*time.Millisecond)

	// Generate some activity first: one direct admission.
	get(t, srv.URL+"/request?id=1")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/telemetry?interval=30ms", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	var snaps []metrics.Snapshot
	for len(snaps) < 4 && sc.Scan() {
		var s metrics.Snapshot
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		snaps = append(snaps, s)
	}
	if len(snaps) < 4 {
		t.Fatalf("stream ended after %d snapshots: %v", len(snaps), sc.Err())
	}
	first, last := snaps[0], snaps[len(snaps)-1]
	if first.Admitted == 0 || first.AdmittedDirect == 0 {
		t.Fatalf("snapshot missing the admission: %+v", first)
	}
	if last.UptimeMS <= first.UptimeMS {
		t.Fatalf("uptime did not advance: %d -> %d", first.UptimeMS, last.UptimeMS)
	}

	// Bad interval is rejected.
	code, body := get(t, srv.URL+"/telemetry?interval=sideways")
	if code != http.StatusBadRequest {
		t.Fatalf("bad interval: %d %q", code, body)
	}
}

// TestTelemetryEndsOnClose checks Close terminates open streams
// instead of leaking them.
func TestTelemetryEndsOnClose(t *testing.T) {
	origin := &slowOrigin{delay: 5 * time.Millisecond}
	front := NewFront(origin, Config{})
	srv := httptest.NewServer(front)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/telemetry?interval=20ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	done := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
		done <- sc.Err()
	}()
	time.Sleep(60 * time.Millisecond)
	front.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("telemetry stream did not end on Close")
	}
}

// TestControlConfigHash checks the convergence identity fleet rollout
// verifies against: /control/config (GET and POST replies) and /stats
// carry the canonical config hash, and a POST moves it.
func TestControlConfigHash(t *testing.T) {
	front, srv, _ := newTestFront(t, 10*time.Millisecond)

	_, body := get(t, srv.URL+"/control/config")
	var st config.ThinnerStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("GET body: %v in %q", err, body)
	}
	want := config.HashThinner(front.ThinnerConfig())
	if st.ConfigHash != want || st.Thinner != front.ThinnerConfig() {
		t.Fatalf("GET status = %+v, want hash %s over the live config", st, want)
	}
	if _, body := get(t, srv.URL+"/stats"); !strings.Contains(body, want) {
		t.Fatalf("/stats missing config hash %s: %q", want, body)
	}

	_, body, err := postJSON(t, srv.URL+"/control/config", `{"orphan_timeout":"2s"}`)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("POST reply: %v in %q", err, body)
	}
	moved := config.HashThinner(front.ThinnerConfig())
	if st.ConfigHash != moved || moved == want {
		t.Fatalf("POST hash = %s, want the moved hash %s (was %s)", st.ConfigHash, moved, want)
	}
	if _, body := get(t, srv.URL+"/stats"); !strings.Contains(body, moved) {
		t.Fatalf("/stats still carries the stale hash: %q", body)
	}
}

// TestSnapshotAllocs fences the /stats read: the config hash is cached
// when the config changes, so a Snapshot allocates only its uptime
// string.
func TestSnapshotAllocs(t *testing.T) {
	front := NewFront(OriginFunc(func(core.RequestID) ([]byte, error) { return nil, nil }),
		Config{Thinner: core.Config{SweepInterval: time.Hour}})
	defer front.Close()
	if avg := testing.AllocsPerRun(100, func() { front.Snapshot() }); avg > 1 {
		t.Fatalf("Snapshot allocates %.1f/op, want at most 1 (the uptime string)", avg)
	}
}

// TestControlConfigRefusedDuringBrownout pins the rollout-safety
// contract: while the origin is stalled a reconfiguration is refused
// with 503 + Retry-After (a retryable verdict, not a 400), reads stay
// live, and once the ladder leaves HealthStalled the same patch
// applies.
func TestControlConfigRefusedDuringBrownout(t *testing.T) {
	var stallArmed atomic.Bool
	release := make(chan struct{})
	origin := OriginFunc(func(id core.RequestID) ([]byte, error) {
		if stallArmed.CompareAndSwap(true, false) {
			<-release
		}
		return []byte("ok"), nil
	})
	front := NewFront(origin, Config{
		PayPollInterval:  5 * time.Millisecond,
		OriginStallAfter: 100 * time.Millisecond,
		Thinner: core.Config{
			OrphanTimeout: 300 * time.Millisecond,
			SweepInterval: 25 * time.Millisecond,
			Shards:        4,
		},
	})
	srv := httptest.NewServer(front)
	defer front.Close()
	defer srv.Close()
	before := front.ThinnerConfig()

	stallArmed.Store(true)
	reqDone := make(chan struct{})
	go func() {
		tryGet(srv.URL + "/request?id=1")
		close(reqDone)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for front.Health().Origin != "stalled" && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if front.Health().Origin != "stalled" {
		close(release)
		t.Fatal("watchdog never declared the stall")
	}

	resp, err := http.Post(srv.URL+"/control/config", "application/json",
		strings.NewReader(`{"orphan_timeout":"2s"}`))
	if err != nil {
		close(release)
		t.Fatal(err)
	}
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(b.String(), "browned out") {
		close(release)
		t.Fatalf("mid-brownout POST: %d %q, want 503", resp.StatusCode, b.String())
	}
	if resp.Header.Get("Retry-After") == "" {
		close(release)
		t.Fatal("503 carried no Retry-After: clients cannot tell retryable from fatal")
	}
	if front.ThinnerConfig() != before {
		close(release)
		t.Fatalf("refused POST leaked a config change: %+v", front.ThinnerConfig())
	}
	// Reads stay live during the brownout.
	if code, body := get(t, srv.URL+"/control/config"); code != http.StatusOK ||
		!strings.Contains(body, config.HashThinner(before)) {
		close(release)
		t.Fatalf("mid-brownout GET: %d %q", code, body)
	}

	// Thaw; once the ladder leaves stalled, the same patch applies
	// (recovering does not block the control path).
	close(release)
	deadline = time.Now().Add(10 * time.Second)
	applied := false
	for !applied && time.Now().Before(deadline) {
		code, _, err := postJSON(t, srv.URL+"/control/config", `{"orphan_timeout":"2s"}`)
		if err != nil {
			t.Fatal(err)
		}
		if code == http.StatusOK {
			applied = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !applied {
		t.Fatal("patch never applied after recovery")
	}
	if got := front.ThinnerConfig().OrphanTimeout.D(); got != 2*time.Second {
		t.Fatalf("post-recovery config: orphan timeout %v, want 2s", got)
	}
	<-reqDone
}
