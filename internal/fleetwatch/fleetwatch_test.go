package fleetwatch

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"speakup/internal/core"
	"speakup/internal/faults"
	"speakup/internal/metrics"
	"speakup/internal/web"
)

// testFront runs a live web.Front on its own listener.
type testFront struct {
	front *web.Front
	srv   *http.Server
	ln    net.Listener
}

func startFront(t *testing.T, addr string) *testFront {
	t.Helper()
	front := web.NewFront(web.OriginFunc(func(id core.RequestID) ([]byte, error) {
		return []byte("ok"), nil
	}), web.Config{})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listen %s: %v", addr, err)
	}
	srv := &http.Server{Handler: front}
	go srv.Serve(ln)
	return &testFront{front: front, srv: srv, ln: ln}
}

func (f *testFront) url() string { return "http://" + f.ln.Addr().String() }

func (f *testFront) stop() {
	f.srv.Close()
	f.front.Close()
}

func serveOne(t *testing.T, base string, id int) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/request?id=%d", base, id))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request: status %d", resp.StatusCode)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestWatcherAggregatesAndSurvivesDisconnect is the PR's acceptance
// scenario: a watcher over two live fronts aggregates both, keeps the
// fleet view (with stale numbers) when one front dies mid-run, and
// folds the front back in when it returns on the same address.
func TestWatcherAggregatesAndSurvivesDisconnect(t *testing.T) {
	f1 := startFront(t, "127.0.0.1:0")
	defer f1.stop()
	f2 := startFront(t, "127.0.0.1:0")
	addr2 := f2.ln.Addr().String()

	serveOne(t, f1.url(), 1)
	serveOne(t, f2.url(), 2)

	w := New(Config{
		Fronts:   []string{f1.url(), f2.url()},
		Interval: 20 * time.Millisecond,
		Backoff:  faults.Backoff{Base: 20 * time.Millisecond, Cap: 100 * time.Millisecond},
	})
	w.Start(context.Background())
	defer w.Stop()

	waitFor(t, "both fronts connected with their admissions visible", func() bool {
		a := w.Aggregate()
		return a.Connected == 2 && a.Admitted == 2
	})
	if a := w.Aggregate(); a.Fronts != 2 {
		t.Fatalf("Fronts = %d, want 2", a.Fronts)
	}

	// Kill front 2 mid-run. The watcher must notice, keep running, and
	// keep front 2's last snapshot in the fleet totals.
	f2.stop()
	waitFor(t, "front 2 marked disconnected", func() bool {
		a := w.Aggregate()
		return a.Connected == 1
	})
	if a := w.Aggregate(); a.Fronts != 2 || a.Admitted != 2 {
		t.Fatalf("after disconnect: %+v; want 2 fronts and the stale admission retained", a)
	}
	states := w.States()
	if states[1].Connected || states[1].Drops == 0 {
		t.Fatalf("front 2 state not marked dropped: %+v", states[1])
	}

	// Bring a front back on the same address; the watcher's backoff
	// loop must redial and fold it in without intervention.
	var f3 *testFront
	waitFor(t, "relisten on "+addr2, func() bool {
		ln, err := net.Listen("tcp", addr2)
		if err != nil {
			return false
		}
		ln.Close() // race-free enough for a test: immediately rebind below
		f3 = startFront(t, addr2)
		return true
	})
	defer f3.stop()
	waitFor(t, "front 2 reconnected", func() bool {
		return w.Aggregate().Connected == 2
	})
	// The reborn front starts from zero: fleet admissions now count
	// front 1's stale 1 plus the new front's 0.
	if a := w.Aggregate(); a.Admitted != 1 {
		t.Fatalf("after reconnect Admitted = %d, want 1 (fresh front replaced the stale snapshot)", a.Admitted)
	}
}

// TestWatcherSurfacesHealth walks one front down the brownout ladder
// and checks the watcher mirrors it: FrontState.Health carries the
// healthz vocabulary, the aggregate health rollup moves rung by rung,
// and shed arrivals land in the fleet totals — the signals the fleet
// dashboard and rollout soak guardrails both read.
func TestWatcherSurfacesHealth(t *testing.T) {
	var stallArmed atomic.Bool
	release := make(chan struct{})
	front := web.NewFront(web.OriginFunc(func(id core.RequestID) ([]byte, error) {
		if stallArmed.CompareAndSwap(true, false) {
			<-release
		}
		return []byte("ok"), nil
	}), web.Config{
		OriginStallAfter: 80 * time.Millisecond,
		Thinner: core.Config{
			OrphanTimeout: 200 * time.Millisecond,
			SweepInterval: 20 * time.Millisecond,
			Shards:        4,
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: front}
	go srv.Serve(ln)
	defer front.Close()
	defer srv.Close()
	url := "http://" + ln.Addr().String()

	w := New(Config{
		Fronts:   []string{url},
		Interval: 20 * time.Millisecond,
		Backoff:  faults.Backoff{Base: 20 * time.Millisecond, Cap: 100 * time.Millisecond},
	})
	w.Start(context.Background())
	defer w.Stop()

	waitFor(t, "healthy front visible", func() bool {
		a := w.Aggregate()
		return a.Connected == 1 && a.Healthy == 1
	})
	if st := w.States()[0]; st.Health != "ok" {
		t.Fatalf("health = %q, want ok", st.Health)
	}

	// Hang the origin; the watchdog stalls the front and the watcher
	// must relay it.
	stallArmed.Store(true)
	reqDone := make(chan struct{})
	go func() {
		resp, err := http.Get(url + "/request?id=1")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		close(reqDone)
	}()
	waitFor(t, "stall relayed", func() bool {
		a := w.Aggregate()
		return a.Stalled == 1 && a.Healthy == 0
	})
	if st := w.States()[0]; st.Health != "stalled" {
		t.Fatalf("health = %q, want stalled", st.Health)
	}

	// An arrival during the stall is shed and the counter reaches the
	// fleet totals.
	resp, err := http.Get(url + "/request?id=2")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-stall arrival got %d, want 503", resp.StatusCode)
	}
	waitFor(t, "shed counted", func() bool {
		return w.Aggregate().Shed >= 1
	})

	// Thaw: the ladder climbs back (recovering, then ok) and the
	// watcher follows it all the way.
	close(release)
	<-reqDone
	waitFor(t, "recovery relayed", func() bool {
		return w.Aggregate().Healthy == 1 && w.Aggregate().Stalled == 0
	})
	if st := w.States()[0]; st.Health == "stalled" {
		t.Fatalf("health still %q after recovery", st.Health)
	}
}

func TestWatcherToleratesAbsentFront(t *testing.T) {
	// A watcher pointed at nothing must keep retrying without ever
	// reporting connected — and stop cleanly.
	w := New(Config{
		Fronts:   []string{"http://127.0.0.1:1"}, // reserved port: connection refused
		Interval: 20 * time.Millisecond,
		Backoff:  faults.Backoff{Base: 10 * time.Millisecond, Cap: 50 * time.Millisecond},
	})
	w.Start(context.Background())
	waitFor(t, "a few failed attempts", func() bool {
		st := w.States()[0]
		return st.Attempts >= 2 && st.LastErr != ""
	})
	if a := w.Aggregate(); a.Connected != 0 || a.Fronts != 1 {
		t.Fatalf("aggregate over an absent front: %+v", a)
	}
	w.Stop()
}

// TestAggregateFoldsEveryDeclaredMetric streams one synthetic snapshot
// from each of two fronts, with every declared key holding a distinct
// value, and checks the fleet view: each declared counter (and each
// summed gauge) is the sum of the two, and the going price is the
// larger one.
func TestAggregateFoldsEveryDeclaredMetric(t *testing.T) {
	decls := metrics.Decls()
	line := func(scale float64) []byte {
		m := map[string]float64{}
		for i, d := range decls {
			if d.JSON != "" {
				m[d.JSON] = scale * float64(i+1)
			}
		}
		m["health"] = 0
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}
	var urls []string
	for _, scale := range []float64{1, 100} {
		body := line(scale)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Write(body)
			w.(http.Flusher).Flush()
			<-r.Context().Done()
		}))
		defer srv.Close()
		urls = append(urls, srv.URL)
	}
	w := New(Config{Fronts: urls, Interval: 20 * time.Millisecond})
	w.Start(context.Background())
	defer w.Stop()
	waitFor(t, "both synthetic fronts reporting", func() bool {
		for _, st := range w.States() {
			if st.LastSeen.IsZero() {
				return false
			}
		}
		return true
	})

	b, err := json.Marshal(w.Aggregate())
	if err != nil {
		t.Fatal(err)
	}
	var agg map[string]float64
	if err := json.Unmarshal(b, &agg); err != nil {
		t.Fatal(err)
	}
	counters := 0
	for i, d := range decls {
		got, ok := agg[d.JSON]
		if d.Kind == "counter" && d.JSON != "" {
			counters++
			if !ok {
				t.Errorf("counter %s missing from the aggregate", d.JSON)
			}
		}
		if want := 101 * float64(i+1); ok && got != want {
			t.Errorf("aggregate %s = %v, want %v", d.JSON, got, want)
		}
		if want := 100 * float64(i+1); d.JSON == "going_price_bytes" && agg["going_price_max_bytes"] != want {
			t.Errorf("going_price_max_bytes = %v, want %v", agg["going_price_max_bytes"], want)
		}
	}
	if counters < 11 {
		t.Errorf("only %d declared counters checked", counters)
	}
	if agg["healthy"] != 2 {
		t.Errorf("healthy = %v, want 2", agg["healthy"])
	}
}
