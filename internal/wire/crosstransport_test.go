// Cross-transport semantics: the binary wire front and the HTTP front
// share one web.Front, and these tests pin that the verdicts a client
// observes — duplicate rejection, mid-stream eviction, brownout shed,
// waiter drain on disconnect — are identical in meaning and message
// across both. Run under -race in CI (the race job).
package wire_test

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"speakup/internal/core"
	"speakup/internal/web"
	"speakup/internal/wire"
)

// dualFront stands up one web.Front behind both listeners.
type dualFront struct {
	front *web.Front
	hsrv  *httptest.Server
	waddr string
}

func newDualFront(t *testing.T, origin web.Origin, cfg web.Config) *dualFront {
	t.Helper()
	front := web.NewFront(origin, cfg)
	hsrv := httptest.NewServer(front)
	wsrv := wire.NewServer(front, wire.ServerConfig{Registry: front.Registry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go wsrv.Serve(ln)
	t.Cleanup(func() {
		wsrv.Close()
		hsrv.Close()
		front.Close()
	})
	return &dualFront{front: front, hsrv: hsrv, waddr: ln.Addr().String()}
}

func delayOrigin(delay time.Duration) web.Origin {
	return web.OriginFunc(func(id core.RequestID) ([]byte, error) {
		time.Sleep(delay)
		return []byte(fmt.Sprintf("served %d", id)), nil
	})
}

func testConfig() web.Config {
	return web.Config{
		PayPollInterval: 10 * time.Millisecond,
		RequestTimeout:  10 * time.Second,
		Thinner: core.Config{
			OrphanTimeout:     300 * time.Millisecond,
			InactivityTimeout: 400 * time.Millisecond,
			SweepInterval:     25 * time.Millisecond,
		},
	}
}

// occupy parks one request on the origin so everything after it
// contends through the auction.
func (d *dualFront) occupy(id int) {
	go http.Get(fmt.Sprintf("%s/request?id=%d", d.hsrv.URL, id))
	time.Sleep(50 * time.Millisecond)
}

func httpGet(url string) (int, string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), nil
}

// TestWirePaymentWinsService is the happy path end to end: OPEN +
// CREDIT over the binary transport wins the auction and the origin's
// response comes back as an ADMIT event.
func TestWirePaymentWinsService(t *testing.T) {
	d := newDualFront(t, delayOrigin(150*time.Millisecond), testConfig())
	d.occupy(1)

	wc, err := wire.Dial(d.waddr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	res, err := wc.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Credit(2, 200_000); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-res:
		if r.Status != wire.StatusAdmitted || string(r.Body) != "served 2" {
			t.Fatalf("result = %v %q, want admitted %q", r.Status, r.Body, "served 2")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wire channel never admitted")
	}
	if paid := d.front.Table().TotalCredited(); paid < 200_000 {
		t.Fatalf("credited %d bytes, want >= 200000", paid)
	}
}

// TestCrossTransportDuplicate pins 409 parity both directions: an id
// waiting on one transport is a duplicate on the other, and the
// rejection carries the same message either way.
func TestCrossTransportDuplicate(t *testing.T) {
	d := newDualFront(t, delayOrigin(150*time.Millisecond), testConfig())
	d.occupy(1)

	// HTTP waiter holds id 7; a wire OPEN for 7 must be REJECTed.
	httpDone := make(chan string, 1)
	go func() {
		_, body, _ := httpGet(d.hsrv.URL + "/request?id=7&wait=1")
		httpDone <- body
	}()
	time.Sleep(50 * time.Millisecond)

	wc, err := wire.Dial(d.waddr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	res7, err := wc.Open(7)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-res7:
		if r.Status != wire.StatusRejected {
			t.Fatalf("wire OPEN of HTTP-held id: %v, want rejected", r.Status)
		}
		wireMsg := strings.TrimSpace(string(r.Body))

		// Wire waiter holds id 8; an HTTP wait for 8 must 409 with the
		// identical message.
		if _, err := wc.Open(8); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
		code, body, err := httpGet(d.hsrv.URL + "/request?id=8&wait=1")
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusConflict {
			t.Fatalf("HTTP wait on wire-held id: %d, want 409", code)
		}
		if got := strings.TrimSpace(body); got != wireMsg {
			t.Fatalf("messages diverge: HTTP %q vs wire %q", got, wireMsg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wire duplicate OPEN never resolved")
	}
	<-httpDone // waiter 7 resolves (served or evicted) before teardown
}

// TestCrossTransportEviction pins 503-eviction parity: a waiter that
// stops paying while the origin stays busy is evicted mid-stream on
// both transports with the same message.
func TestCrossTransportEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the real-time inactivity timeout; skipped with -short")
	}
	d := newDualFront(t, delayOrigin(1200*time.Millisecond), testConfig())
	d.occupy(1)

	// Both waiters pay once, then go silent.
	httpDone := make(chan [2]string, 1)
	go func() {
		code, body, _ := httpGet(d.hsrv.URL + "/request?id=21&wait=1")
		httpDone <- [2]string{fmt.Sprint(code), body}
	}()
	time.Sleep(30 * time.Millisecond)
	http.Post(d.hsrv.URL+"/pay?id=21", "application/octet-stream",
		strings.NewReader(strings.Repeat("x", 5000)))

	wc, err := wire.Dial(d.waddr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	res, err := wc.Open(20)
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.Credit(20, 5000); err != nil {
		t.Fatal(err)
	}

	var wireMsg string
	select {
	case r := <-res:
		if r.Status != wire.StatusEvicted {
			t.Fatalf("wire result = %v %q, want evicted", r.Status, r.Body)
		}
		wireMsg = strings.TrimSpace(string(r.Body))
	case <-time.After(5 * time.Second):
		t.Fatal("wire channel never evicted")
	}
	select {
	case hr := <-httpDone:
		if hr[0] != "503" {
			t.Fatalf("HTTP waiter got %s %q, want 503", hr[0], hr[1])
		}
		if got := strings.TrimSpace(hr[1]); got != wireMsg {
			t.Fatalf("eviction messages diverge: HTTP %q vs wire %q", got, wireMsg)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("HTTP waiter never evicted")
	}
}

// TestWireDisconnectDrainsWaiters pins the disconnect contract: when
// a wire connection dies mid-stream, every waiter it registered is
// released immediately (the HTTP analog is the request context
// canceling), so no held request strands until RequestTimeout.
func TestWireDisconnectDrainsWaiters(t *testing.T) {
	d := newDualFront(t, delayOrigin(800*time.Millisecond), testConfig())
	d.occupy(1)
	base := d.front.Table().Waiters()

	wc, err := wire.Dial(d.waddr)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := wc.Open(core.RequestID(30 + i)); err != nil {
			t.Fatal(err)
		}
		if err := wc.Credit(core.RequestID(30+i), 1000); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "waiters registered", func() bool {
		return d.front.Table().Waiters() == base+n
	})

	wc.Close() // abrupt mid-conn disconnect
	waitFor(t, "waiters drained", func() bool {
		return d.front.Table().Waiters() == base
	})
	// The channels themselves survive with their balances and settle by
	// timeout, exactly like an HTTP payer that vanished.
	if d.front.Table().Balance(30) != 1000 {
		t.Fatalf("balance dropped with the waiter: %d", d.front.Table().Balance(30))
	}
}

// TestCrossTransportShed pins brownout parity: while the origin is
// stalled, both transports shed new arrivals with the same message
// (HTTP: 503 + Retry-After; wire: SHED).
func TestCrossTransportShed(t *testing.T) {
	var stallArmed atomic.Bool
	release := make(chan struct{})
	defer close(release)
	origin := web.OriginFunc(func(id core.RequestID) ([]byte, error) {
		if stallArmed.CompareAndSwap(true, false) {
			<-release
		}
		return []byte("ok"), nil
	})
	cfg := testConfig()
	cfg.OriginStallAfter = 100 * time.Millisecond
	d := newDualFront(t, origin, cfg)

	stallArmed.Store(true)
	go http.Get(d.hsrv.URL + "/request?id=1") // hangs in the origin
	waitFor(t, "stall declared", func() bool {
		return d.front.Health().Origin == "stalled"
	})

	wc, err := wire.Dial(d.waddr)
	if err != nil {
		t.Fatal(err)
	}
	defer wc.Close()
	res, err := wc.Open(40)
	if err != nil {
		t.Fatal(err)
	}
	var wireMsg string
	select {
	case r := <-res:
		if r.Status != wire.StatusShed {
			t.Fatalf("wire arrival during stall: %v, want shed", r.Status)
		}
		wireMsg = strings.TrimSpace(string(r.Body))
	case <-time.After(5 * time.Second):
		t.Fatal("wire arrival never shed")
	}

	code, body, err := httpGet(d.hsrv.URL + "/request?id=41&wait=1")
	if err != nil {
		t.Fatal(err)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("HTTP arrival during stall: %d, want 503", code)
	}
	if got := strings.TrimSpace(body); got != wireMsg {
		t.Fatalf("shed messages diverge: HTTP %q vs wire %q", got, wireMsg)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}
