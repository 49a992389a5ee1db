package web

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"speakup/internal/adversary"
	"speakup/internal/core"
	"speakup/internal/loadgen"
)

// TestDuplicateRequestConflict is the regression test for the
// duplicate-waiter bug: a second /request with an id already held must
// be rejected with 409 instead of silently overwriting (and stranding)
// the first waiter.
func TestDuplicateRequestConflict(t *testing.T) {
	_, srv, _ := newTestFront(t, 250*time.Millisecond)
	go http.Get(srv.URL + "/request?id=1") // occupies the origin
	time.Sleep(30 * time.Millisecond)

	first := make(chan int, 1)
	go func() {
		code, _, _ := tryGet(srv.URL + "/request?id=2&wait=1")
		first <- code
	}()
	time.Sleep(30 * time.Millisecond)

	// The duplicate must bounce immediately.
	code, body := get(t, srv.URL+"/request?id=2&wait=1")
	if code != http.StatusConflict {
		t.Fatalf("duplicate request: got %d %q, want 409", code, body)
	}
	// The original waiter is untouched: id 2 is the only contender, so
	// it wins the auction when the origin frees up and gets served.
	select {
	case code := <-first:
		if code != http.StatusOK {
			t.Fatalf("original waiter got %d, want 200", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("original waiter stranded after duplicate was rejected")
	}
}

// TestFrontPayCreditAllocs anchors the zero-alloc invariant at the web
// layer: the work the front adds per payment chunk (credit + state
// poll on the request's cached channel) must not allocate.
func TestFrontPayCreditAllocs(t *testing.T) {
	front := NewFront(OriginFunc(func(core.RequestID) ([]byte, error) { return nil, nil }),
		Config{Thinner: core.Config{SweepInterval: time.Hour}})
	defer front.Close()
	pc := front.Table().Channel(99, 0)
	if avg := testing.AllocsPerRun(1000, func() {
		pc.Credit(16384, time.Millisecond)
		if pc.State() != core.ChanActive {
			t.Fatal("channel settled")
		}
	}); avg != 0 {
		t.Fatalf("per-chunk credit path allocates %.1f/op, want 0", avg)
	}
}

// TestFrontStress drives the full protocol with hundreds of concurrent
// actors against an in-process Front: paying waiters racing auctions,
// orphan payment channels being evicted, and clients disconnecting
// mid-POST. Run under -race in CI's race job. It asserts
// liveness (everything terminates), conservation of the headline
// counters, and that the table drains.
func TestFrontStress(t *testing.T) {
	payers, orphans, aborters := 60, 25, 25
	if testing.Short() {
		payers, orphans, aborters = 20, 8, 8
	}

	origin := OriginFunc(func(id core.RequestID) ([]byte, error) {
		time.Sleep(time.Millisecond)
		return []byte("ok"), nil
	})
	front := NewFront(origin, Config{
		PayPollInterval: 5 * time.Millisecond,
		RequestTimeout:  10 * time.Second,
		Thinner: core.Config{
			OrphanTimeout:     200 * time.Millisecond,
			InactivityTimeout: 2 * time.Second,
			SweepInterval:     25 * time.Millisecond,
			Shards:            8,
		},
	})
	srv := httptest.NewServer(front)
	defer front.Close()
	defer srv.Close()
	client := srv.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 256

	// Readiness gate: the probe must be green before the storm starts.
	if code, body := get(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz before storm: %d %q", code, body)
	}

	var served, evicted, conflicts atomic.Int64
	var wg sync.WaitGroup

	// Protocol-following clients: request, then pay-and-wait if busy.
	for i := 0; i < payers; i++ {
		id := 1000 + i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get(fmt.Sprintf("%s/request?id=%d", srv.URL, id))
			if err != nil {
				return
			}
			code := resp.StatusCode
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if code == http.StatusOK {
				served.Add(1)
				return
			}
			if code != http.StatusPaymentRequired {
				t.Errorf("id %d: unexpected /request status %d", id, code)
				return
			}
			// Re-issue and hold; stream payment until settled.
			done := make(chan int, 1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				code, _, err := tryGet(fmt.Sprintf("%s/request?id=%d&wait=1", srv.URL, id))
				if err != nil {
					code = 0
				}
				done <- code
			}()
			for paying := true; paying; {
				body := strings.NewReader(strings.Repeat("x", 32<<10))
				resp, err := client.Post(fmt.Sprintf("%s/pay?id=%d", srv.URL, id),
					"application/octet-stream", body)
				if err != nil {
					break
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				paying = strings.Contains(string(raw), "continue")
			}
			switch code := <-done; code {
			case http.StatusOK:
				served.Add(1)
			case http.StatusServiceUnavailable:
				evicted.Add(1)
			case http.StatusConflict:
				conflicts.Add(1)
			}
		}()
	}

	// Orphan payers: payment with no request message; must be evicted.
	for i := 0; i < orphans; i++ {
		id := 5000 + i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, pw := io.Pipe()
			go func() {
				pw.Write(make([]byte, 48<<10))
				// Keep the stream open: eviction must cut it short.
				time.Sleep(5 * time.Second)
				pw.Close()
			}()
			resp, err := client.Post(fmt.Sprintf("%s/pay?id=%d", srv.URL, id),
				"application/octet-stream", pr)
			if err != nil {
				return
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if strings.Contains(string(raw), "evicted") {
				evicted.Add(1)
			}
		}()
	}

	// Aborters: disconnect mid-POST; the sink must unwind cleanly.
	for i := 0; i < aborters; i++ {
		id := 9000 + i
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			pr, pw := io.Pipe()
			go func() {
				for {
					if _, err := pw.Write(make([]byte, 16<<10)); err != nil {
						return
					}
				}
			}()
			req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
				fmt.Sprintf("%s/pay?id=%d", srv.URL, id), pr)
			resp, err := client.Do(req)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			pw.CloseWithError(context.Canceled)
		}()
	}

	waited := make(chan struct{})
	go func() { wg.Wait(); close(waited) }()
	select {
	case <-waited:
	case <-time.After(60 * time.Second):
		t.Fatal("stress run wedged: actors did not terminate")
	}

	st := front.Snapshot()
	t.Logf("served=%d evicted=%d conflicts=%d snapshot=%+v",
		served.Load(), evicted.Load(), conflicts.Load(), st)
	if served.Load() == 0 {
		t.Fatal("no client was ever served")
	}
	if st.ThinnerTotals.Evicted == 0 {
		t.Fatal("orphan channels were never evicted")
	}
	if got := front.Table().TotalCredited(); got < st.ThinnerTotals.PaidBytes {
		t.Fatalf("credited %d < admitted prices %d", got, st.ThinnerTotals.PaidBytes)
	}
	// The table must drain: give the sweeper a few rounds to clear
	// leftover orphans from aborted streams, then check emptiness.
	deadline := time.Now().Add(5 * time.Second)
	for front.Table().Size() > 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := front.Table().Size(); n > 0 {
		t.Fatalf("%d channels leaked past all timeouts", n)
	}
	if n := front.Table().Waiters(); n > 0 {
		t.Fatalf("%d waiters leaked", n)
	}
	// After the storm the probe must still be green: listener up,
	// sweep chain alive, origin not browned out.
	if code, body := get(t, srv.URL+"/healthz"); code != http.StatusOK || !strings.Contains(body, `"sweep_ok":true`) {
		t.Fatalf("/healthz after storm: %d %q", code, body)
	}
}

// TestFrontAdversarialStress turns the adversary suite loose on a
// live front under -race: flood clients pile tiny-payment waiters
// into the BidTable's waiter path while defectors stop paying
// mid-auction and camp until the inactivity sweep evicts them, with a
// pair of honest clients competing throughout. It asserts liveness
// (the run terminates), that the defense actually engaged (evictions
// happened, honest clients got served), and that the table and
// waiter registry drain afterwards.
func TestFrontAdversarialStress(t *testing.T) {
	floods, defectors := 4, 4
	if testing.Short() {
		floods, defectors = 2, 2
	}

	origin := OriginFunc(func(id core.RequestID) ([]byte, error) {
		time.Sleep(2 * time.Millisecond)
		return []byte("ok"), nil
	})
	front := NewFront(origin, Config{
		PayPollInterval: 5 * time.Millisecond,
		RequestTimeout:  10 * time.Second,
		Thinner: core.Config{
			OrphanTimeout:     250 * time.Millisecond,
			InactivityTimeout: 400 * time.Millisecond,
			SweepInterval:     25 * time.Millisecond,
			Shards:            8,
		},
	})
	srv := httptest.NewServer(front)
	defer front.Close()
	defer srv.Close()

	newAttacker := func(name string, n int, seed int64) []*loadgen.Client {
		spec := adversary.Spec{Name: name}
		cohort := adversary.NewCohort(spec, n)
		out := make([]*loadgen.Client, n)
		var ids atomic.Uint64
		ids.Store(uint64(seed) * 100_000)
		for i := range out {
			out[i] = loadgen.NewClient(loadgen.Config{
				BaseURL:  srv.URL,
				Strategy: spec.New(cohort),
				// Loopback-fast uploads and small POSTs: the stress is
				// concurrency, not bandwidth.
				UploadBits: 200e6, PostBytes: 32 << 10,
				Seed: seed + int64(i),
			}, &ids)
		}
		return out
	}
	var honestIDs atomic.Uint64
	honestSpec := adversary.Spec{Name: "poisson", Lambda: 10, Window: 4}
	honest := []*loadgen.Client{
		loadgen.NewClient(loadgen.Config{
			BaseURL: srv.URL, Strategy: honestSpec.New(nil),
			UploadBits: 200e6, PostBytes: 32 << 10, Seed: 1,
		}, &honestIDs),
		loadgen.NewClient(loadgen.Config{
			BaseURL: srv.URL, Strategy: honestSpec.New(nil),
			UploadBits: 200e6, PostBytes: 32 << 10, Seed: 2,
		}, &honestIDs),
	}
	honestIDs.Store(1_000_000_000)

	all := append(newAttacker("flood", floods, 2_000), newAttacker("defector", defectors, 3_000)...)
	all = append(all, honest...)
	for _, c := range all {
		c.Run()
	}
	runFor := 3 * time.Second
	if testing.Short() {
		runFor = 1500 * time.Millisecond
	}
	time.Sleep(runFor)

	stopped := make(chan struct{})
	go func() {
		for _, c := range all {
			c.Stop()
		}
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(30 * time.Second):
		t.Fatal("adversarial stress wedged: clients did not stop")
	}

	var honestServed uint64
	for _, c := range honest {
		honestServed += c.Stats.Served.Load()
	}
	st := front.Snapshot()
	t.Logf("honest served=%d thinner=%+v", honestServed, st.ThinnerTotals)
	if honestServed == 0 {
		t.Fatal("honest clients starved: flood+defector shut the front down")
	}
	if st.ThinnerTotals.Admitted == 0 {
		t.Fatal("nothing was ever admitted")
	}
	if st.ThinnerTotals.Evicted == 0 {
		t.Fatal("defectors camping on unpaid bids were never evicted")
	}
	// Everything must drain: camped defector waiters, flood ids, all
	// of it — give the sweeper a few rounds past the timeouts.
	deadline := time.Now().Add(10 * time.Second)
	for (front.Table().Size() > 0 || front.Table().Waiters() > 0) && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	if n := front.Table().Size(); n > 0 {
		t.Fatalf("%d payment channels leaked past all timeouts", n)
	}
	if n := front.Table().Waiters(); n > 0 {
		t.Fatalf("%d waiters leaked", n)
	}
}

// TestFrontEvictionStorm is the PR 5 sweep-index stress: thousands of
// payment channels hit the timeout machinery at once — orphans (paid,
// never sent the request) through the creation-ordered orphan lists,
// and camping contenders (requested, never paid) through the
// inactivity timing wheel — under -race. Every channel must be
// evicted, every waiter released with 503, and the table must drain
// completely; the eviction stats must cover the whole storm.
func TestFrontEvictionStorm(t *testing.T) {
	orphans, campers := 400, 200
	if testing.Short() {
		orphans, campers = 150, 75
	}

	block := make(chan struct{})
	origin := OriginFunc(func(id core.RequestID) ([]byte, error) {
		<-block // keep the origin busy so campers stay contenders
		return []byte("ok"), nil
	})
	front := NewFront(origin, Config{
		PayPollInterval: 5 * time.Millisecond,
		RequestTimeout:  30 * time.Second,
		Thinner: core.Config{
			OrphanTimeout:     150 * time.Millisecond,
			InactivityTimeout: 400 * time.Millisecond,
			SweepInterval:     20 * time.Millisecond,
			Shards:            8,
		},
	})
	srv := httptest.NewServer(front)
	defer front.Close()
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}

	go http.Get(srv.URL + "/request?id=1") // occupy the origin
	time.Sleep(30 * time.Millisecond)

	var wg sync.WaitGroup
	var evictedPays, evictedWaits atomic.Uint64
	// Orphan payers: each streams an open-ended POST /pay and never
	// sends the request message. The sweep must time the channel out
	// via the creation-ordered orphan list, and the front must cut the
	// in-flight POST short with an "evicted" verdict (state-word
	// settle observed mid-stream).
	for i := 0; i < orphans; i++ {
		id := 10_000 + i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr, pw := io.Pipe()
			req, _ := http.NewRequest(http.MethodPost,
				fmt.Sprintf("%s/pay?id=%d", srv.URL, id), pr)
			done := make(chan struct{})
			go func() {
				defer close(done)
				resp, err := client.Do(req)
				if err != nil {
					return
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if strings.Contains(string(raw), "evicted") {
					evictedPays.Add(1)
				}
			}()
			chunk := []byte(strings.Repeat("x", 2048))
			for {
				select {
				case <-done:
					pw.Close()
					return
				default:
				}
				if _, err := pw.Write(chunk); err != nil {
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			pw.Close()
			<-done
		}()
	}
	// Campers: eligible contenders that never pay a byte. The wheel
	// must evict them and their held requests must get 503.
	for i := 0; i < campers; i++ {
		id := 50_000 + i
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, err := tryGet(fmt.Sprintf("%s/request?id=%d&wait=1", srv.URL, id))
			if err == nil && code == http.StatusServiceUnavailable {
				evictedWaits.Add(1)
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("eviction storm wedged: clients did not terminate")
	}

	st := front.Snapshot()
	t.Logf("storm: evicted pays=%d waits=%d open=%d thinner=%+v",
		evictedPays.Load(), evictedWaits.Load(), st.OpenChannels, st.ThinnerTotals)
	if got := evictedWaits.Load(); got != uint64(campers) {
		t.Fatalf("%d/%d camping waiters got 503", got, campers)
	}
	if st.ThinnerTotals.Evicted < uint64(orphans+campers) {
		t.Fatalf("thinner evicted %d, want >= %d (every orphan and camper)",
			st.ThinnerTotals.Evicted, orphans+campers)
	}
	// A healthy share of the in-flight POSTs must have learned their
	// verdict from the state word. The margin is loose: when the front
	// expires the read deadline to cut a stream short, the connection
	// is aborted, and under -race on a loaded host many clients lose
	// the reply to that teardown — the authoritative check is the
	// exact server-side eviction count above.
	if got := evictedPays.Load(); got < uint64(orphans/10) {
		t.Fatalf("only %d/%d orphan streams saw an evicted verdict", got, orphans)
	}
	// The held origin request (id=1) is still in flight; everything
	// else must drain once the timeouts lapse.
	deadline := time.Now().Add(10 * time.Second)
	for front.Table().Size() > 0 && time.Now().Before(deadline) {
		time.Sleep(25 * time.Millisecond)
	}
	if n := front.Table().Size(); n > 0 {
		t.Fatalf("%d payment channels survived the storm past all timeouts", n)
	}
	close(block)
}
