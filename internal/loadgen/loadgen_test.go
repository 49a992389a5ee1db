package loadgen

import (
	"io"
	"math/rand"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"speakup/internal/adversary"
	"speakup/internal/core"
	"speakup/internal/web"
)

// poisson is the paper's §7.1 client: Poisson arrivals at rate lambda,
// at most w outstanding, full payment.
func poisson(lambda float64, w int) adversary.Strategy {
	return adversary.Spec{Name: "poisson", Lambda: lambda, Window: w}.New(nil)
}

func TestTokenBucketRate(t *testing.T) {
	// 8 Mbit/s = 1 MB/s; taking 200 KB beyond the 32 KB burst must
	// take roughly (200-32)/1000 ≈ 0.17s.
	b := NewTokenBucket(8e6, 32<<10)
	start := time.Now()
	total := 0
	for total < 200<<10 {
		b.Take(16 << 10)
		total += 16 << 10
	}
	took := time.Since(start)
	if took < 120*time.Millisecond || took > 400*time.Millisecond {
		t.Fatalf("200KB at 1MB/s took %v, want ~0.17s", took)
	}
}

func TestTokenBucketBurst(t *testing.T) {
	b := NewTokenBucket(1e6, 64<<10)
	start := time.Now()
	b.Take(64 << 10) // within burst: immediate
	if took := time.Since(start); took > 50*time.Millisecond {
		t.Fatalf("burst take took %v", took)
	}
}

func TestTokenBucketValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate did not panic")
		}
	}()
	NewTokenBucket(0, 0)
}

// Property: total time to take N bytes at rate R is at least
// (N-burst)/R — the shaper never exceeds the configured rate.
func TestQuickBucketNeverExceedsRate(t *testing.T) {
	f := func(chunks []uint16) bool {
		if len(chunks) == 0 || len(chunks) > 20 {
			return true
		}
		var virtual time.Duration
		b := NewTokenBucket(80e6, 16<<10) // 10 MB/s
		b.now = func() time.Time { return time.Unix(0, int64(virtual)) }
		b.sleep = func(d time.Duration) {
			if d <= 0 {
				d = time.Nanosecond // virtual clock must always advance
			}
			virtual += d
		}
		b.lastFill = b.now()
		total := 0
		for _, c := range chunks {
			n := int(c)%8192 + 1
			b.Take(n)
			total += n
		}
		minTime := float64(total-16<<10) / 10e6 // seconds
		if minTime < 0 {
			return true
		}
		return virtual.Seconds() >= minTime-1e-9
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(71))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestShapedReaderYieldsExactly(t *testing.T) {
	b := NewTokenBucket(800e6, 1<<20)
	r := &shapedReader{bucket: b, total: 100_000, chunk: 16 << 10}
	n, err := io.Copy(io.Discard, readerOnly{r})
	if err != nil || n != 100_000 {
		t.Fatalf("copied %d (%v), want 100000", n, err)
	}
}

func TestShapedReaderStops(t *testing.T) {
	b := NewTokenBucket(800e6, 1<<20)
	stop := false
	r := &shapedReader{bucket: b, total: 1 << 20, chunk: 4096, stopped: func() bool { return stop }}
	buf := make([]byte, 4096)
	r.Read(buf)
	stop = true
	if _, err := r.Read(buf); err != io.EOF {
		t.Fatalf("expected EOF after stop, got %v", err)
	}
}

// TestNewClientRequiresStrategy: a client without a strategy has no
// arrival process, window or payment sizing, so construction refuses it.
func TestNewClientRequiresStrategy(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewClient accepted a nil Strategy")
		}
	}()
	var ids atomic.Uint64
	NewClient(Config{BaseURL: "http://127.0.0.1:1"}, &ids)
}

type readerOnly struct{ r io.Reader }

func (r readerOnly) Read(p []byte) (int, error) { return r.r.Read(p) }

// TestEndToEndGoodVsBad runs a miniature live attack over loopback
// HTTP: one good and one bad client against an overloaded origin. The
// good client, with equal bandwidth, must get a decent share.
func TestEndToEndGoodVsBad(t *testing.T) {
	if testing.Short() {
		t.Skip("5s live-socket attack; skipped with -short")
	}
	origin := web.NewEmulatedOrigin(10)
	front := web.NewFront(origin, web.Config{
		PayPollInterval: 10 * time.Millisecond,
		Thinner: core.Config{
			OrphanTimeout: 2 * time.Second,
			SweepInterval: 200 * time.Millisecond,
		},
	})
	srv := httptest.NewServer(front)
	defer srv.Close()
	defer front.Close()

	// The good client gets 4x the attacker's bandwidth so the expected
	// share (~0.8) leaves a wide margin: this is a real-time test on a
	// shared box and single runs are noisy. Exact proportionality is
	// verified deterministically in internal/scenario.
	var ids atomic.Uint64
	good := NewClient(Config{
		BaseURL: srv.URL, Strategy: poisson(4, 2),
		UploadBits: 32e6, PostBytes: 64 << 10, Seed: 1,
	}, &ids)
	bad := NewClient(Config{
		BaseURL: srv.URL, Strategy: poisson(40, 10),
		UploadBits: 8e6, PostBytes: 64 << 10, Seed: 2,
	}, &ids)
	good.Run()
	bad.Run()
	time.Sleep(4 * time.Second)
	good.Stop()
	bad.Stop()

	g, b := good.Stats.Served.Load(), bad.Stats.Served.Load()
	t.Logf("good served=%d/%d bad served=%d/%d goodPaid=%dB badPaid=%dB",
		g, good.Stats.Offered(), b, bad.Stats.Offered(),
		good.Stats.PaidBytes.Load(), bad.Stats.PaidBytes.Load())
	// This is a wall-clock test on a shared box, so it asserts only
	// liveness: the protocol completes end-to-end for both classes,
	// the attacker cannot shut the good client out entirely, and both
	// paid real bytes. The allocation-proportionality claims are
	// asserted in the deterministic simulator (internal/scenario) and
	// the auction ordering in internal/web's tests.
	if g == 0 {
		t.Fatal("good client starved under speak-up")
	}
	if b == 0 {
		t.Fatal("bad client served nothing; overload scenario broken")
	}
	if g+b < 10 {
		t.Fatalf("only %d requests served in 4s at c=10", g+b)
	}
	if good.Stats.PaidBytes.Load() == 0 || bad.Stats.PaidBytes.Load() == 0 {
		t.Fatal("payment channels never carried bytes")
	}
}

// TestEndToEndAdversaryStrategies drives every registered adversary
// strategy over real loopback HTTP against a live front. This is a
// liveness test: each strategy must issue requests, the protocol must
// terminate, and the front must survive (allocation claims are the
// simulator's job). The flood and defector paths exercise the waiter
// bookkeeping and the inactivity-eviction path respectively.
func TestEndToEndAdversaryStrategies(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-socket runs; skipped with -short")
	}
	for _, name := range adversary.Names() {
		t.Run(name, func(t *testing.T) {
			origin := web.NewEmulatedOrigin(20)
			front := web.NewFront(origin, web.Config{
				PayPollInterval: 5 * time.Millisecond,
				Thinner: core.Config{
					OrphanTimeout:     500 * time.Millisecond,
					InactivityTimeout: 500 * time.Millisecond,
					SweepInterval:     50 * time.Millisecond,
				},
			})
			srv := httptest.NewServer(front)
			defer srv.Close()
			defer front.Close()

			var ids atomic.Uint64
			good := NewClient(Config{
				BaseURL: srv.URL, Strategy: poisson(4, 2),
				UploadBits: 16e6, PostBytes: 32 << 10, Seed: 1,
			}, &ids)
			spec := adversary.Spec{Name: name, Period: 2 * time.Second}
			atk := NewClient(Config{
				BaseURL:  srv.URL,
				Strategy: spec.New(adversary.NewCohort(spec, 1)),
				// Tiny POSTs keep per-request pay time well under the
				// run length at loopback speed.
				UploadBits: 16e6, PostBytes: 32 << 10, Seed: 2,
			}, &ids)
			good.Run()
			atk.Run()
			time.Sleep(2500 * time.Millisecond)
			good.Stop()
			atk.Stop()

			if atk.Stats.Issued.Load() == 0 {
				t.Fatalf("%s issued nothing in 2.5s", name)
			}
			if good.Stats.Served.Load() == 0 {
				t.Fatalf("good client starved under %s in a live run", name)
			}
			t.Logf("%s: issued=%d served=%d failed=%d dropped=%d paid=%dB",
				name, atk.Stats.Issued.Load(), atk.Stats.Served.Load(),
				atk.Stats.Failed.Load(), atk.Stats.Dropped.Load(), atk.Stats.PaidBytes.Load())
		})
	}
}
