package web

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"speakup/internal/core"
)

// BenchmarkFrontPayThroughput measures end-to-end payment ingest over
// real loopback sockets: each parallel worker holds one open POST /pay
// stream and writes one PayChunk-sized chunk per iteration. Bytes/sec
// is the front's payment-sink capacity — the number speak-up cares
// about, since the thinner must absorb vastly more payment traffic
// than the origin serves (§3, §6).
//
// Run with -cpu to see ingest scale with cores; BENCH_PR3.json holds
// the recorded result against the pre-refactor global-lock front.
func BenchmarkFrontPayThroughput(b *testing.B) {
	const chunk = 16 << 10
	// An origin that never finishes keeps the thinner busy so payment
	// channels stay open; timeouts are pushed out so nothing is evicted
	// mid-measurement.
	block := make(chan struct{})
	origin := OriginFunc(func(id core.RequestID) ([]byte, error) {
		<-block
		return nil, nil
	})
	front := NewFront(origin, Config{
		PayChunk: chunk,
		Thinner: core.Config{
			OrphanTimeout:     time.Hour,
			InactivityTimeout: time.Hour,
			SweepInterval:     time.Hour,
		},
	})
	srv := httptest.NewServer(front)
	// Cleanup order matters: unblock the origin first so the held
	// /request handler can return, or srv.Close deadlocks waiting on it.
	defer front.Close()
	defer srv.Close()
	defer close(block)
	// Occupy the origin so the front is in its overloaded regime.
	go http.Get(srv.URL + "/request?id=1")
	time.Sleep(20 * time.Millisecond)

	var ids atomic.Uint64
	ids.Store(1) // id 1 is the in-service request
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	payload := make([]byte, chunk)

	b.SetBytes(chunk)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ids.Add(1)
		pr, pw := io.Pipe()
		req, err := http.NewRequest(http.MethodPost,
			srv.URL+"/pay?id="+strconv.FormatUint(id, 10), pr)
		if err != nil {
			b.Error(err)
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			resp, err := client.Do(req)
			if err != nil {
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}()
		for pb.Next() {
			if _, err := pw.Write(payload); err != nil {
				b.Error(err)
				break
			}
		}
		pw.Close()
		<-done
	})
}
