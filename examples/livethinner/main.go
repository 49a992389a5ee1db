// Live thinner: the real-socket speak-up front-end on loopback.
//
// This example starts the HTTP thinner (paper §6) in front of an
// emulated origin that serves 5 requests/s, then runs one good and one
// bad load-generating client against it over real TCP for a few
// seconds, printing the live auction state once per second. It is the
// same front-end cmd/thinnerd serves; point a browser (or curl) at
// /request?id=123 while it runs to join the auction yourself.
//
// Run with: go run ./examples/livethinner
package main

import (
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"speakup"
	"speakup/internal/adversary"
	"speakup/internal/clients"
	"speakup/internal/loadgen"
)

func main() {
	origin := speakup.NewEmulatedOrigin(5)
	// Shards sets the payment table's concurrency (rounded to a power
	// of two; 0 would pick a GOMAXPROCS-scaled default). Payment chunks
	// credit their channel's atomics without locks, so ingest scales
	// with cores while the auction stays single-threaded.
	front := speakup.NewFront(origin, speakup.FrontConfig{
		Thinner: speakup.ThinnerConfig{Shards: 8},
	})
	defer front.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	srv := &http.Server{Handler: front}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("thinner listening on %s (origin capacity: 5 req/s)\n\n", base)

	// Both clients run the paper's Poisson process (§7.1): arrivals at
	// rate λ, at most w requests outstanding.
	poisson := func(lambda float64, w int) adversary.Strategy {
		return adversary.Spec{Name: "poisson", Lambda: lambda, Window: w}.New(nil)
	}
	var ids atomic.Uint64
	good := loadgen.NewClient(loadgen.Config{
		BaseURL: base, Strategy: poisson(3, 2),
		UploadBits: 8e6, PostBytes: 128 << 10, Workload: clients.Config{Seed: 1},
	}, &ids)
	bad := loadgen.NewClient(loadgen.Config{
		BaseURL: base, Strategy: poisson(30, 8),
		UploadBits: 8e6, PostBytes: 128 << 10, Workload: clients.Config{Seed: 2},
	}, &ids)
	good.Run()
	bad.Run()

	for i := 0; i < 6; i++ {
		time.Sleep(time.Second)
		st := front.Snapshot()
		fmt.Printf("t=%ds  served=%-4d contenders=%-3d going-rate=%6.1fKB  payment sunk=%5.1fMbit/s  (%d shards)\n",
			i+1, st.Served, st.Contenders, float64(st.GoingRate)/1000, st.PaymentMbps, st.Shards)
	}
	good.Stop()
	bad.Stop()

	fmt.Printf("\ngood client: served %d of %d issued (p50 %s)\n",
		good.Workload().Served, good.Workload().Issued, good.Stats.Latency.Quantile(0.5))
	fmt.Printf("bad client:  served %d of %d issued (p50 %s)\n",
		bad.Workload().Served, bad.Workload().Issued, bad.Stats.Latency.Quantile(0.5))
	fmt.Println("\nWith equal uplinks the good client holds a far larger per-request")
	fmt.Println("success rate: its rare requests outbid the attacker's flood.")
}
