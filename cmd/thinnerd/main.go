// Command thinnerd serves the speak-up thinner over HTTP, protecting
// an emulated origin — the live counterpart of the paper's §6
// prototype, hardened into a real daemon.
//
// Usage:
//
//	thinnerd [-addr :8080] [-wire-addr :8081] [-capacity 10]
//	         [-orphan 10s] [-scenario live_default] [-shards 0]
//	         [-drain 15s] [-pprof localhost:6060]
//	         [-fault-drop 0.1] [-fault-delay 50ms] [-fault-reset 0.01]
//	         [-fault-seed 1] [-trace-sample 1024]
//
// -trace-sample enables sampled request-lifecycle tracing: one in N
// request ids (hash-based, so the HTTP and wire events of one id land
// in one record) is traced arrive→wait→auction→settle. Read traces
// back at GET /trace (NDJSON, ?n=&id=) and the derived latency
// histograms at GET /metrics (Prometheus text format). Off by
// default; when off, /trace answers 404 and the hot paths pay zero.
//
// -wire-addr adds a second listener speaking the binary framed
// payment transport (internal/wire): persistent TCP connections
// multiplexing OPEN/CREDIT/CLOSE frames against the same bid table,
// auction, brownout ladder, and fault injector as the HTTP front.
// Drive it with cmd/loadgen -transport wire.
//
// The -fault-* flags wrap the listener in a fault injector for
// resilience testing: accepted connections are dropped outright with
// probability -fault-drop, reads are delayed by up to -fault-delay,
// and connections are reset mid-stream (payment POSTs included) with
// per-read probability -fault-reset — all deterministic in
// -fault-seed. /healthz reports readiness (listener up, sweep chain
// alive, origin reachable) for probes and orchestration.
//
// The daemon serves one scenario document (the internal/config schema
// shared with cmd/repro, cmd/loadgen and the simulator): the -scenario
// file, a disk path or an embedded configs/ name, or the embedded
// live_default when none is given. It serves the document's capacity
// and thinner section, with any explicitly set -capacity, -orphan and
// -shards written over them. The document must declare mode "auction"
// — that is the only policy the live front serves.
//
// Endpoints: /request?id=N (the request; 402 + Speakup-Action: pay
// when the origin is busy), /pay?id=N (payment channel: stream dummy
// POST bodies), /stats (JSON counters), /telemetry (NDJSON metrics
// stream, ?interval=1s), /control/config (GET the live thinner
// config; POST a partial config to reconfigure safely under load —
// shard changes are rejected, and a mid-brownout POST is refused with
// 503 + Retry-After until the origin recovers). Config responses and
// /stats carry a canonical config_hash — the convergence identity
// cmd/fleetctl verifies staged rollouts against; the daemon logs it
// at startup. Drive it with cmd/loadgen or curl:
//
//	curl 'http://localhost:8080/request?id=1'
//	curl -X POST --data-binary @bigfile 'http://localhost:8080/pay?id=2'
//	curl 'http://localhost:8080/telemetry?interval=500ms'
//	curl -X POST -d '{"sweep_interval":"200ms"}' 'http://localhost:8080/control/config'
//
// Payment ingest is sharded (-shards, rounded up to a power of two,
// default GOMAXPROCS-scaled): every /pay stream credits its channel's
// atomics without locks, so ingest scales with cores. SIGINT/SIGTERM
// drains gracefully: the listener closes, in-flight requests get
// -drain to finish, then the front's timers stop.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only on -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"speakup"
	"speakup/configs"
	"speakup/internal/config"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	wireAddr := flag.String("wire-addr", "", "optional binary payment-transport listen address (e.g. :8081)")
	capacity := flag.Float64("capacity", 10, "origin capacity in requests/second")
	orphan := flag.Duration("orphan", 10*time.Second, "evict request-less payment channels after this long")
	scenarioFile := flag.String("scenario", "", "scenario file supplying capacity and thinner knobs (disk path or embedded configs/ name; default live_default); explicit flags write over it")
	shards := flag.Int("shards", 0, "bid-table shard count, rounded up to a power of two (0 = GOMAXPROCS-scaled)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight requests")
	pprofAddr := flag.String("pprof", "", "optional net/http/pprof listen address (e.g. localhost:6060)")
	faultDrop := flag.Float64("fault-drop", 0, "probability an accepted connection is dropped immediately")
	faultDelay := flag.Duration("fault-delay", 0, "max random extra delay injected per read")
	faultReset := flag.Float64("fault-reset", 0, "per-read probability a connection is reset mid-stream")
	faultSeed := flag.Int64("fault-seed", 1, "seed for the listener fault injector")
	traceSample := flag.Int("trace-sample", 0, "trace one in this many request ids (rounded up to a power of two; 0 disables tracing and /trace)")
	flag.Parse()

	name := *scenarioFile
	if name == "" {
		name = "live_default"
	}
	doc, err := config.Resolve(configs.FS, name)
	if err != nil {
		log.Fatalf("scenario: %v", err)
	}
	if doc.Mode != "auction" {
		log.Fatalf("scenario %s: mode %q cannot drive the live thinner (only \"auction\" is served over HTTP)", name, doc.Mode)
	}
	var th config.Thinner // zero fields take core's defaults
	if doc.Thinner != nil {
		th = *doc.Thinner
	}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "capacity":
			doc.Capacity = *capacity
		case "orphan":
			th.OrphanTimeout = config.Duration(*orphan)
		case "shards":
			th.Shards = *shards
		}
	})
	if th != (config.Thinner{}) {
		doc.Thinner = &th
	}
	if err := doc.Validate(); err != nil {
		log.Fatalf("%s: %v", name, err)
	}
	capRPS, thcfg := doc.Capacity, th.Core()
	log.Printf("scenario %s (config %s): capacity %.1f req/s, thinner %+v",
		name, config.ShortHash(doc), capRPS, thcfg)

	origin := speakup.NewEmulatedOrigin(capRPS)
	front := speakup.NewFront(origin, speakup.FrontConfig{
		Thinner: thcfg,
		Trace:   speakup.TraceConfig{Sample: *traceSample},
	})
	if *traceSample > 0 {
		log.Printf("request-lifecycle tracing on: 1 in %d ids (GET /trace?n=&id=, histograms on /metrics)",
			front.Tracer().SampleN())
	}

	srv := &http.Server{
		Addr:    *addr,
		Handler: front,
		// Bound header reads so a header-slowloris cannot pin
		// connections; body reads stay unbounded — /pay streams long
		// payment bodies by design, and /request holds its response
		// until the auction is won.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	if *pprofAddr != "" {
		go func() {
			log.Printf("pprof listening on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("pprof server: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	cf := speakup.ConnFaults{
		DropProb: *faultDrop, Delay: *faultDelay, ResetProb: *faultReset, Seed: *faultSeed,
	}
	if cf.Enabled() {
		ln = speakup.WrapFaultListener(ln, cf)
		log.Printf("fault injection armed: drop=%.3g delay<=%s reset=%.3g seed=%d",
			cf.DropProb, cf.Delay, cf.ResetProb, cf.Seed)
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	var wireSrv *speakup.WireServer
	if *wireAddr != "" {
		wln, err := net.Listen("tcp", *wireAddr)
		if err != nil {
			log.Fatal(err)
		}
		if cf.Enabled() {
			// The same injector seed wraps both listeners, so chaos
			// runs stress the binary transport too.
			wln = speakup.WrapFaultListener(wln, cf)
		}
		wireSrv = speakup.NewWireServer(front, speakup.WireServerConfig{
			Registry: front.Registry(),
			Tracer:   front.Tracer(),
		})
		go func() {
			if err := wireSrv.Serve(wln); err != nil {
				errc <- fmt.Errorf("wire listener: %w", err)
			}
		}()
		log.Printf("binary payment transport on %s (frames: OPEN/CREDIT/CLOSE)", *wireAddr)
	}
	log.Printf("speak-up thinner on %s (origin capacity %.1f req/s, %d ingest shards)",
		*addr, capRPS, front.Table().Shards())
	// The effective config's canonical hash — what /control/config and
	// /stats report, and what fleetctl verifies convergence against.
	log.Printf("config hash %s (thinner %+v)",
		speakup.ThinnerConfigHash(front.ThinnerConfig()), front.ThinnerConfig())
	log.Printf("endpoints: /request?id=N  /pay?id=N  /stats  /metrics  /trace  /healthz  /telemetry  /control/config")

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills hard

	log.Printf("shutdown: draining in-flight requests for up to %s", *drain)
	if wireSrv != nil {
		// Wire connections are long-lived by design; close them
		// outright (their waiters release) and let HTTP drain.
		wireSrv.Close()
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("drain incomplete (%v); closing remaining connections", err)
		srv.Close()
	}
	front.Close()
	st := front.Snapshot()
	log.Printf("final: served=%d payment=%0.1f MB (%.1f Mbit/s) auctions=%d evicted=%d",
		st.Served, float64(st.PaymentBytes)/1e6, st.PaymentMbps,
		st.ThinnerTotals.Auctions, st.ThinnerTotals.Evicted)
}
