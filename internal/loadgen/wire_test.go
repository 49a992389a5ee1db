package loadgen

import (
	"net"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"speakup/internal/core"
	"speakup/internal/web"
	"speakup/internal/wire"
)

// TestEndToEndWireTransport runs the miniature live attack over the
// binary framed transport: good and bad clients multiplex OPEN/CREDIT
// frames on persistent connections against the same front the HTTP
// test uses. Liveness assertions only, like the HTTP end-to-end test;
// throughput is measured by e2ebench's wire_flood workload.
func TestEndToEndWireTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("4s live-socket attack; skipped with -short")
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

	wsrv := wire.NewServer(front, wire.ServerConfig{Registry: front.Registry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go wsrv.Serve(ln)
	defer wsrv.Close()

	var ids atomic.Uint64
	good := NewClient(Config{
		BaseURL: srv.URL, Strategy: poisson(4, 2),
		UploadBits: 32e6, PostBytes: 64 << 10, Seed: 1,
		Transport: "wire", WireAddr: ln.Addr().String(),
	}, &ids)
	bad := NewClient(Config{
		BaseURL: srv.URL, Strategy: poisson(40, 10),
		UploadBits: 8e6, PostBytes: 64 << 10, Seed: 2,
		Transport: "wire", WireAddr: ln.Addr().String(),
	}, &ids)
	good.Run()
	bad.Run()
	time.Sleep(3 * time.Second)
	good.Stop()
	bad.Stop()

	g, b := good.Stats.Served.Load(), bad.Stats.Served.Load()
	t.Logf("good served=%d/%d bad served=%d/%d goodPaid=%dB badPaid=%dB",
		g, good.Stats.Offered(), b, bad.Stats.Offered(),
		good.Stats.PaidBytes.Load(), bad.Stats.PaidBytes.Load())
	if g == 0 {
		t.Fatal("good client starved over the wire transport")
	}
	if g+b < 10 {
		t.Fatalf("only %d requests served in 3s at c=10", g+b)
	}
	if good.Stats.PaidBytes.Load() == 0 || bad.Stats.PaidBytes.Load() == 0 {
		t.Fatal("payment frames never carried bytes")
	}
	// The front's registry saw the wire traffic: frames decoded and
	// payment bytes credited through RecordWireRead.
	snap := front.Telemetry()
	if snap.WireFrames == 0 || snap.WireIngestBytes == 0 {
		t.Fatalf("wire telemetry empty: %+v", snap)
	}
}
