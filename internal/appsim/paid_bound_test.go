package appsim

import (
	"testing"
	"time"

	"speakup/internal/clients"
	"speakup/internal/core"
	"speakup/internal/netsim"
	"speakup/internal/server"
	"speakup/internal/sim"
	"speakup/internal/simclock"
	"speakup/internal/tcpsim"
)

// A client cannot have paid more than its uplink could carry. Five bad
// clients on 2 Mbit/s, 200 ms RTT access links contend for a
// two-request server for 25 s; each client's live requests must
// account for at most 2 Mbit/s x 25 s = 6.25 MB of payment that has
// left the host. Bytes written to a payment channel but still queued
// in its socket are part of a request's paid count until the channel
// closes, so they are excluded here.
func TestLivePaidBytesBoundedByUplink(t *testing.T) {
	const (
		uplink   = 2e6 // bit/s
		duration = 25 * time.Second
	)
	loop := sim.NewLoop(1)
	n := netsim.New(loop)
	sw := n.AddNode("switch", nil)
	tn := n.AddNode("thinner", nil)
	n.Connect(sw, tn, 1e9, 250*time.Microsecond, 256*1500)
	var nodes []netsim.NodeID
	for i := 0; i < 5; i++ {
		cn := n.AddNode("c", nil)
		n.Connect(cn, sw, uplink, 100*time.Millisecond, 50*1500)
		nodes = append(nodes, cn)
	}
	n.ComputeRoutes()
	clock := simclock.New(loop)
	srv := server.New(clock, server.Config{Capacity: 2, Seed: 7})
	ts := tcpsim.NewStack(n, tn, tcpsim.Options{})
	NewThinnerApp(ts, clock, srv, ThinnerConfig{Mode: ModeAuction})
	var nextID uint64
	gen := func() core.RequestID { nextID++; return core.RequestID(nextID) }
	var apps []*ClientApp
	for i, cn := range nodes {
		cs := tcpsim.NewStack(n, cn, tcpsim.Options{})
		strat := poisson(40, 20)
		wl := clients.New(clock, clients.Config{Pacer: strat, Seed: int64(i + 5)}, gen)
		apps = append(apps, NewClientApp(cs, wl, tn, Sizes{}, ClientAppConfig{Payer: strat}))
		wl.Start()
	}
	loop.Run(duration)

	limit := int64(uplink / 8 * duration.Seconds())
	for i, app := range apps {
		var sent, paying int64
		for _, r := range app.reqs {
			out := r.paid
			for _, ref := range r.payConns {
				if pc := ref.Conn(); pc != nil && !pc.Closed() {
					out -= pc.PendingBytes()
				}
			}
			if out < 0 {
				t.Errorf("client %d req %d: paid %d B but %d B still queued", i, r.id, r.paid, r.paid-out)
			}
			sent += out
			if r.paying {
				paying++
			}
		}
		if paying == 0 {
			t.Errorf("client %d has no request paying: the bound is not exercised", i)
		}
		if sent > limit {
			t.Errorf("client %d: live requests paid %d B on the wire, more than the %d B its uplink carries in %v",
				i, sent, limit, duration)
		}
	}
}
