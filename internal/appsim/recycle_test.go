package appsim

import (
	"testing"
	"time"

	"speakup/internal/core"
	"speakup/internal/netsim"
	"speakup/internal/server"
	"speakup/internal/sim"
	"speakup/internal/simclock"
	"speakup/internal/tcpsim"
)

// The thinner keeps a request's payment connections until it evicts
// the request, long after the client may have closed them. A closed
// pair is reused by the next connection, so evicting the old request
// must not close the connection now paying for a new one. Here request
// 1's payment channel is closed by its client, its Conns come back for
// request 2's channel, and then the orphan sweep evicts request 1.
func TestEvictionSparesRecycledPaymentConn(t *testing.T) {
	loop := sim.NewLoop(3)
	n := netsim.New(loop)
	sw := n.AddNode("switch", nil)
	tn := n.AddNode("thinner", nil)
	n.Connect(sw, tn, 100e6, 250*time.Microsecond, 256*1500)
	cn := n.AddNode("client", nil)
	n.Connect(cn, sw, 2e6, 250*time.Microsecond, 50*1500)
	n.ComputeRoutes()

	clock := simclock.New(loop)
	srv := server.New(clock, server.Config{Capacity: 2, Seed: 5})
	app := NewThinnerApp(tcpsim.NewStack(n, tn, tcpsim.Options{}), clock, srv, ThinnerConfig{
		Mode:    ModeAuction,
		Thinner: core.Config{OrphanTimeout: time.Second, SweepInterval: 100 * time.Millisecond},
	})
	cs := tcpsim.NewStack(n, cn, tcpsim.Options{})

	pay1 := cs.Dial(tn, nil)
	pay1.Write(10_000_000, newMsg(kindPost, 1))
	loop.Run(200 * time.Millisecond)
	e1 := app.reqs[1]
	if e1 == nil || len(e1.pay) != 1 {
		t.Fatal("request 1's payment channel was not registered")
	}
	ref1 := e1.pay[0]
	old := ref1.Conn()
	pay1.Close() // the RST queues behind the POST bytes on the uplink
	loop.Run(600 * time.Millisecond)
	if ref1.Conn() != nil {
		t.Fatal("the closed payment pair was not recycled")
	}

	pay2 := cs.Dial(tn, nil)
	pay2.Write(10_000_000, newMsg(kindPost, 2))
	loop.Run(700 * time.Millisecond)
	e2 := app.reqs[2]
	if e2 == nil || len(e2.pay) != 1 || e2.pay[0].Conn() != old {
		t.Fatal("request 2's payment channel did not reuse request 1's Conn")
	}

	// Request 1 was first paid for at ~0 s, request 2 at ~0.6 s: the
	// sweep at 1.1 s evicts only request 1.
	loop.Run(1200 * time.Millisecond)
	if app.reqs[1] != nil {
		t.Fatal("request 1 was not evicted")
	}
	if pay2.Closed() || old.Closed() {
		t.Fatalf("evicting request 1 closed request 2's payment channel (client closed %v, thinner closed %v)",
			pay2.Closed(), old.Closed())
	}
	loop.Run(2 * time.Second)
	if !pay2.Closed() || app.reqs[2] != nil {
		t.Fatal("request 2's own eviction did not close its channel")
	}
}

// TestSimPaymentCreditAllocs fences the simulated thinner's payment
// path: a payment segment credits the channel its connection keeps,
// without allocating, and the first segment after the channel settles
// allocates only the fresh channel the table opens for it.
func TestSimPaymentCreditAllocs(t *testing.T) {
	loop := sim.NewLoop(3)
	n := netsim.New(loop)
	tn := n.AddNode("thinner", nil)
	cn := n.AddNode("client", nil)
	n.Connect(cn, tn, 100e6, 250*time.Microsecond, 256*1500)
	n.ComputeRoutes()
	clock := simclock.New(loop)
	srv := server.New(clock, server.Config{Capacity: 2, Seed: 5})
	app := NewThinnerApp(tcpsim.NewStack(n, tn, tcpsim.Options{}), clock, srv, ThinnerConfig{Mode: ModeAuction})
	table := app.Auction().Table()
	conn := tcpsim.NewStack(n, cn, tcpsim.Options{}).Dial(tn, nil)
	const id = 7
	tag := newMsg(kindPost, id)
	app.bytesArrived(conn, 1000, tag) // registers the connection
	if avg := testing.AllocsPerRun(1000, func() { app.bytesArrived(conn, 1000, tag) }); avg != 0 {
		t.Fatalf("a credit through the stored channel allocates %.1f, want 0", avg)
	}
	if got := table.Balance(id); got != 1002*1000 {
		t.Fatalf("balance %d, want %d", got, 1002*1000)
	}
	settled := func() {
		table.Remove(id, core.ChanAdmitted)
		app.bytesArrived(conn, 1000, tag)
	}
	settled()
	if avg := testing.AllocsPerRun(1000, settled); avg > 1 {
		t.Fatalf("a credit after a settle allocates %.1f, want at most the new channel", avg)
	}
	if got := table.Balance(id); got != 1000 || len(app.reqs[id].pay) != 1 {
		t.Fatalf("balance %d with %d payment connections, want 1000 on the one", got, len(app.reqs[id].pay))
	}
}
