package tcpsim

import (
	"testing"
	"time"

	"speakup/internal/netsim"
	"speakup/internal/sim"
)

// Steady-state regression fence for the TCP data path. An established
// connection moving data allocates no segments (pooled per stack), no
// packets (pooled per network), and no events (arena): without the
// pools this loop costs ~30 objects per iteration. The threshold dates
// from when the record log was compacted into a new slice every few
// hundred records; it now shifts down in place, and the loop reads 0.
func TestEstablishedDataFlowNearZeroAlloc(t *testing.T) {
	loop := sim.NewLoop(1)
	loop.Grow(256)
	n := netsim.New(loop)
	a := n.AddNode("a", nil)
	b := n.AddNode("b", nil)
	n.Connect(a, b, 10e6, time.Millisecond, 0)
	n.ComputeRoutes()
	sa := NewStack(n, a, Options{})
	sb := NewStack(n, b, Options{})
	sb.Listen(func(c *Conn) {})
	conn := sa.Dial(b, nil)
	conn.Write(100_000, 1) // handshake + slow start + pool warm-up
	loop.RunAll()
	if !conn.Established() {
		t.Fatal("connection did not establish")
	}

	iter := func() {
		conn.Write(10*sa.Options().MSS, 1)
		loop.RunAll()
	}
	iter()
	avg := testing.AllocsPerRun(500, iter)
	if avg > 0.1 {
		t.Fatalf("steady-state data flow allocates %.2f objects/op, want ~0 (record bookkeeping only)", avg)
	}
}

// segmentCensus runs a one-sided workload for d of virtual time and
// drains it: eight clients each dial one listener every 50 ms and
// upload 100 segments, and the listener closes each connection once
// 20 segments have arrived, as the thinner evicts a payment channel,
// so a window of client segments is still in flight when it does.
// With no queue limits nothing is dropped, so once drained every
// segment ever allocated sits in some free list: it returns the
// listener's free list length and the total over all stacks.
func segmentCensus(d time.Duration) (server, total int) {
	loop := sim.NewLoop(1)
	n := netsim.New(loop)
	sw := n.AddNode("switch", nil)
	sn := n.AddNode("server", nil)
	n.Connect(sw, sn, 100e6, time.Millisecond, 0)
	var clients []netsim.NodeID
	for i := 0; i < 8; i++ {
		cn := n.AddNode("client", nil)
		n.Connect(cn, sw, 10e6, 5*time.Millisecond, 0)
		clients = append(clients, cn)
	}
	n.ComputeRoutes()

	srv := NewStack(n, sn, Options{})
	mss := srv.Options().MSS
	srv.Listen(func(c *Conn) {
		got := 0
		c.OnBytes = func(_ *Conn, k int, _ uint64) {
			if got += k; got >= 20*mss && !c.Closed() {
				c.Close()
			}
		}
	})
	stacks := []*Stack{srv}
	for i, cn := range clients {
		cs := NewStack(n, cn, Options{})
		stacks = append(stacks, cs)
		var dial func()
		dial = func() {
			cs.Dial(sn, nil).Write(100*mss, 1)
			if next := loop.Now() + 50*time.Millisecond; next < d {
				loop.Schedule(next, dial)
			}
		}
		loop.Schedule(time.Duration(i)*time.Millisecond, dial)
	}
	loop.RunAll()
	for _, s := range stacks {
		total += len(s.segFree)
	}
	return len(srv.segFree), total
}

// Traffic into a listener is asymmetric: the thinner receives far more
// segments than it sends. Recycled segments must return to the stack
// that allocated them, or the listener's free list grows without bound
// while the clients allocate fresh segments forever. Quadrupling the
// run length must not grow either.
func TestOneSidedTrafficRecyclesSegments(t *testing.T) {
	shortSrv, shortTotal := segmentCensus(2 * time.Second)
	longSrv, longTotal := segmentCensus(8 * time.Second)
	t.Logf("listener free list %d -> %d, segments allocated %d -> %d",
		shortSrv, longSrv, shortTotal, longTotal)
	if longSrv > shortSrv+shortSrv/10 {
		t.Errorf("listener free list grew with run length: %d -> %d", shortSrv, longSrv)
	}
	if longTotal > shortTotal+shortTotal/10 {
		t.Errorf("segment allocations grew with run length: %d -> %d", shortTotal, longTotal)
	}
}
