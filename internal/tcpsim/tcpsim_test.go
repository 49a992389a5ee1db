package tcpsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"speakup/internal/netsim"
	"speakup/internal/sim"
)

// pair wires two hosts a <-> b with the given link parameters and
// returns their stacks.
type pair struct {
	loop *sim.Loop
	net  *netsim.Network
	a, b *Stack
	ab   *netsim.Link // a -> b direction
	ba   *netsim.Link
}

func newPair(seed int64, rate float64, oneWay time.Duration, qcap int) *pair {
	loop := sim.NewLoop(seed)
	n := netsim.New(loop)
	na := n.AddNode("a", nil)
	nb := n.AddNode("b", nil)
	ab, ba := n.Connect(na, nb, rate, oneWay, qcap)
	n.ComputeRoutes()
	return &pair{
		loop: loop, net: n,
		a: NewStack(n, na, Options{}), b: NewStack(n, nb, Options{}),
		ab: ab, ba: ba,
	}
}

func TestHandshake(t *testing.T) {
	p := newPair(1, 2e6, 10*time.Millisecond, 0)
	var clientOpen, serverOpen sim.Time = -1, -1
	p.b.Listen(func(c *Conn) {
		c.OnOpen = func(*Conn) { serverOpen = p.loop.Now() }
	})
	p.a.Dial(p.b.Node(), func(*Conn) { clientOpen = p.loop.Now() })
	p.loop.Run(time.Second)
	// SYN: 40B @2Mbit/s = 160us + 10ms; SYNACK same back.
	if serverOpen < 10*time.Millisecond || serverOpen > 11*time.Millisecond {
		t.Fatalf("server open at %v", serverOpen)
	}
	if clientOpen < 20*time.Millisecond || clientOpen > 21*time.Millisecond {
		t.Fatalf("client open at %v", clientOpen)
	}
}

func TestSmallTransferDelivery(t *testing.T) {
	p := newPair(1, 2e6, 10*time.Millisecond, 0)
	var gotBytes int
	var gotRecord uint64
	var at sim.Time
	p.b.Listen(func(c *Conn) {
		c.OnBytes = func(_ *Conn, n int, meta uint64) { gotBytes += n }
		c.OnRecord = func(_ *Conn, meta uint64) { gotRecord = meta; at = p.loop.Now() }
	})
	c := p.a.Dial(p.b.Node(), nil)
	c.Write(1000, 7)
	p.loop.Run(time.Second)
	if gotBytes != 1000 {
		t.Fatalf("delivered %d bytes, want 1000", gotBytes)
	}
	if gotRecord != 7 {
		t.Fatalf("record meta = %v", gotRecord)
	}
	// Handshake ~20.3ms + data 1040B*8/2e6 = 4.16ms + 10ms prop.
	if at < 30*time.Millisecond || at > 40*time.Millisecond {
		t.Fatalf("record delivered at %v, want ~34ms", at)
	}
}

func TestRecordBoundariesAndOrder(t *testing.T) {
	p := newPair(2, 8e6, 5*time.Millisecond, 0)
	perMeta := map[uint64]int{}
	var order []uint64
	p.b.Listen(func(c *Conn) {
		c.OnBytes = func(_ *Conn, n int, meta uint64) { perMeta[meta] += n }
		c.OnRecord = func(_ *Conn, meta uint64) { order = append(order, meta) }
	})
	c := p.a.Dial(p.b.Node(), nil)
	c.Write(100, 'a')
	c.Write(5000, 'b')
	c.Write(1, 'c')
	p.loop.Run(5 * time.Second)
	if perMeta['a'] != 100 || perMeta['b'] != 5000 || perMeta['c'] != 1 {
		t.Fatalf("per-record bytes = %v", perMeta)
	}
	if len(order) != 3 || order[0] != 'a' || order[1] != 'b' || order[2] != 'c' {
		t.Fatalf("record order = %v", order)
	}
}

func TestBulkThroughput(t *testing.T) {
	// 1 MB over a 2 Mbit/s, 10ms one-way link: ideal payload time is
	// ~4.2s (incl. header overhead); allow slow-start ramp slack.
	p := newPair(3, 2e6, 10*time.Millisecond, 20000)
	var done sim.Time = -1
	total := 1 << 20
	p.b.Listen(func(c *Conn) {
		c.OnRecord = func(_ *Conn, meta uint64) { done = p.loop.Now() }
	})
	c := p.a.Dial(p.b.Node(), nil)
	c.Write(total, 1)
	p.loop.Run(30 * time.Second)
	if done < 0 {
		t.Fatal("transfer did not complete in 30s")
	}
	if done < 4*time.Second || done > 8*time.Second {
		t.Fatalf("1MB over 2Mbit/s took %v, want 4-8s", done)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	p := newPair(4, 8e6, 25*time.Millisecond, 0)
	var server *Conn
	p.b.Listen(func(c *Conn) { server = c })
	c := p.a.Dial(p.b.Node(), nil)
	if got, want := c.Cwnd(), float64(2*1460); got != want {
		t.Fatalf("initial cwnd = %v, want %v", got, want)
	}
	c.Write(200*1460, 1)
	// After ~4 RTTs of slow start the window must have grown well
	// beyond the initial 2 MSS.
	p.loop.Run(260 * time.Millisecond)
	if c.Cwnd() < 8*1460 {
		t.Fatalf("cwnd after slow start = %.0f, want >= 8 MSS", c.Cwnd())
	}
	_ = server
}

func TestLossRecoveryCompletes(t *testing.T) {
	// Tiny queue forces drops; the transfer must still complete and
	// must have recorded retransmissions.
	p := newPair(5, 2e6, 10*time.Millisecond, 4000)
	var done bool
	total := 300 * 1460
	p.b.Listen(func(c *Conn) {
		c.OnRecord = func(_ *Conn, meta uint64) { done = true }
	})
	c := p.a.Dial(p.b.Node(), nil)
	c.Write(total, 1)
	p.loop.Run(60 * time.Second)
	if !done {
		t.Fatalf("transfer did not complete; delivered=%d/%d outstanding=%d",
			c.BytesSent, total, c.Outstanding())
	}
	if c.Retransmits == 0 {
		t.Fatal("expected retransmissions with a 4000-byte queue")
	}
	if p.ab.Stats.PktsDropped == 0 {
		t.Fatal("expected drops at the bottleneck queue")
	}
}

func TestDeliveredBytesExactUnderLoss(t *testing.T) {
	p := newPair(6, 2e6, 5*time.Millisecond, 3000)
	var delivered int
	total := 100 * 1460
	p.b.Listen(func(c *Conn) {
		c.OnBytes = func(_ *Conn, n int, meta uint64) { delivered += n }
	})
	c := p.a.Dial(p.b.Node(), nil)
	c.Write(total, 1)
	p.loop.Run(120 * time.Second)
	if delivered != total {
		t.Fatalf("delivered %d, want %d (loss must not corrupt the stream)", delivered, total)
	}
	_ = c
}

func TestSYNLossRetransmission(t *testing.T) {
	// Fill the a->b queue with filler so the first SYN is dropped; the
	// retransmitted SYN (~1s later) must establish the connection.
	// Queue capacity 100B: one 50B filler serializes, two fill the
	// queue exactly, so the 40B SYN arriving next is tail-dropped.
	p := newPair(7, 1e5, 5*time.Millisecond, 100)
	filler := &segment{}
	for i := 0; i < 3; i++ {
		p.net.Send(&netsim.Packet{Size: 50, Src: p.a.Node(), Dst: p.b.Node(), Payload: filler})
	}
	p.b.Listen(func(c *Conn) {})
	var openAt sim.Time = -1
	p.a.Dial(p.b.Node(), func(*Conn) { openAt = p.loop.Now() })
	p.loop.Run(5 * time.Second)
	if openAt < 0 {
		t.Fatal("connection never established after SYN loss")
	}
	if openAt < time.Second {
		t.Fatalf("established at %v; first SYN should have been dropped", openAt)
	}
	if p.ab.Stats.PktsDropped == 0 {
		t.Fatal("filler did not cause a drop; test setup broken")
	}
}

func TestAbortPendingTruncatesRecord(t *testing.T) {
	p := newPair(8, 2e6, 10*time.Millisecond, 0)
	var recordFired bool
	var delivered int
	p.b.Listen(func(c *Conn) {
		c.OnBytes = func(_ *Conn, n int, meta uint64) { delivered += n }
		c.OnRecord = func(_ *Conn, meta uint64) { recordFired = true }
	})
	c := p.a.Dial(p.b.Node(), nil)
	c.Write(1<<20, 1)
	p.loop.Run(500 * time.Millisecond) // mid-transfer
	cut := c.AbortPending()
	if cut <= 0 {
		t.Fatal("nothing aborted mid-transfer")
	}
	p.loop.Run(10 * time.Second)
	if recordFired {
		t.Fatal("OnRecord fired for an aborted record")
	}
	want := 1<<20 - int(cut)
	if delivered != want {
		t.Fatalf("delivered %d, want %d (all sent bytes, nothing more)", delivered, want)
	}
}

func TestAbortPendingDropsWholeUnsentRecords(t *testing.T) {
	p := newPair(9, 2e6, 10*time.Millisecond, 0)
	var records []uint64
	p.b.Listen(func(c *Conn) {
		c.OnRecord = func(_ *Conn, meta uint64) { records = append(records, meta) }
	})
	c := p.a.Dial(p.b.Node(), nil)
	c.Write(100000, 1)
	c.Write(100000, 2) // entirely unsent at abort time
	p.loop.Run(150 * time.Millisecond)
	c.AbortPending()
	p.loop.Run(10 * time.Second)
	for _, r := range records {
		if r == 2 {
			t.Fatal("fully-unsent record was delivered")
		}
	}
}

func TestCloseSendsRSTAndPeerSeesIt(t *testing.T) {
	p := newPair(10, 2e6, 10*time.Millisecond, 0)
	var peerClosed bool
	var server *Conn
	p.b.Listen(func(c *Conn) {
		server = c
		c.OnClose = func(*Conn) { peerClosed = true }
	})
	c := p.a.Dial(p.b.Node(), nil)
	c.Write(1000, 1)
	p.loop.Run(100 * time.Millisecond)
	c.Close()
	p.loop.Run(time.Second)
	if !c.Closed() {
		t.Fatal("closer not closed")
	}
	if !peerClosed || !server.Closed() {
		t.Fatal("peer did not observe RST")
	}
	// Writing after close is a no-op, not a panic.
	c.Write(10, 1)
}

func TestServerSideClose(t *testing.T) {
	p := newPair(11, 2e6, 10*time.Millisecond, 0)
	var clientClosed bool
	p.b.Listen(func(c *Conn) {
		c.OnBytes = func(_ *Conn, n int, meta uint64) { c.Close() } // evict on first payment bytes
	})
	c := p.a.Dial(p.b.Node(), nil)
	c.OnClose = func(*Conn) { clientClosed = true }
	c.Write(1<<20, 1)
	p.loop.Run(5 * time.Second)
	if !clientClosed {
		t.Fatal("client did not observe server-side eviction")
	}
	if !c.Closed() {
		t.Fatal("client conn not torn down")
	}
}

func TestBidirectionalData(t *testing.T) {
	p := newPair(12, 8e6, 5*time.Millisecond, 0)
	var atServer, atClient int
	p.b.Listen(func(c *Conn) {
		c.OnBytes = func(_ *Conn, n int, meta uint64) { atServer += n }
		c.OnRecord = func(_ *Conn, meta uint64) { c.Write(5000, 1) }
	})
	c := p.a.Dial(p.b.Node(), nil)
	c.OnBytes = func(_ *Conn, n int, meta uint64) { atClient += n }
	c.Write(2000, 1)
	p.loop.Run(5 * time.Second)
	if atServer != 2000 || atClient != 5000 {
		t.Fatalf("server got %d (want 2000), client got %d (want 5000)", atServer, atClient)
	}
}

func TestSRTTTracksLinkRTT(t *testing.T) {
	p := newPair(13, 8e6, 50*time.Millisecond, 0)
	p.b.Listen(func(c *Conn) {})
	c := p.a.Dial(p.b.Node(), nil)
	c.Write(50*1460, 1)
	p.loop.Run(10 * time.Second)
	// RTT is ~100ms + serialization+queueing; srtt must be in range.
	if c.SRTT() < 100*time.Millisecond || c.SRTT() > 200*time.Millisecond {
		t.Fatalf("srtt = %v, want ~100-200ms", c.SRTT())
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	// Two same-RTT flows through one bottleneck: long-run Reno shares
	// should be roughly even.
	loop := sim.NewLoop(14)
	n := netsim.New(loop)
	c1 := n.AddNode("c1", nil)
	c2 := n.AddNode("c2", nil)
	sw := n.AddNode("sw", nil)
	srv := n.AddNode("srv", nil)
	n.Connect(c1, sw, 10e6, time.Millisecond, 0)
	n.Connect(c2, sw, 10e6, time.Millisecond, 0)
	n.Connect(sw, srv, 4e6, 10*time.Millisecond, 15000)
	n.ComputeRoutes()
	s1 := NewStack(n, c1, Options{})
	s2 := NewStack(n, c2, Options{})
	ss := NewStack(n, srv, Options{})
	got := map[*Stack]int{}
	var conns []*Conn
	ss.Listen(func(c *Conn) {
		conns = append(conns, c)
	})
	d1 := s1.Dial(srv, nil)
	d2 := s2.Dial(srv, nil)
	d1.Write(1<<30, 1)
	d2.Write(1<<30, 1)
	loop.Run(60 * time.Second)
	if len(conns) != 2 {
		t.Fatalf("server accepted %d conns", len(conns))
	}
	b1 := float64(conns[0].BytesDelivered)
	b2 := float64(conns[1].BytesDelivered)
	share := b1 / (b1 + b2)
	if share < 0.3 || share > 0.7 {
		t.Fatalf("unfair split: %.0f vs %.0f bytes (share %.2f)", b1, b2, share)
	}
	// Bottleneck must be well utilized: >=70% of 4 Mbit/s for 60s.
	if total := (b1 + b2) * 8 / 60; total < 0.7*4e6 {
		t.Fatalf("bottleneck underutilized: %.0f bits/s", total)
	}
	_ = got
}

func TestManyConnectionsOneHost(t *testing.T) {
	p := newPair(15, 10e6, 5*time.Millisecond, 50000)
	done := 0
	p.b.Listen(func(c *Conn) {
		c.OnRecord = func(_ *Conn, meta uint64) { done++ }
	})
	for i := 0; i < 20; i++ {
		c := p.a.Dial(p.b.Node(), nil)
		c.Write(50000, uint64(i))
	}
	p.loop.Run(60 * time.Second)
	if done != 20 {
		t.Fatalf("completed %d/20 transfers", done)
	}
}

func TestDialNoListenerTimesOutSilently(t *testing.T) {
	p := newPair(16, 2e6, 5*time.Millisecond, 0)
	opened := false
	c := p.a.Dial(p.b.Node(), func(*Conn) { opened = true })
	p.loop.Run(3 * time.Second)
	if opened || c.Established() {
		t.Fatal("connection established with no listener")
	}
}

func TestWriteZeroPanics(t *testing.T) {
	p := newPair(17, 2e6, 5*time.Millisecond, 0)
	p.b.Listen(func(c *Conn) {})
	c := p.a.Dial(p.b.Node(), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Write(0) did not panic")
		}
	}()
	c.Write(0, 0)
}

func TestOutstandingAndPending(t *testing.T) {
	p := newPair(18, 2e6, 10*time.Millisecond, 0)
	p.b.Listen(func(c *Conn) {})
	c := p.a.Dial(p.b.Node(), nil)
	c.Write(100000, 1)
	if c.PendingBytes() != 100000 {
		t.Fatalf("pending before handshake = %d", c.PendingBytes())
	}
	p.loop.Run(25 * time.Millisecond) // handshake done, initial window sent
	if c.Outstanding() != 2*1460 {
		t.Fatalf("outstanding = %d, want 2 MSS", c.Outstanding())
	}
	p.loop.Run(20 * time.Second)
	if c.Outstanding() != 0 || c.PendingBytes() != 0 {
		t.Fatalf("transfer incomplete: out=%d pending=%d", c.Outstanding(), c.PendingBytes())
	}
}

// Property: for random transfer sizes and queue capacities, every
// stream is delivered exactly once, in order, with matching totals.
func TestQuickStreamIntegrity(t *testing.T) {
	f := func(sizes []uint16, qcap uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 12 {
			sizes = sizes[:12]
		}
		p := newPair(19, 5e6, 2*time.Millisecond, int(qcap)%20000+2000)
		var delivered int
		var order []int
		p.b.Listen(func(c *Conn) {
			c.OnBytes = func(_ *Conn, n int, meta uint64) { delivered += n }
			c.OnRecord = func(_ *Conn, meta uint64) { order = append(order, int(meta)) }
		})
		c := p.a.Dial(p.b.Node(), nil)
		total := 0
		for i, s := range sizes {
			n := int(s)%50000 + 1
			total += n
			c.Write(n, uint64(i))
		}
		p.loop.Run(240 * time.Second)
		if delivered != total {
			return false
		}
		if len(order) != len(sizes) {
			return false
		}
		for i, v := range order {
			if v != i {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: aborting at a random time never delivers more than was
// sent and never fires OnRecord for the truncated record.
func TestQuickAbortSafety(t *testing.T) {
	f := func(abortMs uint8) bool {
		p := newPair(20, 2e6, 5*time.Millisecond, 8000)
		var recordFired bool
		var delivered int64
		p.b.Listen(func(c *Conn) {
			c.OnBytes = func(_ *Conn, n int, meta uint64) { delivered += int64(n) }
			c.OnRecord = func(_ *Conn, meta uint64) { recordFired = true }
		})
		c := p.a.Dial(p.b.Node(), nil)
		c.Write(1<<20, 1)
		p.loop.Run(time.Duration(abortMs) * time.Millisecond)
		cut := c.AbortPending()
		p.loop.Run(120 * time.Second)
		want := int64(1<<20) - cut
		if cut == 0 {
			// Abort after full send: record must arrive whole.
			return recordFired && delivered == 1<<20
		}
		return !recordFired && delivered == want
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
