package tcpsim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"speakup/internal/netsim"
	"speakup/internal/sim"
)

// Reassembly, driven segment by segment: a receiver fed hand-built
// segments in permuted order must deliver exactly one sequence of
// OnBytes/OnRecord calls. Two of the buffered runs overlap and both
// become drainable at once, so any drain order other than by start
// offset would split the bytes differently; run with -count=50 to
// catch an order that depends on map iteration.
func TestOutOfOrderReassembly(t *testing.T) {
	p := newPair(21, 2e6, 5*time.Millisecond, 0)
	snd := p.a.newConn(p.b.Node())
	rcv := p.b.newConn(p.a.Node())
	snd.peer, rcv.peer = rcv, snd
	rcv.established = true
	// Unestablished, so Write only records: [0,1000) [1000,3000)
	// [3000,3500) [3500,6000).
	snd.Write(1000, 'A')
	snd.Write(2000, 'B')
	snd.Write(500, 'C')
	snd.Write(2500, 'D')

	var got []string
	rcv.OnBytes = func(_ *Conn, n int, meta uint64) { got = append(got, fmt.Sprintf("bytes %d %c", n, meta)) }
	rcv.OnRecord = func(_ *Conn, meta uint64) { got = append(got, fmt.Sprintf("record %c", meta)) }
	feed := func(start, end int64) {
		seg := &segment{sender: snd, seq: start, length: int(end - start)}
		p.b.dispatch(seg, p.a.Node())
	}

	feed(2000, 2400)
	feed(5000, 6000)
	feed(2000, 3200) // same start, longer end: replaces [2000,2400)
	feed(2500, 4000) // overlaps [2000,3200)
	feed(5000, 5400) // same start, shorter end: [5000,6000) stays
	if len(got) != 0 {
		t.Fatalf("out-of-order segments delivered early: %q", got)
	}
	want := []oooRun{{2000, 3200}, {2500, 4000}, {5000, 6000}}
	if !slices.Equal(rcv.ooo, want) {
		t.Fatalf("buffered runs = %v, want %v", rcv.ooo, want)
	}

	feed(0, 2600)    // both overlapping runs now reachable
	feed(4000, 5000) // fills the last hole
	feed(1000, 2000) // stale duplicate: no callbacks
	want2 := []string{
		"bytes 1000 A", "record A", "bytes 1600 B", // advance to 2600
		"bytes 400 B", "record B", "bytes 200 C", // [2000,3200)
		"bytes 300 C", "record C", "bytes 500 D", // [2500,4000)
		"bytes 1000 D",             // [4000,5000)
		"bytes 1000 D", "record D", // [5000,6000)
	}
	if !slices.Equal(got, want2) {
		t.Fatalf("callbacks:\n got %q\nwant %q", got, want2)
	}
	if rcv.rcvNxt != 6000 || rcv.BytesDelivered != 6000 || len(rcv.ooo) != 0 {
		t.Fatalf("rcvNxt=%d delivered=%d buffered=%v, want 6000, 6000, none",
			rcv.rcvNxt, rcv.BytesDelivered, rcv.ooo)
	}
}

// A connection that only ever receives in order allocates no
// out-of-order buffer.
func TestInOrderTransferBuffersNothing(t *testing.T) {
	p := newPair(22, 8e6, 5*time.Millisecond, 0)
	var server *Conn
	p.b.Listen(func(c *Conn) { server = c })
	c := p.a.Dial(p.b.Node(), nil)
	c.Write(100*1460, 1)
	p.loop.Run(5 * time.Second)
	if server == nil || server.BytesDelivered != 100*1460 {
		t.Fatal("transfer did not complete")
	}
	if server.ooo != nil || c.ooo != nil {
		t.Fatalf("in-order transfer allocated out-of-order buffers: %v %v", server.ooo, c.ooo)
	}
}

// Segments find their connection through the sender's peer link, set
// once when the SYN is accepted. A retransmitted SYN whose SYNACK was
// lost must re-SYNACK from the accepted connection, not accept again.
func TestRetransmittedSYNReSYNACKs(t *testing.T) {
	// Queue capacity 100B: in the accept handler, which runs before
	// the SYNACK is sent, three 50B fillers put one on the b->a wire
	// and fill the queue behind it, so the SYNACK is tail-dropped.
	p := newPair(23, 1e5, 5*time.Millisecond, 100)
	var accepted []*Conn
	var atServer int
	p.b.Listen(func(c *Conn) {
		accepted = append(accepted, c)
		c.OnBytes = func(_ *Conn, n int, _ uint64) { atServer += n }
		if len(accepted) == 1 {
			for i := 0; i < 3; i++ {
				p.net.Send(&netsim.Packet{Size: 50, Src: p.b.Node(), Dst: p.a.Node(), Payload: &segment{}})
			}
		}
	})
	var openAt sim.Time = -1
	c := p.a.Dial(p.b.Node(), func(*Conn) { openAt = p.loop.Now() })
	c.Write(1000, 1)
	p.loop.Run(5 * time.Second)
	if p.ba.Stats.PktsDropped != 1 {
		t.Fatalf("b->a drops = %d, want 1 (the SYNACK); test setup broken", p.ba.Stats.PktsDropped)
	}
	if openAt < time.Second {
		t.Fatalf("client opened at %v; it must wait for the retransmitted SYN", openAt)
	}
	if len(accepted) != 1 {
		t.Fatalf("accept called %d times, want 1", len(accepted))
	}
	if c.peer != accepted[0] || accepted[0].peer != c {
		t.Fatal("client and accepted connection are not linked to each other")
	}
	if atServer != 1000 {
		t.Fatalf("accepted connection received %d bytes, want 1000", atServer)
	}
}

// After either side tears down, segments still in flight toward it are
// dropped on arrival: no callback fires on the closed connection, and
// the other side sees exactly one OnClose.
func TestInFlightSegmentsAfterTeardown(t *testing.T) {
	for _, closer := range []string{"client", "server"} {
		t.Run(closer, func(t *testing.T) {
			p := newPair(24, 2e6, 20*time.Millisecond, 0)
			var server *Conn
			var serverCalls, serverCloses int
			p.b.Listen(func(c *Conn) {
				server = c
				c.OnBytes = func(*Conn, int, uint64) { serverCalls++ }
				c.OnRecord = func(*Conn, uint64) { serverCalls++ }
				c.OnClose = func(*Conn) { serverCloses++ }
				c.Write(1<<20, 1)
			})
			client := p.a.Dial(p.b.Node(), nil)
			var clientCalls, clientCloses int
			client.OnBytes = func(*Conn, int, uint64) { clientCalls++ }
			client.OnRecord = func(*Conn, uint64) { clientCalls++ }
			client.OnClose = func(*Conn) { clientCloses++ }
			client.Write(1<<20, 1)
			p.loop.Run(300 * time.Millisecond) // both directions mid-transfer

			closed, calls, closes, peerCloses := client, &clientCalls, &clientCloses, &serverCloses
			if closer == "server" {
				closed, calls, closes, peerCloses = server, &serverCalls, &serverCloses, &clientCloses
			}
			if *calls == 0 {
				t.Fatal("no data reached the closing side before Close; test setup broken")
			}
			// Count what still arrives at the closing side's node.
			node := closed.stack.Node()
			arrived := 0
			p.net.SetHandler(node, func(pkt *netsim.Packet) {
				arrived++
				closed.stack.handlePacket(pkt)
			})
			before := *calls
			closed.Close()
			p.loop.Run(5 * time.Second)
			if arrived == 0 {
				t.Fatal("nothing was in flight toward the closed side; test setup broken")
			}
			if *calls != before || *closes != 0 {
				t.Fatalf("%d segments arrived after Close and fired %d data callbacks and %d OnClose on the closed connection",
					arrived, *calls-before, *closes)
			}
			if *peerCloses != 1 || !client.Closed() || !server.Closed() {
				t.Fatalf("peer OnClose fired %d times (want 1); closed: client=%v server=%v",
					*peerCloses, client.Closed(), server.Closed())
			}
		})
	}
}
