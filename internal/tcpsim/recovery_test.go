package tcpsim

import (
	"testing"
	"time"

	"speakup/internal/netsim"
	"speakup/internal/sim"
)

func TestLimitedTransmitKeepsAckClockAlive(t *testing.T) {
	// Small flight (4 segments), drop the first: without limited
	// transmit + early retransmit the sender would RTO (>=200ms);
	// with them, recovery happens within a few RTTs.
	p := newPair(31, 8e6, 10*time.Millisecond, 0)
	var done sim.Time = -1
	p.b.Listen(func(c *Conn) {
		c.OnRecord = func(_ *Conn, meta uint64) { done = p.loop.Now() }
	})
	c := p.a.Dial(p.b.Node(), nil)

	// Drop exactly the first data segment at the receiving node by
	// swapping the handler once.
	droppedFirst := false
	orig := p.b
	handler := func(pkt *netsim.Packet) {
		seg := pkt.Payload.(*segment)
		if seg.length > 0 && !droppedFirst {
			droppedFirst = true
			return // lost
		}
		orig.handlePacket(pkt)
	}
	p.net.SetHandler(p.b.Node(), handler)

	c.Write(6*1460, 1)
	p.loop.Run(5 * time.Second)
	if done < 0 {
		t.Fatal("transfer never completed after single loss")
	}
	if !droppedFirst {
		t.Fatal("test harness failed to drop a segment")
	}
	// Handshake ~20ms + a few RTTs of recovery; an RTO would push past
	// 1s (initial RTO) since no RTT sample precedes the loss.
	if done > 500*time.Millisecond {
		t.Fatalf("recovery took %v; dupACK-driven recovery expected, not RTO", done)
	}
	if c.Retransmits == 0 {
		t.Fatal("no retransmission recorded")
	}
}

func TestEarlyRetransmitTinyFlight(t *testing.T) {
	// Flight of 2 segments, first one lost, no new data to send: only
	// 1 dupACK can ever arrive, so classic Reno would wait for RTO.
	// Early retransmit must recover faster than the 1s initial RTO.
	p := newPair(33, 8e6, 10*time.Millisecond, 0)
	var done sim.Time = -1
	p.b.Listen(func(c *Conn) {
		c.OnRecord = func(_ *Conn, meta uint64) { done = p.loop.Now() }
	})
	c := p.a.Dial(p.b.Node(), nil)
	droppedFirst := false
	orig := p.b
	p.net.SetHandler(p.b.Node(), func(pkt *netsim.Packet) {
		seg := pkt.Payload.(*segment)
		if seg.length > 0 && !droppedFirst {
			droppedFirst = true
			return
		}
		orig.handlePacket(pkt)
	})
	c.Write(2*1460, 1)
	p.loop.Run(5 * time.Second)
	if done < 0 {
		t.Fatal("transfer never completed")
	}
	if done > 900*time.Millisecond {
		t.Fatalf("early retransmit did not engage: completed at %v (RTO path)", done)
	}
}

func TestRTOBackoffExponential(t *testing.T) {
	// Blackhole everything after the handshake: retransmissions must
	// space out exponentially and stay bounded by RTOMax.
	p := newPair(35, 8e6, 5*time.Millisecond, 0)
	p.b.Listen(func(c *Conn) {})
	c := p.a.Dial(p.b.Node(), nil)
	p.loop.Run(50 * time.Millisecond) // handshake completes
	blackhole := true
	orig := p.b
	var arrivals []sim.Time
	p.net.SetHandler(p.b.Node(), func(pkt *netsim.Packet) {
		seg := pkt.Payload.(*segment)
		if blackhole && seg.length > 0 {
			arrivals = append(arrivals, p.loop.Now())
			return
		}
		orig.handlePacket(pkt)
	})
	c.Write(1460, 1)
	p.loop.Run(60 * time.Second)
	if len(arrivals) < 4 {
		t.Fatalf("only %d retransmission attempts", len(arrivals))
	}
	// Gaps grow (roughly doubling until the cap).
	g1 := arrivals[1].Nanoseconds() - arrivals[0].Nanoseconds()
	g2 := arrivals[2].Nanoseconds() - arrivals[1].Nanoseconds()
	g3 := arrivals[3].Nanoseconds() - arrivals[2].Nanoseconds()
	if !(g2 > g1 && g3 > g2) {
		t.Fatalf("gaps not growing: %v %v %v", g1, g2, g3)
	}
	if c.Timeouts < 3 {
		t.Fatalf("timeouts = %d", c.Timeouts)
	}
}

func TestNewRenoPartialAckRecovery(t *testing.T) {
	// Drop two separate segments in one window: NewReno must recover
	// both via partial ACKs without collapsing to repeated RTOs.
	p := newPair(37, 8e6, 10*time.Millisecond, 0)
	var done sim.Time = -1
	p.b.Listen(func(c *Conn) {
		c.OnRecord = func(_ *Conn, meta uint64) { done = p.loop.Now() }
	})
	c := p.a.Dial(p.b.Node(), nil)
	toDrop := map[int]bool{3: true, 5: true}
	ordinal := 0
	orig := p.b
	p.net.SetHandler(p.b.Node(), func(pkt *netsim.Packet) {
		seg := pkt.Payload.(*segment)
		if seg.length > 0 {
			ordinal++
			if toDrop[ordinal] {
				delete(toDrop, ordinal)
				return
			}
		}
		orig.handlePacket(pkt)
	})
	c.Write(30*1460, 1)
	p.loop.Run(10 * time.Second)
	if done < 0 {
		t.Fatal("transfer never completed with two losses")
	}
	if c.Timeouts > 1 {
		t.Fatalf("NewReno should avoid RTO storms: %d timeouts", c.Timeouts)
	}
}

func TestCwndFloorAfterRTO(t *testing.T) {
	p := newPair(39, 2e6, 10*time.Millisecond, 3000)
	p.b.Listen(func(c *Conn) {})
	c := p.a.Dial(p.b.Node(), nil)
	c.Write(1<<20, 1)
	p.loop.Run(30 * time.Second)
	if c.Cwnd() < 1460 {
		t.Fatalf("cwnd fell below 1 MSS: %v", c.Cwnd())
	}
}
