package netsim

import (
	"testing"
	"time"

	"speakup/internal/sim"
)

// Steady-state regression fence for the packet hot path: once the
// packet pool, ring buffers, and event arena are warm, pushing a
// packet through a link — enqueue, serialize, propagate, deliver,
// reclaim — must not allocate at all.

func TestLinkTransmitDeliverZeroAlloc(t *testing.T) {
	loop := sim.NewLoop(1)
	loop.Grow(64)
	n := New(loop)
	a := n.AddNode("a", nil)
	delivered := 0
	b := n.AddNode("b", func(p *Packet) { delivered++ })
	n.Connect(a, b, 8e6, time.Millisecond, 0)
	n.ComputeRoutes()

	send := func() {
		pkt := n.NewPacket()
		pkt.Size, pkt.Src, pkt.Dst = 1000, a, b
		n.Send(pkt)
		loop.RunAll()
	}
	send() // warm the pool
	if avg := testing.AllocsPerRun(1000, send); avg != 0 {
		t.Fatalf("packet transmit+delivery allocates %.1f objects/op, want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("no packets delivered")
	}
}

// Queued traffic exercises the ring buffer as well: bursts deep enough
// to queue must also be allocation-free once the ring has grown.
func TestQueuedBurstZeroAlloc(t *testing.T) {
	loop := sim.NewLoop(1)
	loop.Grow(64)
	n := New(loop)
	a := n.AddNode("a", nil)
	b := n.AddNode("b", func(p *Packet) {})
	n.Connect(a, b, 8e6, time.Millisecond, 0)
	n.ComputeRoutes()

	burst := func() {
		for i := 0; i < 8; i++ { // 7 of these queue behind the first
			pkt := n.NewPacket()
			pkt.Size, pkt.Src, pkt.Dst = 1000, a, b
			n.Send(pkt)
		}
		loop.RunAll()
	}
	burst() // warm pool + ring
	if avg := testing.AllocsPerRun(500, burst); avg != 0 {
		t.Fatalf("queued burst allocates %.1f objects/op, want 0", avg)
	}
}

// Drops must be allocation-free too (the dropped packet returns to the
// pool).
func TestDropZeroAlloc(t *testing.T) {
	loop := sim.NewLoop(1)
	loop.Grow(64)
	n := New(loop)
	a := n.AddNode("a", nil)
	b := n.AddNode("b", func(p *Packet) {})
	n.Connect(a, b, 8e6, time.Millisecond, 1000) // tiny queue: bursts drop
	n.ComputeRoutes()

	burst := func() {
		for i := 0; i < 4; i++ {
			pkt := n.NewPacket()
			pkt.Size, pkt.Src, pkt.Dst = 1000, a, b
			n.Send(pkt)
		}
		loop.RunAll()
	}
	burst()
	if avg := testing.AllocsPerRun(500, burst); avg != 0 {
		t.Fatalf("drop path allocates %.1f objects/op, want 0", avg)
	}
	if n.Links()[0].Stats.PktsDropped == 0 {
		t.Fatal("expected drops")
	}
}

// poolPayload is a payload from a free list, the way tcpsim's segments
// are pooled.
type poolPayload struct{ free *[]*poolPayload }

func (p *poolPayload) Recycle() { *p.free = append(*p.free, p) }

// A payload lost to drop-tail or to a loss fault goes back to its pool,
// and one delivered does not: with every packet's payload drawn from a
// pool and returned on delivery by the handler, a lossy link allocates
// nothing and the pool ends as deep as it began.
func TestDropRecyclesPayload(t *testing.T) {
	loop := sim.NewLoop(1)
	loop.Grow(64)
	n := New(loop)
	var free []*poolPayload
	for i := 0; i < 8; i++ {
		free = append(free, &poolPayload{free: &free})
	}
	a := n.AddNode("a", nil)
	delivered := 0
	b := n.AddNode("b", func(p *Packet) {
		delivered++
		p.Payload.(*poolPayload).Recycle()
	})
	l, _ := n.Connect(a, b, 8e6, time.Millisecond, 1000) // tiny queue: bursts drop
	n.ComputeRoutes()
	l.SetFault(FaultState{Loss: 0.3}, 7)

	burst := func() {
		for i := 0; i < 4; i++ {
			pl := free[len(free)-1]
			free = free[:len(free)-1]
			pkt := n.NewPacket()
			pkt.Size, pkt.Src, pkt.Dst, pkt.Payload = 1000, a, b, pl
			n.Send(pkt)
		}
		loop.RunAll()
	}
	burst()
	if avg := testing.AllocsPerRun(500, burst); avg != 0 {
		t.Fatalf("lossy burst allocates %.1f objects/op, want 0", avg)
	}
	if len(free) != 8 {
		t.Fatalf("pool holds %d payloads after the bursts, want all 8 back", len(free))
	}
	if l.Stats.PktsDropped == 0 || l.Stats.PktsLost == 0 || delivered == 0 {
		t.Fatalf("stats %+v, %d delivered: want drops, losses and deliveries", l.Stats, delivered)
	}
}
