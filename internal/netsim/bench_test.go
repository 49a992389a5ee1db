package netsim

import (
	"testing"
	"time"

	"speakup/internal/sim"
)

// BenchmarkLinkHop measures the link hot path: a closed loop of 32
// packets crossing a -> r -> b, two links with queues, where each
// delivery at b sends the next packet from a. One op is one packet,
// which makes two hops (four events: tx-done and delivery on each
// link); ns/hop is the cost of one hop. Pools, rings and the event
// queue are warmed before the timer starts, so allocs/op must be 0.
func BenchmarkLinkHop(b *testing.B) {
	const window = 32
	loop := sim.NewLoop(1)
	loop.Grow(64)
	n := New(loop)
	a := n.AddNode("a", nil)
	r := n.AddNode("r", nil)
	dst := n.AddNode("b", nil)
	n.Connect(a, r, 100e6, time.Millisecond, 0)
	n.Connect(r, dst, 10e6, 5*time.Millisecond, 0)
	n.ComputeRoutes()
	left := 0
	send := func() {
		pkt := n.NewPacket()
		pkt.Size, pkt.Src, pkt.Dst = 1500, a, dst
		n.Send(pkt)
	}
	n.SetHandler(dst, func(*Packet) {
		if left > 0 {
			left--
			send()
		}
	})
	flight := func(packets int) {
		left = packets - window
		for range window {
			send()
		}
		loop.RunAll()
	}
	flight(4 * window)
	b.ReportAllocs()
	b.ResetTimer()
	flight(max(b.N, window))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/hop")
}
