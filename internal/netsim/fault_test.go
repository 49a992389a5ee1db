package netsim

import (
	"slices"
	"testing"
	"time"

	"speakup/internal/sim"
)

// faultPair builds a <-> b and returns the a->b link for fault
// injection plus an arrival recorder at b.
func faultPair(t *testing.T) (*Network, NodeID, NodeID, *Link, *[]sim.Time) {
	t.Helper()
	loop := sim.NewLoop(1)
	n := New(loop)
	a := n.AddNode("a", nil)
	b := n.AddNode("b", nil)
	ab, _ := n.Connect(a, b, 8e6, 2*time.Millisecond, 1<<20)
	n.ComputeRoutes()
	arrivals := &[]sim.Time{}
	n.SetHandler(b, func(p *Packet) { *arrivals = append(*arrivals, loop.Now()) })
	return n, a, b, ab, arrivals
}

func TestLinkFaultLossDropsAndCounts(t *testing.T) {
	n, a, b, ab, arrivals := faultPair(t)
	ab.SetFault(FaultState{Loss: 1}, 1)
	if !ab.Faulted() {
		t.Fatal("link not marked faulted")
	}
	for i := 0; i < 10; i++ {
		n.Send(&Packet{Size: 1000, Src: a, Dst: b})
	}
	n.Loop().RunAll()
	if len(*arrivals) != 0 {
		t.Fatalf("%d packets survived Loss=1", len(*arrivals))
	}
	if ab.Stats.PktsLost != 10 || ab.Stats.BytesLost != 10_000 {
		t.Fatalf("loss accounting = %d pkts / %d bytes, want 10 / 10000",
			ab.Stats.PktsLost, ab.Stats.BytesLost)
	}
}

func TestLinkFaultPartitionRevert(t *testing.T) {
	n, a, b, ab, arrivals := faultPair(t)
	ab.SetFault(FaultState{Down: true}, 1)
	n.Send(&Packet{Size: 1000, Src: a, Dst: b})
	n.Loop().RunAll()
	if len(*arrivals) != 0 {
		t.Fatal("packet crossed a partitioned link")
	}
	ab.ClearFault()
	if ab.Faulted() {
		t.Fatal("ClearFault left the link faulted")
	}
	n.Send(&Packet{Size: 1000, Src: a, Dst: b})
	n.Loop().RunAll()
	if len(*arrivals) != 1 {
		t.Fatalf("after revert: %d arrivals, want 1", len(*arrivals))
	}
}

// TestLinkFaultJitterKeepsOrder floods a jittered link and checks the
// FIFO invariant the sim TCP stack depends on: delivery times never go
// backwards, and payload order is preserved.
func TestLinkFaultJitterKeepsOrder(t *testing.T) {
	loop := sim.NewLoop(1)
	n := New(loop)
	a := n.AddNode("a", nil)
	var order []int
	var times []sim.Time
	b := n.AddNode("b", func(p *Packet) {
		order = append(order, p.Payload.(int))
		times = append(times, loop.Now())
	})
	ab, _ := n.Connect(a, b, 8e6, 2*time.Millisecond, 1<<20)
	n.ComputeRoutes()
	ab.SetFault(FaultState{Jitter: 10 * time.Millisecond}, 42)
	for i := 0; i < 200; i++ {
		n.Send(&Packet{Size: 1000, Src: a, Dst: b, Payload: i})
	}
	loop.RunAll()
	if len(order) != 200 {
		t.Fatalf("delivered %d packets, want 200", len(order))
	}
	jittered := false
	base := 3 * time.Millisecond // 1ms serialization + 2ms propagation
	for i, v := range order {
		if v != i {
			t.Fatalf("reordered at %d: got payload %d", i, v)
		}
		if i > 0 && times[i] < times[i-1] {
			t.Fatalf("arrival time went backwards at %d: %v < %v", i, times[i], times[i-1])
		}
		if times[i] > sim.Time(i)*time.Millisecond+base {
			jittered = true
		}
	}
	if !jittered {
		t.Fatal("jitter fault added no delay to any of 200 packets")
	}
}

// TestLinkFaultJitterEndKeepsOrder checks that order holds across the
// end of a jitter window: packets sent after the fault is cleared, or
// replaced by a loss-only fault, queue behind the jittered packets still
// in flight instead of overtaking them on the base delay.
func TestLinkFaultJitterEndKeepsOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(*Link)
	}{
		{"cleared", (*Link).ClearFault},
		{"replaced by loss", func(l *Link) { l.SetFault(FaultState{Loss: 1e-9}, 7) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop := sim.NewLoop(1)
			n := New(loop)
			a := n.AddNode("a", nil)
			var order []int
			b := n.AddNode("b", func(p *Packet) { order = append(order, p.Payload.(int)) })
			ab, _ := n.Connect(a, b, 1e9, time.Millisecond, 1<<20)
			n.ComputeRoutes()
			ab.SetFault(FaultState{Jitter: 100 * time.Millisecond}, 42)
			for i := range 5 {
				n.Send(&Packet{Size: 1000, Src: a, Dst: b, Payload: i})
			}
			loop.After(time.Millisecond, func() {
				tc.end(ab)
				n.Send(&Packet{Size: 1000, Src: a, Dst: b, Payload: 99})
			})
			loop.RunAll()
			if want := []int{0, 1, 2, 3, 4, 99}; !slices.Equal(order, want) {
				t.Fatalf("delivery order %v, want %v", order, want)
			}
		})
	}
}

// TestLinkFaultZeroStateClears pins the golden-safety contract: arming
// a zero FaultState is identical to never touching the link.
func TestLinkFaultZeroStateClears(t *testing.T) {
	_, _, _, ab, _ := faultPair(t)
	ab.SetFault(FaultState{}, 99)
	if ab.Faulted() {
		t.Fatal("zero FaultState left a fault armed")
	}
}
