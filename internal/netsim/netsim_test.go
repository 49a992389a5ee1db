package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"speakup/internal/sim"
)

// twoNodes builds a <-> b with the given parameters and returns the
// network plus received-packet counters for each side. (Counters, not
// packet slices: the network recycles packets after the handler
// returns, so handlers must not retain them.)
func twoNodes(t *testing.T, rate float64, delay time.Duration, qcap int) (*Network, NodeID, NodeID, *int, *int) {
	t.Helper()
	loop := sim.NewLoop(1)
	n := New(loop)
	var atA, atB int
	a := n.AddNode("a", func(p *Packet) { atA++ })
	b := n.AddNode("b", func(p *Packet) { atB++ })
	n.Connect(a, b, rate, delay, qcap)
	n.ComputeRoutes()
	return n, a, b, &atA, &atB
}

func TestDeliveryTiming(t *testing.T) {
	// 1000 bytes at 8 Mbit/s = 1 ms serialization; +2 ms propagation.
	n, a, b, _, atB := twoNodes(t, 8e6, 2*time.Millisecond, 0)
	var arrived sim.Time
	n.SetHandler(b, func(p *Packet) { arrived = n.Loop().Now() })
	n.Send(&Packet{Size: 1000, Src: a, Dst: b})
	n.Loop().RunAll()
	if want := 3 * time.Millisecond; arrived != want {
		t.Fatalf("arrival at %v, want %v", arrived, want)
	}
	_ = atB
}

func TestSerializationBackToBack(t *testing.T) {
	// Two packets: the second must arrive one serialization time after
	// the first (pipelined through shared propagation).
	n, a, b, _, _ := twoNodes(t, 8e6, 2*time.Millisecond, 1<<20)
	var arrivals []sim.Time
	n.SetHandler(b, func(p *Packet) { arrivals = append(arrivals, n.Loop().Now()) })
	n.Send(&Packet{Size: 1000, Src: a, Dst: b})
	n.Send(&Packet{Size: 1000, Src: a, Dst: b})
	n.Loop().RunAll()
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	if arrivals[0] != 3*time.Millisecond || arrivals[1] != 4*time.Millisecond {
		t.Fatalf("arrivals %v, want [3ms 4ms]", arrivals)
	}
}

func TestFIFOOrder(t *testing.T) {
	n, a, b, _, _ := twoNodes(t, 1e6, time.Millisecond, 1<<20)
	var got []int
	n.SetHandler(b, func(p *Packet) { got = append(got, p.Payload.(int)) })
	for i := 0; i < 20; i++ {
		n.Send(&Packet{Size: 100, Src: a, Dst: b, Payload: i})
	}
	n.Loop().RunAll()
	if len(got) != 20 {
		t.Fatalf("got %d packets", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order at %d: %v", i, got)
		}
	}
}

func TestDropTail(t *testing.T) {
	// Queue capacity 1500 bytes: first packet in service, second+third
	// queued until full, fourth dropped.
	n, a, b, _, atB := twoNodes(t, 8e4, time.Millisecond, 1500)
	for i := 0; i < 4; i++ {
		n.Send(&Packet{Size: 750, Src: a, Dst: b})
	}
	n.Loop().RunAll()
	if *atB != 3 {
		t.Fatalf("delivered %d, want 3 (1 in service + 2 queued)", *atB)
	}
	l := n.Links()[0]
	if l.Stats.PktsDropped != 1 || l.Stats.BytesDropped != 750 {
		t.Fatalf("drop stats = %+v", l.Stats)
	}
	if l.Stats.PktsSent != 3 || l.Stats.BytesSent != 2250 {
		t.Fatalf("sent stats = %+v", l.Stats)
	}
}

func TestUnboundedQueueNeverDrops(t *testing.T) {
	n, a, b, _, atB := twoNodes(t, 8e4, time.Millisecond, 0)
	for i := 0; i < 200; i++ {
		n.Send(&Packet{Size: 1500, Src: a, Dst: b})
	}
	n.Loop().RunAll()
	if *atB != 200 {
		t.Fatalf("delivered %d, want 200", *atB)
	}
}

func TestDuplexIndependence(t *testing.T) {
	// Traffic a->b must not consume b->a capacity.
	n, a, b, atA, atB := twoNodes(t, 8e6, time.Millisecond, 0)
	for i := 0; i < 10; i++ {
		n.Send(&Packet{Size: 1000, Src: a, Dst: b})
		n.Send(&Packet{Size: 1000, Src: b, Dst: a})
	}
	n.Loop().RunAll()
	if *atA != 10 || *atB != 10 {
		t.Fatalf("delivered %d/%d, want 10/10", *atA, *atB)
	}
	// Both directions finish at the same time: 10 packets * 1ms + 1ms.
	if now := n.Loop().Now(); now != 11*time.Millisecond {
		t.Fatalf("finished at %v, want 11ms", now)
	}
}

func TestMultiHopRouting(t *testing.T) {
	loop := sim.NewLoop(1)
	n := New(loop)
	var got int
	c1 := n.AddNode("c1", nil)
	c2 := n.AddNode("c2", nil)
	sw := n.AddNode("sw", nil)
	th := n.AddNode("th", func(p *Packet) { got++ })
	n.Connect(c1, sw, 8e6, time.Millisecond, 0)
	n.Connect(c2, sw, 8e6, time.Millisecond, 0)
	n.Connect(sw, th, 8e6, time.Millisecond, 0)
	n.ComputeRoutes()
	n.Send(&Packet{Size: 500, Src: c1, Dst: th})
	n.Send(&Packet{Size: 500, Src: c2, Dst: th})
	// Reverse path: thinner replies to c1.
	var back int
	n.SetHandler(c1, func(p *Packet) { back++ })
	n.Send(&Packet{Size: 500, Src: th, Dst: c1})
	loop.RunAll()
	if got != 2 {
		t.Fatalf("thinner received %d, want 2", got)
	}
	if back != 1 {
		t.Fatalf("reverse delivery failed: %d", back)
	}
}

func TestSharedTrunkContention(t *testing.T) {
	// Two clients, each on a fast access link, share one slow trunk:
	// total delivery time is governed by the trunk.
	loop := sim.NewLoop(1)
	n := New(loop)
	var count int
	c1 := n.AddNode("c1", nil)
	c2 := n.AddNode("c2", nil)
	sw := n.AddNode("sw", nil)
	th := n.AddNode("th", func(p *Packet) { count++ })
	n.Connect(c1, sw, 80e6, 0, 0)
	n.Connect(c2, sw, 80e6, 0, 0)
	n.Connect(sw, th, 8e6, 0, 1<<20) // trunk: 1ms per 1000B packet
	n.ComputeRoutes()
	for i := 0; i < 5; i++ {
		n.Send(&Packet{Size: 1000, Src: c1, Dst: th})
		n.Send(&Packet{Size: 1000, Src: c2, Dst: th})
	}
	loop.RunAll()
	if count != 10 {
		t.Fatalf("delivered %d, want 10", count)
	}
	// 10 packets over the 8 Mbit/s trunk = 10 ms (plus 12.5us*... on
	// access links, negligible ordering offset under 1ms resolution).
	if now := loop.Now(); now < 10*time.Millisecond || now > 11*time.Millisecond {
		t.Fatalf("finished at %v, want ~10ms (trunk-bound)", now)
	}
}

func TestNoRoutePanics(t *testing.T) {
	loop := sim.NewLoop(1)
	n := New(loop)
	a := n.AddNode("a", nil)
	b := n.AddNode("b", nil)
	n.AddLink(a, b, 1e6, 0, 0) // one direction only
	n.ComputeRoutes()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unroutable packet")
		}
	}()
	n.Send(&Packet{Size: 100, Src: b, Dst: a})
	loop.RunAll()
}

func TestComputeRoutesRequired(t *testing.T) {
	loop := sim.NewLoop(1)
	n := New(loop)
	a := n.AddNode("a", nil)
	b := n.AddNode("b", nil)
	n.Connect(a, b, 1e6, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic without ComputeRoutes")
		}
	}()
	n.Send(&Packet{Size: 100, Src: a, Dst: b})
}

func TestTraceHooks(t *testing.T) {
	n, a, b, _, atB := twoNodes(t, 8e4, time.Millisecond, 800)
	for i := 0; i < 3; i++ {
		n.Send(&Packet{Size: 800, Src: a, Dst: b})
	}
	n.Loop().RunAll()
	st := n.Links()[0].Stats
	if st.PktsSent != 2 || *atB != 2 || st.PktsDropped != 1 {
		t.Fatalf("sent %d, received %d, dropped %d; want 2, 2, 1", st.PktsSent, *atB, st.PktsDropped)
	}
}

func TestLocalDelivery(t *testing.T) {
	// Src == Dst: delivered synchronously to the handler.
	n, a, _, atA, _ := twoNodes(t, 1e6, 0, 0)
	n.Send(&Packet{Size: 10, Src: a, Dst: a})
	if *atA != 1 {
		t.Fatal("local packet not delivered")
	}
}

func TestThroughputMatchesRate(t *testing.T) {
	// Saturate a 2 Mbit/s link for 1s of virtual time; delivered bytes
	// must match the rate closely.
	loop := sim.NewLoop(1)
	n := New(loop)
	var bytes int
	a := n.AddNode("a", nil)
	b := n.AddNode("b", func(p *Packet) { bytes += p.Size })
	n.Connect(a, b, 2e6, time.Millisecond, 3000)
	n.ComputeRoutes()
	var feed func()
	feed = func() {
		n.Send(&Packet{Size: 1500, Src: a, Dst: b})
		loop.After(6*time.Millisecond, feed) // 1500B @2Mbit/s = 6ms
	}
	loop.After(0, feed)
	loop.Run(time.Second)
	got := float64(bytes) * 8
	if got < 1.9e6 || got > 2.01e6 {
		t.Fatalf("throughput %.0f bits in 1s, want ~2e6", got)
	}
}

// Property: conservation — packets sent = delivered + dropped + still
// queued or in flight, for random packet batches on a bounded queue.
func TestQuickConservation(t *testing.T) {
	f := func(sizes []uint16, qcap uint16) bool {
		loop := sim.NewLoop(3)
		n := New(loop)
		delivered := 0
		a := n.AddNode("a", nil)
		b := n.AddNode("b", func(p *Packet) { delivered++ })
		n.Connect(a, b, 1e6, time.Millisecond, int(qcap))
		n.ComputeRoutes()
		sent := 0
		for _, s := range sizes {
			size := int(s)%3000 + 1
			n.Send(&Packet{Size: size, Src: a, Dst: b})
			sent++
		}
		loop.RunAll()
		l := n.Links()[0]
		return delivered+int(l.Stats.PktsDropped) == sent &&
			int(l.Stats.PktsSent) == delivered
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: delivery order equals send order (FIFO) regardless of
// sizes, when the queue is unbounded.
func TestQuickFIFOUnbounded(t *testing.T) {
	f := func(sizes []uint16) bool {
		loop := sim.NewLoop(4)
		n := New(loop)
		var got []int
		a := n.AddNode("a", nil)
		b := n.AddNode("b", func(p *Packet) { got = append(got, p.Payload.(int)) })
		n.Connect(a, b, 1e6, time.Millisecond, 0)
		n.ComputeRoutes()
		for i, s := range sizes {
			n.Send(&Packet{Size: int(s)%2000 + 1, Src: a, Dst: b, Payload: i})
		}
		loop.RunAll()
		if len(got) != len(sizes) {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(32))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Regression for the old `l.q = l.q[1:]` queue: popped *Packet
// pointers stayed reachable through the backing array, and the array
// itself grew with every append. The ring buffer must (a) keep its
// backing storage at the traffic high-water mark, not the traffic
// volume, and (b) nil out popped slots so drained queues retain no
// packets.
func TestQueueMemoryBounded(t *testing.T) {
	loop := sim.NewLoop(1)
	n := New(loop)
	a := n.AddNode("a", nil)
	b := n.AddNode("b", func(p *Packet) {})
	n.Connect(a, b, 8e6, time.Millisecond, 0) // 1ms per 1000B packet
	n.ComputeRoutes()
	l := n.Links()[0]

	// Feed 5000 packets in bursts of 4 per serialization time: the
	// queue occupancy oscillates around ~3, never near 5000.
	sent := 0
	var feed func()
	feed = func() {
		for i := 0; i < 4; i++ {
			pkt := n.NewPacket()
			pkt.Size, pkt.Src, pkt.Dst = 1000, a, b
			n.Send(pkt)
			sent++
		}
		if sent < 5000 {
			loop.After(4*time.Millisecond, feed)
		}
	}
	loop.After(0, feed)
	loop.RunAll()

	if l.Stats.PktsSent != 5000 {
		t.Fatalf("sent %d packets, want 5000", l.Stats.PktsSent)
	}
	if cap := l.QueueCap(); cap > 64 {
		t.Fatalf("ring buffer grew to %d slots for a ~4-deep queue: unbounded queue memory", cap)
	}
	for i, p := range l.q.buf {
		if p != nil {
			t.Fatalf("drained ring retains packet at slot %d: retained-pointer leak", i)
		}
	}
}

func TestRingGrowPreservesFIFOAcrossWrap(t *testing.T) {
	var r pktRing
	mk := func(i int) *Packet { return &Packet{Size: i + 1} }
	// Interleave pushes and pops so head/tail wrap before a grow.
	next, want := 0, 0
	check := func(p *Packet) {
		if p == nil || p.Size != want+1 {
			t.Fatalf("pop = %v, want size %d", p, want+1)
		}
		want++
	}
	for i := 0; i < 12; i++ {
		r.push(mk(next))
		next++
	}
	for i := 0; i < 10; i++ {
		check(r.pop())
	}
	for i := 0; i < 40; i++ { // forces a grow while head > 0
		r.push(mk(next))
		next++
	}
	for r.len() > 0 {
		check(r.pop())
	}
	if want != next {
		t.Fatalf("popped %d of %d", want, next)
	}
	if r.pop() != nil {
		t.Fatal("pop from empty ring != nil")
	}
}

// Delivered and dropped packets must return to the free list and come
// back out of NewPacket: steady-state traffic reuses a fixed packet
// population.
func TestPacketsRecycled(t *testing.T) {
	loop := sim.NewLoop(1)
	n := New(loop)
	a := n.AddNode("a", nil)
	b := n.AddNode("b", func(p *Packet) {})
	n.Connect(a, b, 8e6, time.Millisecond, 0)
	n.ComputeRoutes()

	for round := 0; round < 50; round++ {
		pkt := n.NewPacket()
		pkt.Size, pkt.Src, pkt.Dst = 1000, a, b
		n.Send(pkt)
		loop.RunAll()
	}
	// The list grew by one block, and every send took its packet back.
	if free := len(n.pktFree); free != pktBlock {
		t.Fatalf("free list holds %d packets after 50 sequential sends, want %d (one block, all recycled)", free, pktBlock)
	}
	// A recycled packet comes back zeroed.
	p := n.NewPacket()
	if p.Size != 0 || p.Payload != nil || p.Src != 0 || p.Dst != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", p)
	}
}

// Links with one propagation delay share a delivery lane, and links
// sending one size at one rate share a tx-done lane; a shared lane
// still runs each hop at its own time, and hops due at the same
// instant in the order they were scheduled, as timers would.
func TestLanesShareOffsetsAndKeepOrder(t *testing.T) {
	loop := sim.NewLoop(1)
	n := New(loop)
	x := n.AddNode("x", nil)
	var srcs []NodeID
	for _, name := range []string{"a", "b", "c"} {
		s := n.AddNode(name, nil)
		n.AddLink(s, x, 8e6, 2*time.Millisecond, 0)
		srcs = append(srcs, s)
	}
	type arrival struct {
		id int
		at sim.Time
	}
	var got []arrival
	n.SetHandler(x, func(p *Packet) { got = append(got, arrival{p.Payload.(int), loop.Now()}) })
	n.ComputeRoutes()
	// Packet i leaves srcs[i%3] at i/3 ms: 1000 bytes at 8 Mbit/s take
	// 1 ms, so each link sends back to back, and the three links' hops
	// tie at every millisecond.
	for i := range 9 {
		loop.Schedule(time.Duration(i/3)*time.Millisecond, func() {
			n.Send(&Packet{Size: 1000, Src: srcs[i%3], Dst: x, Payload: i})
		})
	}
	loop.RunAll()
	if len(n.rxLanes) != 1 || len(n.txLanes) != 1 {
		t.Fatalf("%d delivery lanes and %d tx-done lanes, want one of each", len(n.rxLanes), len(n.txLanes))
	}
	if len(got) != 9 {
		t.Fatalf("got %d arrivals, want 9", len(got))
	}
	for i, a := range got {
		if want := (arrival{i, time.Duration(i/3+3) * time.Millisecond}); a != want {
			t.Fatalf("arrival %d is %+v, want %+v (all: %v)", i, a, want, got)
		}
	}
}
