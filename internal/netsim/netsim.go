// Package netsim simulates a packet-switched network on top of the
// discrete-event engine in internal/sim.
//
// The model is deliberately simple and physical: hosts and switches are
// nodes; a Link is a unidirectional pipe with a fixed rate (bits/s), a
// fixed propagation delay, and a drop-tail queue bounded in bytes.
// Packets serialize onto a link one at a time (store-and-forward) and
// arrive at the far node after the propagation delay. Nodes forward
// packets hop-by-hop along shortest-path routes computed once from the
// topology. This is the substitution for the paper's Emulab testbed:
// rates, delays, queueing, and loss — the quantities speak-up's
// evaluation depends on — are modeled per-packet.
//
// The per-packet path is allocation-free in steady state: packets come
// from a per-Network free list (NewPacket / Send recycles them after
// final delivery or drop), a payload lost to a drop goes back to its
// owner's pool through Recycler, link queues are reusing ring buffers,
// and the transmit/propagate hops are events on shared sim.Streams
// (lanes, see below), which take no arena slot and no closure.
// Consequently the network owns every packet passed to Send:
// handlers may read the packet (and keep its Payload) but must not
// retain the *Packet itself past the callback.
//
// # Lanes
//
// A hop event runs a fixed offset after it is scheduled: a tx-done one
// serialization time after the packet starts onto the wire, a delivery
// one propagation delay after its tx-done. Virtual time never goes
// back, so the events any links schedule at one offset d come in time
// order, which is all a sim.Stream asks of its pushes. The network
// therefore keeps one stream, a lane, per kind of hop and offset, shared
// by every link: the event queue holds one entry per lane instead of
// one per busy link, and each event keeps the (at, seq) key it would
// have had as a timer, so the run order is unchanged. A delivery that
// jitter or the no-reorder clamp puts later than one delay out goes to
// its link's own stream instead.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"speakup/internal/sim"
)

// NodeID identifies a node within one Network.
type NodeID int

// Packet is one datagram in flight. Size is the total on-the-wire size
// in bytes. Payload carries the upper-layer segment (e.g. a TCP
// segment); netsim never inspects it. Obtain packets with NewPacket
// where throughput matters: the network recycles delivered and dropped
// packets into a free list.
type Packet struct {
	Size     int
	Src, Dst NodeID
	Payload  any

	link *Link // the link the packet is on, for its hop events
}

// Recycler is implemented by payloads that belong to a pool. When the
// network destroys a packet before delivery (a drop-tail overflow or
// an injected loss), it calls Recycle on the payload, so the payload
// goes back to its owner rather than to the garbage collector. A
// delivered payload is the receiving handler's to recycle.
type Recycler interface {
	Recycle()
}

// Handler receives packets addressed to a node. The network reclaims
// the packet when the handler returns: keep Payload if needed, never
// the *Packet.
type Handler func(pkt *Packet)

type node struct {
	id      NodeID
	name    string
	handler Handler
	// routes[dst] is the outgoing link for packets to dst; built by
	// ComputeRoutes.
	routes []*Link
	links  []*Link // outgoing links (for route computation)
}

// LinkStats counts traffic through one unidirectional link.
type LinkStats struct {
	PktsSent     uint64
	BytesSent    uint64
	PktsDropped  uint64
	BytesDropped uint64
	// PktsLost/BytesLost count packets destroyed by an injected fault
	// (loss or partition) — distinct from drop-tail queue drops.
	PktsLost  uint64
	BytesLost uint64
}

// pktRing is a reusing FIFO of packets: a power-of-two circular buffer
// indexed by monotonically increasing head/tail counters. Unlike the
// old append/reslice queue it never strands popped *Packet pointers in
// the backing array (slots are nilled on pop) and reuses its storage
// forever, so a busy link stops allocating once the ring has grown to
// the high-water mark.
type pktRing struct {
	buf  []*Packet
	head uint64 // next pop
	tail uint64 // next push
}

func (r *pktRing) len() int { return int(r.tail - r.head) }

func (r *pktRing) push(p *Packet) {
	if int(r.tail-r.head) == len(r.buf) {
		r.grow()
	}
	r.buf[r.tail&uint64(len(r.buf)-1)] = p
	r.tail++
}

func (r *pktRing) pop() *Packet {
	if r.head == r.tail {
		return nil
	}
	i := r.head & uint64(len(r.buf)-1)
	p := r.buf[i]
	r.buf[i] = nil // release the reference: no retained-pointer leak
	r.head++
	return p
}

func (r *pktRing) grow() {
	n := len(r.buf) * 2
	if n == 0 {
		n = 16
	}
	buf := make([]*Packet, n)
	// Re-linearize the old contents at the front.
	for i, k := 0, r.head; k != r.tail; i, k = i+1, k+1 {
		buf[i] = r.buf[k&uint64(len(r.buf)-1)]
	}
	r.tail -= r.head
	r.head = 0
	r.buf = buf
}

// Link is a unidirectional pipe between two nodes.
type Link struct {
	net   *Network
	name  string
	from  NodeID
	to    NodeID
	rate  float64 // bits per second
	delay time.Duration
	// lastArrival is the latest scheduled delivery time. Every delivery
	// is clamped to it, so a link never reorders: not under jitter, and
	// not when a jitter fault ends or is replaced with packets in flight.
	lastArrival sim.Time
	qcap        int // max queued bytes behind the packet in service; <=0 means unbounded

	queued int // bytes waiting (excludes packet in service)
	q      pktRing
	busy   bool

	// txTime is the serialization time of a txSize-byte packet and
	// txLane the lane of tx-done events that far out: a link carries
	// few distinct sizes, so most transmits skip the division and the
	// lane lookup.
	txSize int
	txTime time.Duration
	txLane *sim.Stream
	rxLane *sim.Stream // deliveries one propagation delay out
	// late carries the deliveries that jitter or the clamp to
	// lastArrival put later than one delay out. SetFault makes it when
	// it first arms jitter, which is what such deliveries need.
	late *sim.Stream

	// fault, when non-nil, impairs the link (internal/faults plans
	// arm it via SetFault). It stays nil on healthy links so the
	// steady-state packet path never branches on fault state beyond
	// one nil check and never touches an RNG.
	fault *linkFault

	Stats LinkStats
}

// FaultState describes the impairments injected on one link.
type FaultState struct {
	// Loss is the probability a packet entering the link is destroyed.
	Loss float64
	// Jitter is the maximum extra propagation delay, drawn uniformly
	// per packet. Delivery order on the link is preserved.
	Jitter time.Duration
	// Down partitions the link: every packet is destroyed.
	Down bool
}

type linkFault struct {
	FaultState
	rng *rand.Rand
}

// SetFault arms (or replaces) the link's injected fault; the RNG for
// loss/jitter draws is seeded from seed so a fault plan is a pure
// function of its seeds. A zero FaultState clears the fault entirely,
// restoring the allocation- and RNG-free healthy path.
func (l *Link) SetFault(fs FaultState, seed int64) {
	if fs == (FaultState{}) {
		l.fault = nil
		return
	}
	f := &linkFault{FaultState: fs}
	if fs.Loss > 0 || fs.Jitter > 0 {
		f.rng = rand.New(rand.NewSource(seed))
	}
	if fs.Jitter > 0 && l.late == nil {
		l.late = l.net.loop.NewStream(linkDeliver, nil)
	}
	l.fault = f
}

// ClearFault restores the link to health.
func (l *Link) ClearFault() { l.SetFault(FaultState{}, 0) }

// Faulted reports whether an injected fault is currently armed.
func (l *Link) Faulted() bool { return l.fault != nil }

// Name returns the link's human-readable name.
func (l *Link) Name() string { return l.name }

// QueueCap returns the capacity (in slots) of the queue's backing ring
// buffer; tests use it to assert queue memory stays bounded.
func (l *Link) QueueCap() int { return len(l.q.buf) }

// Rate returns the link rate in bits per second.
func (l *Link) Rate() float64 { return l.rate }

// Delay returns the one-way propagation delay.
func (l *Link) Delay() time.Duration { return l.delay }

// Network is a set of nodes and links sharing one event loop.
type Network struct {
	loop  *sim.Loop
	nodes []*node
	links []*Link

	pktFree []*Packet // recycled packets

	// The lanes by offset: tx-done events and deliveries.
	txLanes, rxLanes map[time.Duration]*sim.Stream
}

// New creates an empty network on the given loop.
func New(loop *sim.Loop) *Network {
	return &Network{
		loop:    loop,
		txLanes: map[time.Duration]*sim.Stream{},
		rxLanes: map[time.Duration]*sim.Stream{},
	}
}

// lane returns the lane in lanes for offset d, whose events run h,
// making it on first use.
func (n *Network) lane(lanes map[time.Duration]*sim.Stream, d time.Duration, h sim.Handler) *sim.Stream {
	s := lanes[d]
	if s == nil {
		s = n.loop.NewStream(h, nil)
		lanes[d] = s
	}
	return s
}

// Loop returns the underlying event loop.
func (n *Network) Loop() *sim.Loop { return n.loop }

// pktBlock is how many packets the free list grows by at once: the
// packets in flight keep climbing for a while after traffic starts,
// and growing in blocks makes that one allocation per block.
const pktBlock = 64

// NewPacket returns a zeroed packet from the network's free list,
// growing the list by a block when it is empty. Packets given to Send
// return to the list automatically on final delivery or drop.
func (n *Network) NewPacket() *Packet {
	if len(n.pktFree) == 0 {
		blk := new([pktBlock]Packet)
		for i := range blk {
			n.pktFree = append(n.pktFree, &blk[i])
		}
	}
	k := len(n.pktFree) - 1
	p := n.pktFree[k]
	n.pktFree = n.pktFree[:k]
	return p
}

// reclaim recycles a packet whose journey has ended. The Payload
// reference is dropped so the pool never pins upper-layer segments.
func (n *Network) reclaim(pkt *Packet) {
	*pkt = Packet{}
	n.pktFree = append(n.pktFree, pkt)
}

// AddNode creates a node. The handler receives packets whose Dst is
// this node; it may be nil for pure switches.
func (n *Network) AddNode(name string, h Handler) NodeID {
	id := NodeID(len(n.nodes))
	n.nodes = append(n.nodes, &node{id: id, name: name, handler: h})
	return id
}

// SetHandler replaces a node's packet handler. It allows hosts to be
// created before the protocol endpoints that live on them.
func (n *Network) SetHandler(id NodeID, h Handler) { n.nodes[id].handler = h }

// AddLink creates a unidirectional link from -> to with the given rate
// (bits/s), propagation delay, and queue capacity in bytes (<=0 means
// unbounded). Most callers want Connect, which builds both directions.
func (n *Network) AddLink(from, to NodeID, rate float64, delay time.Duration, queueBytes int) *Link {
	if rate <= 0 {
		panic("netsim: link rate must be positive")
	}
	l := &Link{
		net:   n,
		name:  fmt.Sprintf("%s->%s", n.nodes[from].name, n.nodes[to].name),
		from:  from,
		to:    to,
		rate:  rate,
		delay: delay,
		qcap:  queueBytes,
	}
	l.rxLane = n.lane(n.rxLanes, delay, linkDeliver)
	n.links = append(n.links, l)
	n.nodes[from].links = append(n.nodes[from].links, l)
	return l
}

// Connect builds a duplex link (two unidirectional links with the same
// parameters) and returns them as (a->b, b->a).
func (n *Network) Connect(a, b NodeID, rate float64, delay time.Duration, queueBytes int) (*Link, *Link) {
	return n.AddLink(a, b, rate, delay, queueBytes),
		n.AddLink(b, a, rate, delay, queueBytes)
}

// ComputeRoutes builds shortest-path (hop count) routes between all
// node pairs via BFS. Call it once after the topology is assembled;
// sending a packet with no route panics, since that is a model bug.
func (n *Network) ComputeRoutes() {
	for _, src := range n.nodes {
		src.routes = make([]*Link, len(n.nodes))
		// BFS from src over outgoing links.
		visited := make([]bool, len(n.nodes))
		visited[src.id] = true
		type hop struct {
			node  NodeID
			first *Link // first link on the path from src
		}
		queue := make([]hop, 0, len(n.nodes))
		for _, l := range src.links {
			if !visited[l.to] {
				visited[l.to] = true
				src.routes[l.to] = l
				queue = append(queue, hop{l.to, l})
			}
		}
		for len(queue) > 0 {
			h := queue[0]
			queue = queue[1:]
			for _, l := range n.nodes[h.node].links {
				if !visited[l.to] {
					visited[l.to] = true
					src.routes[l.to] = h.first
					queue = append(queue, hop{l.to, h.first})
				}
			}
		}
	}
}

// Send injects a packet at its source node; it is routed hop-by-hop to
// pkt.Dst and handed to that node's handler. The network owns pkt from
// this point: it is recycled after delivery or drop.
func (n *Network) Send(pkt *Packet) {
	if pkt.Size <= 0 {
		panic("netsim: packet size must be positive")
	}
	n.forward(n.nodes[pkt.Src], pkt)
}

func (n *Network) forward(at *node, pkt *Packet) {
	if at.id == pkt.Dst {
		if at.handler != nil {
			at.handler(pkt)
		}
		n.reclaim(pkt)
		return
	}
	if at.routes == nil {
		panic("netsim: ComputeRoutes not called")
	}
	l := at.routes[pkt.Dst]
	if l == nil {
		panic(fmt.Sprintf("netsim: no route from %s to %s", at.name, n.nodes[pkt.Dst].name))
	}
	l.enqueue(pkt)
}

func (l *Link) enqueue(pkt *Packet) {
	if f := l.fault; f != nil && (f.Down || (f.Loss > 0 && f.rng.Float64() < f.Loss)) {
		l.Stats.PktsLost++
		l.Stats.BytesLost += uint64(pkt.Size)
		l.drop(pkt)
		return
	}
	if l.busy {
		if l.qcap > 0 && l.queued+pkt.Size > l.qcap {
			l.Stats.PktsDropped++
			l.Stats.BytesDropped += uint64(pkt.Size)
			l.drop(pkt)
			return
		}
		l.queued += pkt.Size
		l.q.push(pkt)
		return
	}
	l.transmit(pkt)
}

// drop destroys pkt on l: its payload goes back to its pool, and the
// packet to the network's.
func (l *Link) drop(pkt *Packet) {
	if r, ok := pkt.Payload.(Recycler); ok {
		r.Recycle()
	}
	l.net.reclaim(pkt)
}

// transmit starts serializing pkt onto the wire. The tx-done and
// propagation hops are events on lanes, dispatched by the loop to
// linkTxDone and linkDeliver: nothing here allocates once the link
// has sent each of its packet sizes.
func (l *Link) transmit(pkt *Packet) {
	l.busy = true
	if pkt.Size != l.txSize {
		l.txSize = pkt.Size
		l.txTime = max(time.Duration(float64(pkt.Size)*8/l.rate*float64(time.Second)), time.Nanosecond)
		l.txLane = l.net.lane(l.net.txLanes, l.txTime, linkTxDone)
	}
	pkt.link = l
	l.txLane.Push(l.net.loop.Now()+l.txTime, pkt)
}

// linkTxDone fires when the last bit of pkt leaves the link's sender:
// the packet starts propagating and the link is free to serialize the
// next queued packet.
func linkTxDone(_, arg any) {
	pkt := arg.(*Packet)
	l := pkt.link
	l.Stats.PktsSent++
	l.Stats.BytesSent += uint64(pkt.Size)
	delay := l.delay
	if f := l.fault; f != nil && f.Jitter > 0 {
		delay += time.Duration(f.rng.Int63n(int64(f.Jitter) + 1))
	}
	// Clamp to the latest scheduled arrival: jitter stretches the pipe
	// but never reorders it (the sim TCP assumes FIFO links). Without
	// jitter the clamp never binds, since tx-done times only grow.
	now := l.net.loop.Now()
	at := max(now+delay, l.lastArrival)
	l.lastArrival = at
	if at == now+l.delay {
		l.rxLane.Push(at, pkt)
	} else {
		l.late.Push(at, pkt)
	}
	if next := l.q.pop(); next != nil {
		l.queued -= next.Size
		l.transmit(next)
	} else {
		l.busy = false
	}
}

// linkDeliver fires when pkt reaches the link's far node.
func linkDeliver(_, arg any) {
	pkt := arg.(*Packet)
	l := pkt.link
	l.net.forward(l.net.nodes[l.to], pkt)
}

// Links returns all links, in creation order (useful for stats).
func (n *Network) Links() []*Link { return n.links }
