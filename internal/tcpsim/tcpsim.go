// Package tcpsim implements a Reno/NewReno-style TCP on top of the
// netsim packet network.
//
// Speak-up's analysis leans on specific TCP mechanisms — slow-start
// ramp (§3.4), congestion-controlled payment channels (§4.1), the
// multi-connection advantage of bad clients on shared links (§4.2),
// and loss/queueing felt by bystander transfers (§7.7) — so this
// package models them per-packet: 1-RTT connection establishment with
// SYN retransmission, cumulative ACKs, duplicate-ACK fast retransmit
// with NewReno partial-ACK recovery, and an RFC 6298-style
// retransmission timer with exponential backoff.
//
// Applications write logical bytes annotated with record tags rather
// than real buffers: the simulator transfers byte *counts* across the
// network and, because both endpoints live in one process, hands the
// receiver the sender's tag once the covering bytes have arrived in
// order. A tag is a plain 64-bit word, so the record log holds no
// pointers and a message costs no allocation.
//
// In steady state the stack allocates nothing. Segments come from a
// per-stack free list and go back to it when delivered or when the
// network drops them. A Conn goes back to its stack once both of its
// ends have closed, keeping its record array for the next connection;
// reassembly arrays are lent by the stack only while a connection has
// out-of-order data. When the second end of a pair closes, both Conns'
// generations move on: segments carry their sender's generation, and a
// segment from an earlier generation is dropped like one for a closed
// connection. Applications that keep a connection past its close hold
// a Ref, which stops resolving once the pair is released for reuse.
package tcpsim

import (
	"fmt"
	"slices"
	"time"

	"speakup/internal/netsim"
	"speakup/internal/sim"
)

// Options configures a Stack. The zero value selects the defaults
// documented on each field.
type Options struct {
	// MSS is the maximum segment payload in bytes. Default 1460.
	MSS int
	// HeaderBytes is the per-segment header overhead. Default 40.
	HeaderBytes int
	// InitialCwndSegments is the initial congestion window. Default 2.
	InitialCwndSegments int
	// RTOMin clamps the retransmission timeout. Default 200ms.
	RTOMin time.Duration
	// RTOInit is the timeout before any RTT sample. Default 1s.
	RTOInit time.Duration
	// RTOMax caps exponential backoff. Default 60s.
	RTOMax time.Duration
}

func (o Options) withDefaults() Options {
	if o.MSS == 0 {
		o.MSS = 1460
	}
	if o.HeaderBytes == 0 {
		o.HeaderBytes = 40
	}
	if o.InitialCwndSegments == 0 {
		o.InitialCwndSegments = 2
	}
	if o.RTOMin == 0 {
		o.RTOMin = 200 * time.Millisecond
	}
	if o.RTOInit == 0 {
		o.RTOInit = time.Second
	}
	if o.RTOMax == 0 {
		o.RTOMax = 60 * time.Second
	}
	return o
}

type segment struct {
	sender *Conn  // sending endpoint; its peer is the receiving one
	gen    uint32 // sender's generation when sent
	syn    bool
	synAck bool
	rst    bool
	seq    int64 // offset of first payload byte
	ackNo  int64 // cumulative: next byte expected by the segment's sender
	length int   // payload bytes (0 for pure ACK/SYN/RST)
}

// Stack is a per-host TCP endpoint multiplexer bound to one netsim node.
type Stack struct {
	net    *netsim.Network
	loop   *sim.Loop
	node   netsim.NodeID
	opts   Options
	accept func(*Conn)

	// segFree recycles the segments this stack allocated: a delivered
	// segment returns to its sender's stack after dispatch, and a
	// dropped one when the network recycles it, so each list stays as
	// deep as that stack's own peak in flight and steady-state traffic
	// allocates none, even when it is one-sided (thousands of clients
	// uploading into one server).
	segFree []*segment

	// connFree holds Conns ready for reuse. dead holds closed pairs
	// waiting to join their stacks' free lists: a Conn closed inside a
	// callback may still be on the call stack (advanceTo iterating its
	// peer's records), so pairs are only reused once the packet being
	// handled is done (depth 0).
	connFree []*Conn
	dead     []*Conn
	depth    int

	// oooFree lends reassembly arrays: a Conn holds one only while it
	// has out-of-order data buffered, so the stack needs as many as
	// connections reorder at once, not one per connection.
	oooFree [][]oooRun
}

// segBlock is how many segments the free list grows by at once. A
// stack's peak in flight keeps rising for a while as its connections
// open their windows; growing in blocks makes that one allocation per
// block rather than one per segment.
const segBlock = 32

// newSegment returns a zeroed segment from the free list, growing the
// list by a block when it is empty.
func (s *Stack) newSegment() *segment {
	if len(s.segFree) == 0 {
		blk := new([segBlock]segment)
		for i := range blk {
			s.segFree = append(s.segFree, &blk[i])
		}
	}
	k := len(s.segFree) - 1
	seg := s.segFree[k]
	s.segFree = s.segFree[:k]
	return seg
}

// Recycle returns a segment to its sender's stack once it is delivered
// or the network drops it. A segment with no sender came from no stack
// and is left to the GC.
func (seg *segment) Recycle() {
	if seg.sender == nil {
		return
	}
	s := seg.sender.stack
	*seg = segment{}
	s.segFree = append(s.segFree, seg)
}

// NewStack binds a TCP stack to node in net, replacing the node's
// packet handler.
func NewStack(net *netsim.Network, node netsim.NodeID, opts Options) *Stack {
	s := &Stack{
		net:  net,
		loop: net.Loop(),
		node: node,
		opts: opts.withDefaults(),
	}
	net.SetHandler(node, s.handlePacket)
	return s
}

// Node returns the netsim node this stack is bound to.
func (s *Stack) Node() netsim.NodeID { return s.node }

// Net returns the network the stack is attached to.
func (s *Stack) Net() *netsim.Network { return s.net }

// Options returns the stack's effective options.
func (s *Stack) Options() Options { return s.opts }

// Listen installs the accept handler invoked for each inbound
// connection. The handler runs before the SYNACK is sent, so callbacks
// installed there observe all data.
func (s *Stack) Listen(accept func(*Conn)) { s.accept = accept }

// record is a run of application bytes sharing one tag.
type record struct {
	start, end int64 // [start, end) offsets in the stream
	tag        uint64
	aborted    bool // truncated by AbortPending: suppress OnRecord
}

// Conn is one endpoint of a TCP connection. A connection carries two
// independent byte streams (one per direction); each Conn owns the
// sender state for its outgoing stream and the receiver state for its
// incoming stream.
type Conn struct {
	stack  *Stack
	peer   *Conn  // opposite endpoint; both are linked when the SYN is accepted
	gen    uint32 // moves on when the pair is released for reuse; see Ref
	remote netsim.NodeID

	established bool
	closed      bool

	// OnOpen fires when the handshake completes (both sides). OnBytes
	// fires as in-order payload bytes arrive, with the tag of the
	// record they belong to. OnRecord fires when a record's last byte
	// arrives in order. OnClose fires on teardown caused by the peer.
	// Each gets the Conn, so one func can serve every connection.
	OnOpen   func(c *Conn)
	OnBytes  func(c *Conn, n int, tag uint64)
	OnRecord func(c *Conn, tag uint64)
	OnClose  func(c *Conn)
	// Ctx is the application's: tcpsim never reads it, and clears it
	// with the callbacks when the Conn is reused.
	Ctx any

	// --- sender state ---
	records    []record // starts in recBuf, which holds what a request exchange writes
	recBuf     [2]record
	recBase    int   // index of first record the receiver may still need
	writeEnd   int64 // total bytes written
	sndUna     int64
	sndNxt     int64
	cwnd       float64 // bytes
	ssthresh   float64 // bytes
	dupAcks    int
	inRecovery bool
	recoverSeq int64 // NewReno: sndNxt when loss was detected

	rtoTimer   sim.Event
	rto        time.Duration
	srtt       time.Duration
	rttvar     time.Duration
	haveSample bool
	backoff    int

	// RTT timing: one sample in flight at a time (Karn's algorithm).
	timedSeq     int64
	timedAt      sim.Time
	timing       bool
	timedRetrans bool

	synTimer sim.Event

	// --- receiver state ---
	rcvNxt int64
	ooo    []oooRun // out-of-order runs, sorted by start, one per start

	// Stats (payload bytes; headers excluded).
	BytesSent      int64 // handed to the network, including retransmissions
	BytesDelivered int64 // delivered in order to the app
	Retransmits    int
	Timeouts       int
}

// Dial opens a connection to the stack bound at the remote node. The
// returned Conn accepts writes immediately; data flows once the
// handshake completes. onOpen may be nil.
func (s *Stack) Dial(remote netsim.NodeID, onOpen func(*Conn)) *Conn {
	c := s.newConn(remote)
	c.OnOpen = onOpen
	c.sendSYN()
	return c
}

// newConn returns a fresh Conn, reusing a recycled one if there is one.
func (s *Stack) newConn(remote netsim.NodeID) *Conn {
	var c *Conn
	if k := len(s.connFree); k > 0 {
		c = s.connFree[k-1]
		s.connFree = s.connFree[:k-1]
	} else {
		c = &Conn{stack: s}
		c.records = c.recBuf[:0]
	}
	c.remote = remote
	c.closed = false
	c.cwnd = float64(s.opts.InitialCwndSegments * s.opts.MSS)
	c.ssthresh = 1 << 30
	c.rto = s.opts.RTOInit
	return c
}

// reuseDead clears the closed pairs and moves each Conn to its own
// stack's free list. A cleared Conn keeps its record array and its
// generation, and reads as closed until newConn hands it out again.
func (s *Stack) reuseDead() {
	for i, c := range s.dead {
		c.returnOOO()
		*c = Conn{
			stack:   c.stack,
			gen:     c.gen,
			closed:  true,
			records: c.records[:0],
		}
		c.stack.connFree = append(c.stack.connFree, c)
		s.dead[i] = nil
	}
	s.dead = s.dead[:0]
}

// Ref is a generation-checked reference to a Conn. Conns are reused
// once both ends have closed, so an application that keeps a
// connection past its close keeps a Ref instead of the *Conn.
type Ref struct {
	c   *Conn
	gen uint32
}

// Ref returns a reference to c as it is now.
func (c *Conn) Ref() Ref { return Ref{c: c, gen: c.gen} }

// Conn returns the referenced connection, or nil for the zero Ref and
// once the Conn is released for reuse. A Conn is only released after
// both of its ends have closed, so a nil here means closed.
func (r Ref) Conn() *Conn {
	if r.c == nil || r.c.gen != r.gen {
		return nil
	}
	return r.c
}

// Established reports whether the handshake has completed.
func (c *Conn) Established() bool { return c.established }

// Closed reports whether the connection has been torn down.
func (c *Conn) Closed() bool { return c.closed }

// Cwnd returns the current congestion window in bytes.
func (c *Conn) Cwnd() float64 { return c.cwnd }

// RTO returns the current retransmission timeout.
func (c *Conn) RTO() time.Duration { return c.rto }

// SRTT returns the smoothed RTT estimate, 0 before the first sample.
func (c *Conn) SRTT() time.Duration { return c.srtt }

// Outstanding returns unacknowledged bytes in flight.
func (c *Conn) Outstanding() int64 { return c.sndNxt - c.sndUna }

// PendingBytes returns written-but-unsent bytes.
func (c *Conn) PendingBytes() int64 { return c.writeEnd - c.sndNxt }

// Remote returns the node at the other end of the connection.
func (c *Conn) Remote() netsim.NodeID { return c.remote }

// Write appends n logical bytes tagged with tag to the outgoing
// stream. Record boundaries are preserved: the receiving side's
// OnRecord fires once the record's final byte arrives in order.
func (c *Conn) Write(n int, tag uint64) {
	if n <= 0 {
		panic("tcpsim: Write of non-positive length")
	}
	if c.closed {
		return
	}
	c.records = append(c.records, record{start: c.writeEnd, end: c.writeEnd + int64(n), tag: tag})
	c.writeEnd += int64(n)
	c.trySend()
}

// AbortPending discards written-but-unsent bytes and returns how many
// were discarded. A record truncated mid-way is marked aborted so the
// receiver will not fire OnRecord for it; bytes of it already in
// flight still count toward OnBytes.
func (c *Conn) AbortPending() int64 {
	cut := c.writeEnd - c.sndNxt
	if cut <= 0 {
		return 0
	}
	c.writeEnd = c.sndNxt
	for i := len(c.records) - 1; i >= 0; i-- {
		r := &c.records[i]
		if r.start >= c.writeEnd {
			c.records = c.records[:i]
			continue
		}
		if r.end > c.writeEnd {
			r.end = c.writeEnd
			r.aborted = true
		}
		break
	}
	return cut
}

// Close tears the connection down abruptly (RST to the peer), like the
// thinner evicting a payment channel. In-flight packets are discarded
// on arrival. OnClose fires on the peer, not on the closing side.
func (c *Conn) Close() {
	if c.closed {
		return
	}
	rst := c.stack.newSegment()
	rst.rst = true
	c.fillAndSend(rst)
	c.teardown()
	c.release()
}

func (c *Conn) teardown() {
	c.closed = true
	c.established = false
	c.stack.loop.Cancel(c.rtoTimer)
	c.stack.loop.Cancel(c.synTimer)
}

// release queues c and its peer for reuse if c was the second of a
// linked pair to close. A peer relinked to a newer Conn (a SYN
// accepted after its first partner closed) is left to that one. Both
// generations move on now: from here the pair's segments in flight
// and its Refs are stale, even before reuseDead hands the Conns on.
func (c *Conn) release() {
	p := c.peer
	if p == nil || !p.closed || p.peer != c {
		return
	}
	c.gen++
	p.gen++
	c.stack.dead = append(c.stack.dead, c, p)
}

// connSYNTimeout and connRTO are the typed timer entry points: the
// loop dispatches them with the Conn as env, so (re)arming a timer
// allocates nothing.
func connSYNTimeout(env, _ any) {
	c := env.(*Conn)
	if !c.established && !c.closed {
		c.rto = min(c.rto*2, c.stack.opts.RTOMax)
		c.sendSYN()
	}
}

func connRTO(env, _ any) { env.(*Conn).onRTO() }

func (c *Conn) sendSYN() {
	if c.closed || c.established {
		return
	}
	syn := c.stack.newSegment()
	syn.syn = true
	c.fillAndSend(syn)
	c.synTimer = c.stack.loop.AfterTimer(c.rto, connSYNTimeout, c, nil)
}

// fillAndSend stamps sender identity and piggybacked ACK, then hands
// the segment to the network in a pooled packet.
func (c *Conn) fillAndSend(seg *segment) {
	seg.sender, seg.gen = c, c.gen
	seg.ackNo = c.rcvNxt
	pkt := c.stack.net.NewPacket()
	pkt.Size = c.stack.opts.HeaderBytes + seg.length
	pkt.Src = c.stack.node
	pkt.Dst = c.remote
	pkt.Payload = seg
	c.stack.net.Send(pkt)
}

// handlePacket dispatches one delivered segment, then recycles it to
// the stack that allocated it. Nothing may retain the segment past
// dispatch (peer identity is the sender *Conn*, which outlives it).
// Once the outermost dispatch returns, the pairs it closed are reused.
func (s *Stack) handlePacket(pkt *netsim.Packet) {
	seg, ok := pkt.Payload.(*segment)
	if !ok {
		panic(fmt.Sprintf("tcpsim: non-TCP packet at node %d", s.node))
	}
	s.depth++
	s.dispatch(seg, pkt.Src)
	s.depth--
	seg.Recycle()
	if s.depth == 0 && len(s.dead) > 0 {
		s.reuseDead()
	}
}

// dispatch demultiplexes by pointer: the receiver of a segment is its
// sender's peer, linked when the SYN was accepted. A segment from an
// earlier generation of its sender is stale: its sender and the
// sender's peer had both closed, and the pair was released for reuse.
func (s *Stack) dispatch(seg *segment, src netsim.NodeID) {
	from := seg.sender
	if from == nil {
		return
	}
	stale := seg.gen != from.gen
	c := from.peer
	live := !stale && c != nil && !c.closed
	if seg.syn {
		if live {
			// Retransmitted SYN for an accepted connection: re-SYNACK.
			synAck := s.newSegment()
			synAck.synAck = true
			c.fillAndSend(synAck)
			return
		}
		if s.accept == nil {
			return // no listener: silently drop
		}
		c = s.newConn(src)
		if !stale {
			c.peer, from.peer = from, c
		}
		c.established = true
		s.accept(c)
		synAck := s.newSegment()
		synAck.synAck = true
		c.fillAndSend(synAck)
		if c.OnOpen != nil {
			c.OnOpen(c)
		}
		return
	}
	if !live {
		return // stale packet for a closed connection
	}
	c.handleSegment(seg)
}

func (c *Conn) handleSegment(seg *segment) {
	if seg.rst {
		c.teardown()
		if c.OnClose != nil {
			c.OnClose(c)
		}
		c.release()
		return
	}
	if seg.synAck {
		if !c.established {
			c.established = true
			c.stack.loop.Cancel(c.synTimer)
			c.rto = c.stack.opts.RTOInit // discard handshake backoff
			if c.OnOpen != nil {
				c.OnOpen(c)
			}
			c.trySend()
		}
		return
	}
	if seg.length > 0 {
		c.receiveData(seg)
	}
	c.processAck(seg.ackNo, seg.length > 0)
}

// receiveData runs receiver-side reassembly and sends a cumulative ACK.
func (c *Conn) receiveData(seg *segment) {
	start, end := seg.seq, seg.seq+int64(seg.length)
	if end > c.rcvNxt {
		if start <= c.rcvNxt {
			c.advanceTo(end)
			c.drainOutOfOrder()
		} else {
			c.bufferOutOfOrder(start, end)
		}
	}
	if c.closed {
		return // an application callback closed the connection
	}
	// Cumulative ACK for everything received in order so far.
	c.fillAndSend(c.stack.newSegment())
}

// oooRun is a buffered out-of-order byte range [start, end).
type oooRun struct{ start, end int64 }

// bufferOutOfOrder inserts [start, end) into the sorted run list; a
// run with the same start keeps the larger end. Runs mostly arrive in
// increasing order, so the insertion point is found from the back.
func (c *Conn) bufferOutOfOrder(start, end int64) {
	i := len(c.ooo)
	for i > 0 && c.ooo[i-1].start > start {
		i--
	}
	if i > 0 && c.ooo[i-1].start == start {
		c.ooo[i-1].end = max(c.ooo[i-1].end, end)
		return
	}
	if c.ooo == nil {
		if k := len(c.stack.oooFree); k > 0 {
			c.ooo = c.stack.oooFree[k-1]
			c.stack.oooFree = c.stack.oooFree[:k-1]
		} else {
			// Runs are not merged, so one loss buffers a run per
			// segment behind it: start with room for a window's worth.
			c.ooo = make([]oooRun, 0, 32)
		}
	}
	c.ooo = slices.Insert(c.ooo, i, oooRun{start, end})
}

// returnOOO lends c's reassembly array back to the stack.
func (c *Conn) returnOOO() {
	if c.ooo != nil {
		c.stack.oooFree = append(c.stack.oooFree, c.ooo[:0])
		c.ooo = nil
	}
}

// drainOutOfOrder folds, in start order, the buffered runs the
// in-order point now reaches. rcvNxt only grows, so one pass from the
// front suffices.
func (c *Conn) drainOutOfOrder() {
	k := 0
	for ; k < len(c.ooo) && c.ooo[k].start <= c.rcvNxt; k++ {
		if end := c.ooo[k].end; end > c.rcvNxt {
			c.advanceTo(end)
		}
	}
	c.ooo = c.ooo[:copy(c.ooo, c.ooo[k:])]
	if len(c.ooo) == 0 {
		c.returnOOO()
	}
}

// advanceTo moves rcvNxt forward and fires application callbacks with
// the tags the peer's sender wrote.
func (c *Conn) advanceTo(end int64) {
	from := c.rcvNxt
	c.rcvNxt = end
	c.BytesDelivered += end - from
	peer := c.peer
	for i := peer.recBase; i < len(peer.records); i++ {
		r := peer.records[i]
		if r.end <= from {
			continue
		}
		if r.start >= end {
			break
		}
		lo, hi := max(r.start, from), min(r.end, end)
		if hi > lo && c.OnBytes != nil {
			c.OnBytes(c, int(hi-lo), r.tag)
		}
		if r.end <= end && r.end > from && !r.aborted && c.OnRecord != nil {
			c.OnRecord(c, r.tag)
		}
	}
}

// processAck runs sender-side congestion control. withData suppresses
// duplicate-ACK counting for piggybacked ACKs on data segments.
func (c *Conn) processAck(ackNo int64, withData bool) {
	if c.closed {
		return // an OnBytes/OnRecord callback may have closed us
	}
	opts := &c.stack.opts
	mss := float64(opts.MSS)
	switch {
	case ackNo > c.sndUna:
		acked := ackNo - c.sndUna
		c.sndUna = ackNo
		c.gcRecords()
		// RTT sample (Karn: skip if the timed segment was retransmitted).
		if c.timing && ackNo > c.timedSeq {
			if !c.timedRetrans {
				c.updateRTT(c.stack.loop.Now() - c.timedAt)
			}
			c.timing = false
		}
		if c.inRecovery {
			if ackNo >= c.recoverSeq {
				c.inRecovery = false
				c.cwnd = c.ssthresh
				c.dupAcks = 0
			} else {
				// NewReno partial ACK: retransmit the next hole; deflate
				// the window by the amount acked, then inflate by one MSS.
				c.retransmit(c.sndUna)
				c.cwnd = max(c.cwnd-float64(acked)+mss, mss)
			}
		} else {
			c.dupAcks = 0
			if c.cwnd < c.ssthresh {
				// Slow start with appropriate byte counting (cap 2*MSS).
				c.cwnd += min(float64(acked), 2*mss)
				if c.cwnd > c.ssthresh {
					c.cwnd = c.ssthresh
				}
			} else {
				c.cwnd += mss * mss / c.cwnd // congestion avoidance
			}
		}
		c.backoff = 0
		c.resetRTOTimer()
		c.trySend()
	case ackNo == c.sndUna && c.sndNxt > c.sndUna && !withData:
		c.dupAcks++
		if c.inRecovery {
			c.cwnd += mss
			c.trySend()
		} else if c.dupAcks >= 3 {
			c.enterRecovery()
		} else if c.writeEnd > c.sndNxt {
			// RFC 3042 limited transmit: send one new segment per early
			// duplicate ACK to keep the ACK clock alive; without it,
			// small-window tail loss degenerates into RTO stalls.
			c.limitedTransmit()
		} else if int64(c.dupAcks) >= max(1, (c.sndNxt-c.sndUna)/int64(opts.MSS)-1) {
			// RFC 5827 early retransmit: with too little in flight to
			// ever produce three duplicate ACKs, lower the threshold.
			c.enterRecovery()
		}
	}
}

// limitedTransmit sends one segment of new data beyond cwnd.
func (c *Conn) limitedTransmit() {
	avail := c.writeEnd - c.sndNxt
	if avail <= 0 {
		return
	}
	length := int(min(int64(c.stack.opts.MSS), avail))
	seg := c.stack.newSegment()
	seg.seq, seg.length = c.sndNxt, length
	c.sndNxt += int64(length)
	c.BytesSent += int64(length)
	c.fillAndSend(seg)
}

func (c *Conn) enterRecovery() {
	mss := float64(c.stack.opts.MSS)
	flight := float64(c.sndNxt - c.sndUna)
	c.ssthresh = max(flight/2, 2*mss)
	c.cwnd = c.ssthresh + 3*mss
	c.inRecovery = true
	c.recoverSeq = c.sndNxt
	c.retransmit(c.sndUna)
	c.resetRTOTimer()
}

// retransmit resends one segment starting at seq. The length never
// exceeds what was originally sent (no resegmentation past sndNxt).
func (c *Conn) retransmit(seq int64) {
	length := int(min(int64(c.stack.opts.MSS), c.sndNxt-seq))
	if length <= 0 {
		return
	}
	if c.timing && seq <= c.timedSeq && c.timedSeq < seq+int64(length) {
		c.timedRetrans = true
	}
	c.Retransmits++
	c.BytesSent += int64(length)
	seg := c.stack.newSegment()
	seg.seq, seg.length = seq, length
	c.fillAndSend(seg)
}

func (c *Conn) updateRTT(sample time.Duration) {
	if sample <= 0 {
		sample = time.Microsecond
	}
	if !c.haveSample {
		c.srtt = sample
		c.rttvar = sample / 2
		c.haveSample = true
	} else {
		d := c.srtt - sample
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + sample) / 8
	}
	c.rto = clampDur(c.srtt+4*c.rttvar, c.stack.opts.RTOMin, c.stack.opts.RTOMax)
}

func (c *Conn) resetRTOTimer() {
	c.stack.loop.Cancel(c.rtoTimer)
	c.rtoTimer = sim.Event{}
	if c.sndNxt == c.sndUna {
		return // nothing outstanding
	}
	rto := clampDur(c.rto<<uint(c.backoff), c.stack.opts.RTOMin, c.stack.opts.RTOMax)
	c.rtoTimer = c.stack.loop.AfterTimer(rto, connRTO, c, nil)
}

func (c *Conn) onRTO() {
	if c.closed || c.sndNxt == c.sndUna {
		return
	}
	c.Timeouts++
	mss := float64(c.stack.opts.MSS)
	flight := float64(c.sndNxt - c.sndUna)
	c.ssthresh = max(flight/2, 2*mss)
	c.cwnd = mss
	c.dupAcks = 0
	c.inRecovery = false
	c.timing = false // Karn: invalidate the outstanding sample
	if c.backoff < 12 {
		c.backoff++
	}
	c.retransmit(c.sndUna)
	c.resetRTOTimer()
}

// trySend pushes new segments while the congestion window allows.
func (c *Conn) trySend() {
	if !c.established || c.closed {
		return
	}
	opts := &c.stack.opts
	for {
		if float64(c.sndNxt-c.sndUna) >= c.cwnd {
			return
		}
		avail := c.writeEnd - c.sndNxt
		if avail <= 0 {
			return
		}
		length := int(min(int64(opts.MSS), avail))
		if !c.timing {
			c.timing = true
			c.timedSeq = c.sndNxt
			c.timedAt = c.stack.loop.Now()
			c.timedRetrans = false
		}
		seg := c.stack.newSegment()
		seg.seq, seg.length = c.sndNxt, length
		c.sndNxt += int64(length)
		c.BytesSent += int64(length)
		c.fillAndSend(seg)
		if !c.stack.loop.Pending(c.rtoTimer) {
			c.resetRTOTimer()
		}
	}
}

// gcRecords forgets fully-acked record prefixes so long-lived
// connections (payment channels send tens of megabytes) do not grow
// without bound. Acked implies delivered, so the peer no longer needs
// those records. Once at least half the log is acked, the unacked tail
// shifts down to the front of the same array: the copy is amortized
// over the records acked since the last one, and the array stays as
// small as the records in flight.
func (c *Conn) gcRecords() {
	for c.recBase < len(c.records) && c.records[c.recBase].end <= c.sndUna {
		c.recBase++
	}
	if c.recBase > 0 && c.recBase*2 >= len(c.records) {
		c.records = c.records[:copy(c.records, c.records[c.recBase:])]
		c.recBase = 0
	}
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
