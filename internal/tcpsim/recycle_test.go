package tcpsim

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"speakup/internal/netsim"
	"speakup/internal/sim"
)

// A Conn closed at both ends is reused by the next connection, while
// segments of its old stream may still be on the wire. Here the old
// pair closes with a long queue of the server's data and both RSTs in
// flight, and the next Dial and accept reuse both Conns before any of
// that arrives. The server's old data reaches the client after the new
// pair is linked, so only the generation each segment carries tells
// it apart from the new stream: the new stream must see exactly its
// own bytes and records, and neither end may be torn down.
func TestRecycledConnDropsStaleSegments(t *testing.T) {
	loop := sim.NewLoop(1)
	n := netsim.New(loop)
	na, nb := n.AddNode("a", nil), n.AddNode("b", nil)
	n.AddLink(na, nb, 10e6, 5*time.Millisecond, 0)
	n.AddLink(nb, na, 1e6, 5*time.Millisecond, 0) // slow: b's data queues
	n.ComputeRoutes()
	a, b := NewStack(n, na, Options{}), NewStack(n, nb, Options{})

	var got []string
	log := func(side string) (func(*Conn, int, uint64), func(*Conn, uint64)) {
		return func(_ *Conn, k int, tag uint64) { got = append(got, fmt.Sprintf("%s bytes %d %d", side, k, tag)) },
			func(_ *Conn, tag uint64) { got = append(got, fmt.Sprintf("%s record %d", side, tag)) }
	}
	var accepted []*Conn
	b.Listen(func(c *Conn) {
		accepted = append(accepted, c)
		if len(accepted) == 1 {
			c.Write(1<<20, 99) // the old stream: a queue's worth is in flight at close
			return
		}
		onBytes, onRecord := log("server")
		c.OnBytes = onBytes
		c.OnRecord = func(c *Conn, tag uint64) {
			onRecord(c, tag)
			c.Write(3000, tag+100)
		}
	})
	old := a.Dial(nb, nil)
	old.Write(1<<20, 98)
	loop.Run(300 * time.Millisecond)
	if !old.Established() || len(accepted) != 1 {
		t.Fatalf("old connection not up: established %v, %d accepted", old.Established(), len(accepted))
	}
	oldPeer := accepted[0]
	if inFlight := oldPeer.Outstanding(); inFlight < 20*1460 {
		t.Fatalf("only %d bytes of the old stream in flight towards a", inFlight)
	}
	stale := old.Ref()
	old.Close()
	oldPeer.Close()
	// The old client's last segments reach b within a few ms; after the
	// first one is handled the pair is back in the free lists.
	loop.Run(310 * time.Millisecond)
	if stale.Conn() != nil {
		t.Fatal("the closed pair was not recycled")
	}

	c := a.Dial(nb, nil)
	if c != old {
		t.Fatal("Dial did not reuse the recycled Conn")
	}
	if stale.Conn() != nil || c.Ref().Conn() != c {
		t.Fatal("a Ref must resolve only for the generation it was taken at")
	}
	onBytes, onRecord := log("client")
	c.OnBytes, c.OnRecord = onBytes, onRecord
	c.Write(2000, 7)
	c.Write(500, 8)
	loop.Run(10 * time.Second)

	if len(accepted) != 2 || accepted[1] != oldPeer {
		t.Fatal("the listener did not reuse the recycled Conn")
	}
	want := []string{
		"server bytes 1460 7",
		"server bytes 540 7", "server record 7", "server bytes 500 8", "server record 8",
		"client bytes 1460 107", "client bytes 1460 107", "client bytes 80 107", "client record 107",
		"client bytes 1380 108", "client bytes 1460 108", "client bytes 160 108", "client record 108",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("new stream callbacks:\n got %q\nwant %q", got, want)
	}
	if c.Closed() || oldPeer.Closed() {
		t.Fatalf("a stale segment tore the new pair down: client closed %v, server closed %v", c.Closed(), oldPeer.Closed())
	}
	if c.BytesDelivered != 6000 || oldPeer.BytesDelivered != 2500 {
		t.Fatalf("delivered client %d, server %d; want 6000 and 2500", c.BytesDelivered, oldPeer.BytesDelivered)
	}
}

// Once warm, a whole connection lifecycle — dial, handshake, a request
// and its response, close at both ends — allocates nothing: the pair
// comes back from the free lists with its record array.
func TestRecycledConnLifecycleZeroAlloc(t *testing.T) {
	loop := sim.NewLoop(1)
	loop.Grow(256)
	n := netsim.New(loop)
	na, nb := n.AddNode("a", nil), n.AddNode("b", nil)
	n.Connect(na, nb, 10e6, time.Millisecond, 0)
	n.ComputeRoutes()
	a, b := NewStack(n, na, Options{}), NewStack(n, nb, Options{})
	respond := func(c *Conn, tag uint64) { c.Write(5000, tag+1) }
	b.Listen(func(c *Conn) { c.OnRecord = respond })
	done := 0
	finish := func(c *Conn, _ uint64) {
		done++
		c.Close()
	}
	var last *Conn
	cycle := func() {
		last = a.Dial(nb, nil)
		last.OnRecord = finish
		last.Write(1000, 1)
		loop.RunAll()
	}
	cycle()
	first := last
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("a connection lifecycle allocates %.2f objects, want 0", avg)
	}
	if done != 202 || last != first {
		t.Fatalf("%d exchanges finished, Conn reused %v; want 202 on one recycled Conn", done, last == first)
	}
}
