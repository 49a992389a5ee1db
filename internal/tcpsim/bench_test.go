package tcpsim

import (
	"testing"
	"time"

	"speakup/internal/netsim"
	"speakup/internal/sim"
)

// BenchmarkConnTransfer measures the TCP data path end to end: four
// clients each upload 1 MB to one server through a 10 Mbit/s
// bottleneck with a 20 KB drop-tail queue, so every op demultiplexes
// tens of thousands of segments and reassembles around the losses the
// queue causes. One op is one whole transfer, network setup included;
// events/s is simulator events per wall-clock second.
func BenchmarkConnTransfer(b *testing.B) {
	const clients, upload = 4, 1 << 20
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		loop := sim.NewLoop(int64(i))
		n := netsim.New(loop)
		sw := n.AddNode("switch", nil)
		sn := n.AddNode("server", nil)
		n.Connect(sw, sn, 10e6, 5*time.Millisecond, 20000)
		srv := NewStack(n, sn, Options{})
		done := 0
		srv.Listen(func(c *Conn) { c.OnRecord = func(*Conn, uint64) { done++ } })
		var stacks []*Stack
		for k := 0; k < clients; k++ {
			cn := n.AddNode("client", nil)
			n.Connect(cn, sw, 100e6, time.Duration(k+1)*time.Millisecond, 0)
			stacks = append(stacks, NewStack(n, cn, Options{}))
		}
		n.ComputeRoutes()
		var retrans int
		var conns []*Conn
		for _, s := range stacks {
			c := s.Dial(sn, nil)
			c.Write(upload, 1)
			conns = append(conns, c)
		}
		events += loop.RunAll()
		for _, c := range conns {
			retrans += c.Retransmits
		}
		if done != clients || retrans == 0 {
			b.Fatalf("completed %d/%d uploads with %d retransmits; want all, with losses", done, clients, retrans)
		}
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
