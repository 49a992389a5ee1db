package wire

import (
	"net"
	"testing"
	"time"

	"speakup/internal/core"
	"speakup/internal/metrics"
)

// rejectAll is a Backend that answers every OPEN as a duplicate, so
// each OPEN frame queues one REJECT event.
type rejectAll struct{}

func (rejectAll) Arrive(core.RequestID, core.Waiter) core.ArriveVerdict {
	return core.ArriveDuplicate
}
func (rejectAll) Channel(core.RequestID) *core.PayChan      { return nil }
func (rejectAll) ReleaseWaiter(core.RequestID, core.Waiter) {}
func (rejectAll) Now() time.Duration                        { return 0 }

// TestEventQueueOverflowCounted pins the slow-client contract: a client
// that never reads its events fills its connection's event queue, and
// the server drops the connection and counts exactly one overflow.
func TestEventQueueOverflowCounted(t *testing.T) {
	var reg metrics.Registry
	srv := NewServer(rejectAll{}, ServerConfig{Registry: &reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.(*net.TCPConn).SetReadBuffer(4 << 10) // the events back up sooner

	var batch []byte
	for i := 1; i <= 1024; i++ {
		batch = append(batch, frame(OpOpen, uint64(i), nil)...)
	}
	deadline := time.Now().Add(10 * time.Second)
	for reg.Snapshot().WireOverflows == 0 {
		if time.Now().After(deadline) {
			t.Fatal("a client that never reads its events was never dropped")
		}
		nc.SetWriteDeadline(time.Now().Add(100 * time.Millisecond))
		if _, err := nc.Write(batch); err != nil {
			if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				break // the server dropped the connection
			}
		}
	}
	for reg.Snapshot().WireConns != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the overflowed connection was not torn down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := reg.Snapshot().WireOverflows; n != 1 {
		t.Fatalf("overflows = %d, want 1", n)
	}
}
